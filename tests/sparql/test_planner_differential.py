"""Differential property test: every engine == the reference evaluator.

Random small graphs are queried with random BGP / OPTIONAL / UNION /
FILTER combinations through every evaluation engine — the batched
planner and naive paths, and the dict-at-a-time reference evaluator as
the oracle; the solution
multisets must be identical across all of them.  This is the regression
net for the vectorized executor, join reordering, hash vs. bind join
selection and filter pushdown: any transformation that drops, duplicates
or invents a solution shows up as a multiset mismatch.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, Literal, SegmentStore, Triple, URIRef, Variable
from repro.sparql import (
    ENGINES,
    BinaryExpression,
    Filter,
    FunctionCall,
    GroupGraphPattern,
    OptionalPattern,
    Prologue,
    QueryEvaluator,
    SelectQuery,
    TermExpression,
    TriplesBlock,
    UnaryExpression,
    UnionPattern,
    VariableExpression,
)

SUBJECTS = [URIRef(f"http://t.example/s{i}") for i in range(3)]
PREDICATES = [URIRef(f"http://t.example/p{i}") for i in range(3)]
OBJECTS = SUBJECTS + [Literal(i) for i in range(3)]
VARIABLES = [Variable(name) for name in ("u", "v", "w")]

data_triples = st.tuples(
    st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES), st.sampled_from(OBJECTS)
)

subject_terms = st.one_of(st.sampled_from(SUBJECTS), st.sampled_from(VARIABLES))
predicate_terms = st.one_of(st.sampled_from(PREDICATES), st.sampled_from(VARIABLES))
object_terms = st.one_of(st.sampled_from(OBJECTS), st.sampled_from(VARIABLES))

patterns = st.builds(Triple, subject_terms, predicate_terms, object_terms)
bgps = st.lists(patterns, min_size=1, max_size=3)


@st.composite
def filter_expressions(draw):
    variable = VariableExpression(draw(st.sampled_from(VARIABLES)))
    choice = draw(st.integers(min_value=0, max_value=3))
    if choice == 0:
        other = draw(
            st.one_of(
                st.builds(TermExpression, st.sampled_from(OBJECTS)),
                st.builds(VariableExpression, st.sampled_from(VARIABLES)),
            )
        )
        return BinaryExpression(draw(st.sampled_from(["=", "!="])), variable, other)
    if choice == 1:
        bound = Literal(draw(st.integers(min_value=0, max_value=2)))
        return BinaryExpression(
            draw(st.sampled_from(["<", ">="])), variable, TermExpression(bound)
        )
    bound_call = FunctionCall("BOUND", [variable])
    if choice == 2:
        return bound_call
    return UnaryExpression("!", bound_call)


@st.composite
def group_patterns(draw):
    elements = [TriplesBlock(draw(bgps))]
    if draw(st.booleans()):
        inner = GroupGraphPattern([TriplesBlock(draw(bgps))])
        if draw(st.booleans()):
            inner.add(Filter(draw(filter_expressions())))
        elements.append(OptionalPattern(inner))
    if draw(st.booleans()):
        alternatives = [
            GroupGraphPattern([TriplesBlock(draw(bgps))]) for _ in range(2)
        ]
        elements.append(UnionPattern(alternatives))
    if draw(st.booleans()):
        elements.append(Filter(draw(filter_expressions())))
    order = draw(st.permutations(range(len(elements))))
    return GroupGraphPattern([elements[index] for index in order])


#: Both storage backends run the same differential property: the disk
#: path must be solution-for-solution identical to the in-memory path.
BACKENDS = ("memory", "segment")


@contextmanager
def _graph_for(backend, triples):
    if backend == "memory":
        graph = Graph()
        for s, p, o in triples:
            graph.add(Triple(s, p, o))
        yield graph
        return
    with tempfile.TemporaryDirectory() as root:
        # Tiny buffer: most data lands in on-disk segments, not the buffer.
        graph = Graph(store=SegmentStore(root, buffer_limit=4))
        for s, p, o in triples:
            graph.add(Triple(s, p, o))
        graph.flush()
        try:
            yield graph
        finally:
            graph.close()


def _solution_multiset(result):
    return Counter(frozenset(binding.as_dict().items()) for binding in result.bindings)


def _assert_engines_agree(graph, query):
    oracle = QueryEvaluator(graph, engine="reference").select(query)
    expected = _solution_multiset(oracle)
    for engine in ENGINES:
        if engine == "reference":
            continue
        got = QueryEvaluator(graph, engine=engine).select(query)
        assert _solution_multiset(got) == expected, f"engine {engine} diverged"


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(st.lists(data_triples, max_size=20), group_patterns())
def test_engines_match_reference_evaluator(backend, triples, where):
    query = SelectQuery(Prologue(), [], where)
    with _graph_for(backend, triples) as graph:
        _assert_engines_agree(graph, query)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(st.lists(data_triples, max_size=20), group_patterns())
def test_engines_distinct_matches_reference_evaluator(backend, triples, where):
    query = SelectQuery(Prologue(), [], where)
    query.modifiers.distinct = True
    with _graph_for(backend, triples) as graph:
        _assert_engines_agree(graph, query)
