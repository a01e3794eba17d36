"""Differential property test: static analysis never changes answers.

The analyzer's executable claims — constant-FILTER folding, redundancy
pruning, provable-emptiness short-circuits — are optimisations, so the
solution multiset with analysis enabled must be identical to the multiset
with analysis disabled, on every engine.  The random queries reuse the
planner-differential generators and deliberately mix in constant-true and
constant-false FILTERs so the folding and short-circuit paths are hit,
not just the pass-through.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, Literal, Triple
from repro.sparql import (
    ENGINES,
    BinaryExpression,
    Filter,
    Prologue,
    QueryEvaluator,
    SelectQuery,
    TermExpression,
)

from .test_planner_differential import data_triples, group_patterns

constant_expressions = st.sampled_from([
    TermExpression(Literal(True)),
    TermExpression(Literal(False)),
    BinaryExpression("=", TermExpression(Literal(1)), TermExpression(Literal(1))),
    BinaryExpression("=", TermExpression(Literal(1)), TermExpression(Literal(2))),
    BinaryExpression("<", TermExpression(Literal(3)), TermExpression(Literal(4))),
])


@st.composite
def analyzed_groups(draw):
    """A random group pattern, optionally salted with constant FILTERs."""
    group = draw(group_patterns())
    salt = [
        Filter(draw(constant_expressions))
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    ]
    return replace(group, elements=group.elements + tuple(salt))


def _solution_multiset(result):
    return Counter(frozenset(binding.as_dict().items()) for binding in result.bindings)


@settings(max_examples=100, deadline=None)
@given(st.lists(data_triples, max_size=20), analyzed_groups())
def test_analysis_changes_no_answers(triples, where):
    graph = Graph()
    for s, p, o in triples:
        graph.add(Triple(s, p, o))
    query = SelectQuery(Prologue(), [], where)

    for engine in ENGINES:
        plain = QueryEvaluator(graph, engine=engine, analysis=False).select(query)
        analyzed = QueryEvaluator(graph, engine=engine, analysis=True).select(query)
        assert _solution_multiset(analyzed) == _solution_multiset(plain), (
            f"analysis changed the answers on engine {engine}"
        )
