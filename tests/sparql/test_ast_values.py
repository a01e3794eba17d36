"""The query AST is made of immutable values.

Every concrete node is a frozen dataclass whose sequence fields hold
tuples, so a parsed or rewritten query can be cached and shared (the
mediator's rewrite cache returns the same objects on every hit) without
any caller being able to change it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.rdf import Triple, URIRef, Variable
from repro.sparql import ast, parse_query
from repro.sparql.ast import (
    ExistsExpression,
    Filter,
    GroupGraphPattern,
    InlineData,
    SelectQuery,
    TriplesBlock,
    VariableExpression,
)

EX = "http://ex.org/"

#: Abstract bases and aliases in ``ast.__all__`` that are not node classes.
_NOT_NODES = {"Expression", "PatternElement", "Query", "GraphPattern"}

NODE_CLASSES = [
    getattr(ast, name)
    for name in ast.__all__
    if name not in _NOT_NODES and isinstance(getattr(ast, name), type)
]

QUERIES = [
    f"""PREFIX ex: <{EX}>
    SELECT DISTINCT ?s ?o WHERE {{
      VALUES (?s ?k) {{ (ex:a UNDEF) (ex:b ex:c) }}
      ?s ex:p ?o ; ex:q [ ex:r ?x ] .
      OPTIONAL {{ ?s ex:t ?t FILTER(!BOUND(?t) || -?t < 3) }}
      {{ ?s ex:u ?u }} UNION {{ ?s ex:v ?u }}
      {{ ?s ex:w ?w }}
      FILTER(REGEX(STR(?o), "x") && ?o != ex:z)
    }} ORDER BY DESC(?o) ?s LIMIT 5 OFFSET 1""",
    f"PREFIX ex: <{EX}> ASK {{ ?s ex:p ?o }}",
    f"PREFIX ex: <{EX}> CONSTRUCT {{ ?s ex:q ?o }} WHERE {{ ?s ex:p ?o }}",
]


def _exists_query() -> SelectQuery:
    inner = GroupGraphPattern([TriplesBlock([Triple(Variable("s"), URIRef(EX + "p"), Variable("o"))])])
    return SelectQuery(
        parse_query("SELECT * WHERE { }").prologue,
        [Variable("s")],
        GroupGraphPattern([inner, Filter(ExistsExpression(inner, negated=True))]),
    )


def _walk(value, seen: list) -> None:
    """Every dataclass instance reachable from ``value``, depth first."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        seen.append(value)
        for item in dataclasses.fields(value):
            _walk(getattr(value, item.name), seen)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _walk(item, seen)


def _nodes() -> list:
    nodes: list = []
    for text in QUERIES:
        _walk(parse_query(text), nodes)
    _walk(_exists_query(), nodes)
    return nodes


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_every_node_class_is_a_frozen_dataclass(cls):
    assert dataclasses.is_dataclass(cls)
    assert cls.__dataclass_params__.frozen


def test_the_sample_queries_reach_every_node_class():
    assert {type(node) for node in _nodes()} >= set(NODE_CLASSES)


def test_sequence_fields_hold_tuples():
    for node in _nodes():
        for item in dataclasses.fields(node):
            value = getattr(node, item.name)
            assert not isinstance(value, (list, set, dict)), (
                f"{type(node).__name__}.{item.name} is a {type(value).__name__}"
            )


def test_programmatic_lists_become_tuples():
    pattern = Triple(Variable("s"), URIRef(EX + "p"), Variable("o"))
    block = TriplesBlock([pattern])
    group = GroupGraphPattern([block])
    data = InlineData([Variable("s")], [[URIRef(EX + "a")]])
    query = SelectQuery(parse_query("SELECT * WHERE { }").prologue, [Variable("s")], group)
    assert block.patterns == (pattern,)
    assert group.elements == (block,)
    assert data.columns == (Variable("s"),) and data.rows == ((URIRef(EX + "a"),),)
    assert query.projection == (Variable("s"),)


def test_nodes_refuse_assignment():
    query = parse_query(QUERIES[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        query.where = GroupGraphPattern()  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        query.modifiers.limit = 1  # type: ignore[misc]
    block = next(query.triples_blocks())
    with pytest.raises(dataclasses.FrozenInstanceError):
        block.patterns = ()  # type: ignore[misc]
    with pytest.raises(AttributeError):
        block.patterns.append(block.patterns[0])  # type: ignore[attr-defined]


def test_replace_builds_a_new_node_and_leaves_the_old_one():
    query = parse_query(QUERIES[0])
    text = query.serialize()
    limited = dataclasses.replace(query, modifiers=dataclasses.replace(query.modifiers, limit=1))
    assert limited.modifiers.limit == 1
    assert query.modifiers.limit == 5
    assert query.serialize() == text


class TestTriplesBlockEquality:
    P = Triple(Variable("s"), URIRef(EX + "p"), Variable("o"))
    Q = Triple(Variable("o"), URIRef(EX + "q"), Variable("x"))

    def test_pattern_order_does_not_matter(self):
        left, right = TriplesBlock([self.P, self.Q]), TriplesBlock([self.Q, self.P])
        assert left == right
        assert hash(left) == hash(right)
        assert len({left, right}) == 1

    def test_different_patterns_differ(self):
        assert TriplesBlock([self.P]) != TriplesBlock([self.Q])

    def test_spans_do_not_matter(self):
        parsed = next(parse_query(f"SELECT * WHERE {{ ?s <{EX}p> ?o }}").triples_blocks())
        built = TriplesBlock([self.P])
        assert parsed.span is not None and built.span is None
        assert parsed == built and hash(parsed) == hash(built)

    def test_groups_with_equal_blocks_are_equal(self):
        left = GroupGraphPattern([TriplesBlock([self.P, self.Q]), Filter(VariableExpression(Variable("s")))])
        right = GroupGraphPattern([TriplesBlock([self.Q, self.P]), Filter(VariableExpression(Variable("s")))])
        assert left == right and hash(left) == hash(right)


class TestInlineDataRows:
    def test_ragged_row_is_rejected(self):
        with pytest.raises(ValueError, match="row width 1 does not match 2"):
            InlineData([Variable("a"), Variable("b")], [(URIRef(EX + "a"),)])

    def test_undef_cells_are_allowed(self):
        data = InlineData([Variable("a"), Variable("b")], [(None, URIRef(EX + "b"))])
        assert len(data) == 1 and data.rows[0][0] is None
