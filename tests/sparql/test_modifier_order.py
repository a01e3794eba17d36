"""Regression tests for the solution-modifier pipeline.

Per SPARQL semantics the order is ORDER BY → projection → DISTINCT →
OFFSET → LIMIT.  The evaluator used to apply OFFSET/LIMIT *before*
DISTINCT, so ``SELECT DISTINCT ?t ... LIMIT 2`` over four rows with two
distinct values returned one row instead of two, and ``OFFSET 1`` dropped
a pre-deduplication row.
"""

from dataclasses import replace

import pytest

from repro.rdf import Graph, Literal, Triple, URIRef
from repro.sparql import QueryEvaluator, parse_query
from repro.sparql.ast import ConstructQuery

EX = "http://ex.org/"
PREFIX = "PREFIX ex: <http://ex.org/>\n"


def uri(name: str) -> URIRef:
    return URIRef(EX + name)


@pytest.fixture()
def evaluator() -> QueryEvaluator:
    """Four items over two types: 2x Widget, 2x Gadget."""
    graph = Graph()
    graph.add(Triple(uri("i1"), uri("type"), uri("Widget")))
    graph.add(Triple(uri("i2"), uri("type"), uri("Widget")))
    graph.add(Triple(uri("i3"), uri("type"), uri("Gadget")))
    graph.add(Triple(uri("i4"), uri("type"), uri("Gadget")))
    return QueryEvaluator(graph)


class TestSelectModifierOrder:
    def test_distinct_applies_before_limit(self, evaluator):
        """The ISSUE repro: 4 rows, 2 distinct values, LIMIT 2 → 2 rows."""
        result = evaluator.select(
            PREFIX + "SELECT DISTINCT ?t WHERE { ?i ex:type ?t } ORDER BY ?t LIMIT 2"
        )
        assert len(result) == 2
        assert result.distinct_values("t") == {uri("Widget"), uri("Gadget")}

    def test_distinct_applies_before_offset(self, evaluator):
        """OFFSET slices the deduplicated rows, not the raw rows."""
        result = evaluator.select(
            PREFIX + "SELECT DISTINCT ?t WHERE { ?i ex:type ?t } ORDER BY ?t OFFSET 1"
        )
        # Distinct ordered rows are [Gadget, Widget]; OFFSET 1 leaves Widget.
        assert [binding.get_term("t") for binding in result] == [uri("Widget")]

    def test_distinct_offset_limit_combination(self, evaluator):
        result = evaluator.select(
            PREFIX + "SELECT DISTINCT ?t WHERE { ?i ex:type ?t } ORDER BY ?t OFFSET 1 LIMIT 1"
        )
        assert [binding.get_term("t") for binding in result] == [uri("Widget")]

    def test_limit_without_distinct_keeps_raw_rows(self, evaluator):
        result = evaluator.select(
            PREFIX + "SELECT ?t WHERE { ?i ex:type ?t } LIMIT 3"
        )
        assert len(result) == 3

    def test_order_by_may_use_non_projected_variable(self):
        graph = Graph()
        graph.add(Triple(uri("a"), uri("rank"), Literal(2)))
        graph.add(Triple(uri("b"), uri("rank"), Literal(1)))
        result = QueryEvaluator(graph).select(
            PREFIX + "SELECT ?s WHERE { ?s ex:rank ?r } ORDER BY ?r"
        )
        assert [binding.get_term("s") for binding in result] == [uri("b"), uri("a")]

    def test_distinct_without_slicing_unchanged(self, evaluator):
        result = evaluator.select(PREFIX + "SELECT DISTINCT ?t WHERE { ?i ex:type ?t }")
        assert len(result) == 2


class TestConstructModifierOrder:
    def test_construct_limit_applies_after_dedup(self, evaluator):
        """CONSTRUCT shares the modifier pipeline: DISTINCT before LIMIT."""
        # The UNION of a pattern with itself yields every solution twice;
        # ordered by ?i the raw sequence is [i1, i1, i2, i2, i3, i3, ...].
        parsed = parse_query(
            PREFIX + "CONSTRUCT { ?i ex:kept ex:yes } "
            "WHERE { { ?i ex:type ?t } UNION { ?i ex:type ?t } } "
            "ORDER BY ?i LIMIT 4"
        )
        assert isinstance(parsed, ConstructQuery)
        # Force DISTINCT at the AST level (the surface grammar has no
        # CONSTRUCT DISTINCT).  Dedup-before-LIMIT keeps all four distinct
        # solutions; the old slice-then-dedup pipeline kept only i1 and i2.
        parsed = replace(parsed, modifiers=replace(parsed.modifiers, distinct=True))
        graph = evaluator.evaluate(parsed)
        subjects = {triple.subject for triple in graph}
        assert subjects == {uri("i1"), uri("i2"), uri("i3"), uri("i4")}

    def test_construct_offset_and_limit(self, evaluator):
        graph = evaluator.evaluate(parse_query(
            PREFIX + "CONSTRUCT { ?i ex:kept ex:yes } WHERE { ?i ex:type ?t } "
            "ORDER BY ?i OFFSET 1 LIMIT 2"
        ))
        subjects = {triple.subject for triple in graph}
        assert subjects == {uri("i2"), uri("i3")}
