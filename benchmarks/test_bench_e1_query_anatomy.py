"""E1 — Figure 1: anatomy of the co-author SELECT query.

The paper decomposes the Figure 1 query into its *query result form*
(``SELECT DISTINCT ?a``), its *Basic Graph Pattern* (two ``akt:has-author``
triple patterns) and its *FILTER section* (``!(?a = id:person-02686)``).
This benchmark parses the exact query, reproduces that decomposition and
measures parser throughput.
"""

from repro.rdf import AKT, RKB_ID, Variable
from repro.sparql import SelectQuery, parse_query, serialize_query

from .conftest import FIGURE_1_QUERY, report


def test_bench_e1_parse_figure1(benchmark):
    query = benchmark(parse_query, FIGURE_1_QUERY)

    assert isinstance(query, SelectQuery)
    assert query.modifiers.distinct
    assert query.projection == (Variable("a"),)

    patterns = query.all_triple_patterns()
    assert len(patterns) == 2
    assert all(pattern.predicate == AKT["has-author"] for pattern in patterns)
    assert patterns[0].object == RKB_ID["person-02686"]
    assert patterns[1].object == Variable("a")

    filters = list(query.filters())
    assert len(filters) == 1

    report(
        "E1: Figure 1 query anatomy",
        [
            ("query result form", "SELECT DISTINCT ?a"),
            ("BGP triple patterns", len(patterns)),
            ("BGP predicates", "akt:has-author (x2)"),
            ("FILTER constraints", len(filters)),
            ("declared prefixes", len(list(query.prologue.namespace_manager.namespaces()))),
        ],
        headers=("component", "value"),
    )


def test_bench_e1_parse_serialize_roundtrip(benchmark):
    """Parsing the serialised form reproduces the same anatomy (stability)."""

    def roundtrip():
        return parse_query(serialize_query(parse_query(FIGURE_1_QUERY)))

    query = benchmark(roundtrip)
    assert len(query.all_triple_patterns()) == 2
    assert len(list(query.filters())) == 1
