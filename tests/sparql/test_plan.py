"""Unit tests for the cost-based planner and its batched plans."""

from __future__ import annotations

import pytest

from repro.rdf import Graph, Literal, Triple, URIRef, Variable
from repro.sparql import QueryEvaluator, ordered_bgp_patterns, parse_query
from repro.sparql.exec import ExecContext, VecBGPOp, VecHashJoinOp, _VecStep, seed_batches
from repro.sparql.plan import CardinalityEstimator, order_patterns
from repro.sparql.results import Binding


def u(name: str) -> URIRef:
    return URIRef(f"http://plan.example/{name}")


PREFIX = "PREFIX ex:<http://plan.example/>\n"


@pytest.fixture()
def graph() -> Graph:
    g = Graph()
    for i in range(100):
        g.add(Triple(u(f"person{i}"), u("type"), u("Person")))
        g.add(Triple(u(f"person{i}"), u("name"), Literal(f"name{i:03d}")))
    # One rare predicate: only three triples.
    for i in range(3):
        g.add(Triple(u(f"person{i}"), u("leads"), u(f"team{i}")))
    return g


class CountingGraph:
    """Graph proxy counting index lookups (to observe early termination)."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self.lookups = 0

    def triples(self, s=None, p=None, o=None):
        self.lookups += 1
        return self._graph.triples(s, p, o)

    def cardinality(self, s=None, p=None, o=None):
        return self._graph.cardinality(s, p, o)

    @property
    def stats(self):
        return self._graph.stats

    def __len__(self):
        return len(self._graph)


# --------------------------------------------------------------------------- #
# Join ordering
# --------------------------------------------------------------------------- #
def test_statistics_put_rare_pattern_first(graph: Graph) -> None:
    estimator = CardinalityEstimator(graph)
    patterns = [
        Triple(Variable("p"), u("type"), u("Person")),     # 100 matches
        Triple(Variable("p"), u("name"), Variable("n")),   # 100 matches
        Triple(Variable("p"), u("leads"), Variable("t")),  # 3 matches
    ]
    ordered = order_patterns(patterns, set(), estimator)
    assert ordered[0].predicate == u("leads")


def test_order_patterns_is_deterministic(graph: Graph) -> None:
    estimator = CardinalityEstimator(graph)
    patterns = [
        Triple(Variable("p"), u("name"), Variable("n")),
        Triple(Variable("p"), u("type"), u("Person")),
        Triple(Variable("p"), u("leads"), Variable("t")),
    ]
    reference = order_patterns(patterns, set(), estimator)
    for permutation in (patterns[::-1], patterns[1:] + patterns[:1]):
        assert order_patterns(permutation, set(), estimator) == reference


def test_ordered_bgp_patterns_deterministic_under_permutation() -> None:
    """The naive evaluator's pattern order no longer depends on input order."""
    patterns = [
        Triple(Variable("a"), u("p"), Variable("b")),
        Triple(Variable("b"), u("q"), Variable("c")),
        Triple(Variable("x"), u("p"), u("const")),
        Triple(Variable("a"), u("r"), u("const")),
    ]
    reference = ordered_bgp_patterns(patterns)
    import itertools

    for permutation in itertools.permutations(patterns):
        assert ordered_bgp_patterns(list(permutation)) == reference


def test_ordered_bgp_patterns_respects_initial_binding() -> None:
    patterns = [
        Triple(Variable("a"), u("p"), Variable("b")),
        Triple(Variable("c"), u("q"), u("const")),
    ]
    # With ?a pre-bound the first pattern has two bound positions and wins.
    bound = Binding({Variable("a"): u("ground")})
    assert ordered_bgp_patterns(patterns, bound)[0].predicate == u("p")
    # Without it, the ground-object pattern is more selective.
    assert ordered_bgp_patterns(patterns)[0].predicate == u("q")


def test_connected_patterns_avoid_cross_products(graph: Graph) -> None:
    estimator = CardinalityEstimator(graph)
    patterns = [
        Triple(Variable("p"), u("leads"), Variable("t")),   # cheapest: first
        Triple(Variable("q"), u("type"), u("Person")),      # disconnected
        Triple(Variable("p"), u("name"), Variable("n")),    # connected to ?p
    ]
    ordered = order_patterns(patterns, set(), estimator)
    assert [p.predicate for p in ordered[:2]] == [u("leads"), u("name")]


# --------------------------------------------------------------------------- #
# Filter pushdown
# --------------------------------------------------------------------------- #
def test_filter_pushed_to_earliest_scan(graph: Graph) -> None:
    text = QueryEvaluator(graph).explain(
        PREFIX + """
        SELECT ?p WHERE {
          ?p ex:name ?n .
          ?p ex:leads ?t .
          FILTER (?n != "name000")
        }"""
    )
    lines = [line.strip() for line in text.splitlines()]
    name_scan = next(line for line in lines if "/name>" in line and line.startswith("scan"))
    assert "[filter" in name_scan, text


def test_unbound_filter_not_pushed_below_optional(graph: Graph) -> None:
    query = PREFIX + """
    SELECT ?p WHERE {
      ?p ex:name ?n .
      OPTIONAL { ?p ex:leads ?t }
      FILTER (!BOUND(?t))
    }"""
    text = QueryEvaluator(graph).explain(query)
    # The !BOUND filter must sit above the LeftJoin, not inside a scan.
    assert "Filter [!BOUND(?t)]" in text, text
    result = QueryEvaluator(graph).select(query)
    naive = QueryEvaluator(graph, engine="naive").select(query)
    assert sorted(b["p"] for b in result) == sorted(b["p"] for b in naive)
    assert len(result) == 97


# --------------------------------------------------------------------------- #
# Early termination
# --------------------------------------------------------------------------- #
def test_limit_stops_scanning_early(graph: Graph) -> None:
    counting = CountingGraph(graph)
    query = parse_query(PREFIX + "SELECT ?p ?n WHERE { ?p ex:type ex:Person . ?p ex:name ?n } LIMIT 2")
    rows = QueryEvaluator(counting).select(query)
    assert len(rows) == 2
    # 100 persons in the graph; a materialising evaluator would do >= 101
    # index lookups (one enumeration + one per person).  The plan's small
    # first batches pull only what LIMIT needs.
    assert counting.lookups <= 10


def test_ask_stops_at_first_solution(graph: Graph) -> None:
    counting = CountingGraph(graph)
    query = parse_query(PREFIX + "ASK { ?p ex:type ex:Person . ?p ex:name ?n }")
    evaluator = QueryEvaluator(counting)
    assert bool(evaluator.evaluate(query))
    assert counting.lookups <= 5


# --------------------------------------------------------------------------- #
# Join strategies
# --------------------------------------------------------------------------- #
def test_hash_join_used_for_safe_shared_variable_join(graph: Graph) -> None:
    # Two groups sharing the certainly-bound ?p; the inner FILTER keeps the
    # right group from being coalesced into the left BGP, so an actual join
    # operator is required — and hash-joining on ?p is safe here.
    query = PREFIX + """
    SELECT ?p ?n ?t WHERE {
      { ?p ex:name ?n . ?p ex:type ex:Person }
      { ?p ex:leads ?t . FILTER (?t != ex:team99) }
    }"""
    text = QueryEvaluator(graph).explain(query)
    assert "HashJoin on (?p)" in text, text
    planned = QueryEvaluator(graph).select(query)
    naive = QueryEvaluator(graph, engine="naive").select(query)
    assert sorted(map(repr, planned)) == sorted(map(repr, naive))
    assert len(planned) == 3


def test_hash_join_builds_once_across_correlated_runs(graph: Graph) -> None:
    counting = CountingGraph(graph)
    ctx = ExecContext(counting)

    def scan(predicate: str, est: float) -> VecBGPOp:
        step = _VecStep(Triple(Variable("p"), u(predicate), Variable("x" + predicate)), [], est)
        return VecBGPOp(ctx, (), [step], [])

    join = VecHashJoinOp(ctx, scan("name", 100.0), scan("leads", 3.0), [Variable("p")])

    def run() -> list:
        return [row for batch in join.execute(seed_batches()) for row in batch.rows]

    join.reset()
    baseline = counting.lookups
    # A correlated parent re-runs the join once per input batch; the build
    # side must be scanned only on the first run.
    first = run()
    assert len(first) == 3
    after_first = counting.lookups
    for _ in range(5):
        assert run() == first
    assert counting.lookups == after_first + 5  # one probe-side lookup per run
    assert after_first - baseline == 2  # probe + one-time build

    # A new execution (reset) rebuilds against possibly mutated data.
    join.reset()
    run()
    assert counting.lookups == after_first + 5 + 2


def test_adjacent_bgps_coalesce_into_one_scan_chain(graph: Graph) -> None:
    text = QueryEvaluator(graph).explain(
        PREFIX + "SELECT * WHERE { { ?p ex:name ?n } { ?p ex:leads ?t } }"
    )
    assert "Join" not in text
    assert text.count("scan (") == 2


def test_explain_mentions_estimates_and_form(graph: Graph) -> None:
    text = QueryEvaluator(graph).explain(PREFIX + "SELECT ?p WHERE { ?p ex:leads ?t } LIMIT 1")
    assert text.startswith("plan for SELECT query")
    assert "est=3.0" in text
    assert "Slice" in text


def test_plans_work_without_statistics() -> None:
    """Graph-likes without cardinality/stats fall back to the heuristic."""

    class BareGraph:
        def __init__(self, graph: Graph) -> None:
            self._graph = graph

        def triples(self, s=None, p=None, o=None):
            return self._graph.triples(s, p, o)

        def __len__(self):
            return len(self._graph)

    g = Graph()
    g.add(Triple(u("a"), u("p"), u("b")))
    bare = BareGraph(g)
    query = parse_query(PREFIX + "SELECT ?x WHERE { ex:a ex:p ?x }")
    rows = QueryEvaluator(bare).select(query)
    assert [row["x"] for row in rows] == [u("b")]
