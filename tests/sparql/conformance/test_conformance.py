"""Data-driven SPARQL conformance corpus.

Each case is a ``cases/<name>.rq`` query file with an expected-results
fixture next to it:

* ``<name>.expected.json`` for SELECT and ASK queries,
* ``<name>.expected.ttl`` for CONSTRUCT queries (compared up to blank-node
  isomorphism).

Every case executes through EVERY evaluation engine — the batched naive
and planner paths plus the dict-at-a-time reference evaluator — and each
must match the fixture.
The queried data is ``data/default.ttl`` unless the case ships a
``<name>.data.ttl`` override.

SELECT fixtures carry the solutions as ``{variable: n3-text}`` rows.
Comparison is order-insensitive (a SPARQL solution sequence is unordered)
unless the fixture sets ``"ordered": true`` — which queries with ORDER BY
do.  A fixture may instead pin only ``"cardinality"`` plus a ``"subset_of"``
row pool: the shape for LIMIT-without-ORDER-BY, where any n rows of the
full result are conformant and the two engines may legitimately pick
different ones.  Blank-node values are compared as anonymous markers (the
label is an implementation artefact).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.rdf import Graph, SegmentStore
from repro.rdf.isomorphism import isomorphic
from repro.sparql import ENGINES, AskResult, QueryEvaluator, ResultSet, parse_query
from repro.turtle import parse_graph

CASES_DIR = Path(__file__).parent / "cases"
DEFAULT_DATA = Path(__file__).parent / "data" / "default.ttl"

CASE_NAMES = sorted(path.stem for path in CASES_DIR.glob("*.rq"))

#: Every case runs against both storage backends: the corpus is the proof
#: that a disk-backed graph answers byte-identically to the in-memory one.
BACKENDS = ("memory", "segment")


def _load_case_graph(name: str, backend: str = "memory",
                     tmp_path: Path | None = None) -> Graph:
    override = CASES_DIR / f"{name}.data.ttl"
    data_path = override if override.exists() else DEFAULT_DATA
    parsed = parse_graph(data_path.read_text(encoding="utf-8"), format="turtle")
    if backend == "memory":
        return parsed
    # A deliberately tiny write buffer forces multiple on-disk segments,
    # so queries exercise the segment binary-search path, not the buffer.
    graph = Graph(store=SegmentStore(tmp_path / "store", buffer_limit=8))
    graph.add_all(parsed)
    graph.flush()
    return graph


def _expected_fixture(name: str):
    json_path = CASES_DIR / f"{name}.expected.json"
    ttl_path = CASES_DIR / f"{name}.expected.ttl"
    if json_path.exists():
        return json.loads(json_path.read_text(encoding="utf-8"))
    if ttl_path.exists():
        return {"type": "construct", "graph": ttl_path.read_text(encoding="utf-8")}
    raise FileNotFoundError(f"conformance case {name} has no expected fixture")


def _normalise_term_text(text: str) -> str:
    # Blank-node labels are evaluator artefacts; compare them anonymously.
    return "_:b" if text.startswith("_:") else text


def _rows(result: ResultSet):
    rows = []
    for binding in result.bindings:
        row = {}
        for variable, term in binding.items():
            row[variable.name] = _normalise_term_text(term.n3())
        rows.append(row)
    return rows


def _canonical(rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


def _check_select(result: ResultSet, expected) -> None:
    got = _rows(result)
    if "cardinality" in expected:
        assert len(got) == expected["cardinality"]
        pool = {tuple(sorted(row.items())) for row in expected["subset_of"]}
        for row in got:
            assert tuple(sorted(row.items())) in pool, f"unexpected row {row}"
        return
    want = expected["rows"]
    if expected.get("ordered"):
        assert got == want
    else:
        assert _canonical(got) == _canonical(want)


def _check(result, expected) -> None:
    kind = expected["type"]
    if kind == "select":
        assert isinstance(result, ResultSet)
        _check_select(result, expected)
    elif kind == "ask":
        assert isinstance(result, AskResult)
        assert bool(result) == expected["boolean"]
    elif kind == "construct":
        assert isinstance(result, Graph)
        assert isomorphic(result, parse_graph(expected["graph"], format="turtle"))
    else:  # pragma: no cover - fixture authoring error
        raise ValueError(f"unknown fixture type {kind!r}")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_conformance_case(name: str, engine: str, backend: str, tmp_path: Path) -> None:
    graph = _load_case_graph(name, backend, tmp_path)
    query = parse_query((CASES_DIR / f"{name}.rq").read_text(encoding="utf-8"))
    evaluator = QueryEvaluator(graph, engine=engine)
    _check(evaluator.evaluate(query), _expected_fixture(name))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_explain_matches_analyzed_plan(name: str, engine: str) -> None:
    """EXPLAIN shows exactly the operator tree EXPLAIN ANALYZE runs."""
    graph = _load_case_graph(name)
    query = parse_query((CASES_DIR / f"{name}.rq").read_text(encoding="utf-8"))
    evaluator = QueryEvaluator(graph, engine=engine)
    explained = evaluator.explain(query).splitlines()
    _, event = evaluator.analyze(query)
    analyzed = [re.sub(r"  \(rows .*\)$", "", line) for line in event.plan.splitlines()]
    assert explained[0].startswith(f"plan for {type(query).__name__[:-5].upper()} query")
    assert explained[1:] == analyzed


@pytest.mark.parametrize("name", CASE_NAMES)
def test_expected_diagnostics(name: str) -> None:
    """Every case's static-analysis findings are pinned next to it.

    A ``<name>.diagnostics.json`` fixture lists the expected findings as
    ``{code, severity, line}`` entries; a case without the fixture must
    analyze clean.  This keeps the analyzer's output on the corpus under
    version control: a new or vanished diagnostic is a reviewable diff,
    not a silent behaviour change.
    """
    from repro.sparql.analysis import DIAGNOSTIC_CODES, analyze_query

    query = parse_query((CASES_DIR / f"{name}.rq").read_text(encoding="utf-8"))
    analysis = analyze_query(query)
    got = [
        {"code": d.code, "severity": d.severity, "line": d.span.line}
        for d in analysis.diagnostics
    ]
    fixture = CASES_DIR / f"{name}.diagnostics.json"
    want = json.loads(fixture.read_text(encoding="utf-8")) if fixture.exists() else []
    assert got == want
    for entry in want:
        assert entry["severity"] == DIAGNOSTIC_CODES[entry["code"]][0]


def test_corpus_is_big_enough() -> None:
    """The corpus must keep covering the advertised breadth (>= 25 cases)."""
    assert len(CASE_NAMES) >= 25


def test_every_case_has_exactly_one_fixture() -> None:
    for name in CASE_NAMES:
        json_exists = (CASES_DIR / f"{name}.expected.json").exists()
        ttl_exists = (CASES_DIR / f"{name}.expected.ttl").exists()
        assert json_exists != ttl_exists, f"case {name} needs exactly one fixture"
