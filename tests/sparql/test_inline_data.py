"""VALUES (inline data) support: parsing, serialisation, both engines.

The federation decomposer ships bound-join batches as ``VALUES`` blocks,
which must survive serialisation to text and re-parsing on the remote side
(the loopback servers re-parse every sub-query), and must evaluate to the
same solutions under the naive evaluator and the planner.
"""

import pytest

from repro.rdf import Graph, Literal, SegmentStore, Triple, URIRef, Variable, XSD
from repro.sparql import (
    InlineData,
    QueryEvaluator,
    SparqlParseError,
    parse_query,
)

EX = "http://ex.org/"


def _graph(n: int = 6) -> Graph:
    graph = Graph()
    for index in range(n):
        graph.add(Triple(
            URIRef(f"{EX}s{index}"), URIRef(EX + "p"), URIRef(f"{EX}o{index}")
        ))
        graph.add(Triple(
            URIRef(f"{EX}s{index}"), URIRef(EX + "size"),
            Literal(index, datatype=XSD.integer),
        ))
    return graph


def _rows(result):
    return sorted(
        tuple((k, str(v)) for k, v in sorted(b.as_dict().items()))
        for b in result
    )


class TestParsing:
    def test_single_variable_form(self):
        query = parse_query(
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT ?s WHERE { VALUES ?s { ex:s1 ex:s2 } ?s ex:p ?o }"
        )
        blocks = [e for e in query.where.elements if isinstance(e, InlineData)]
        assert len(blocks) == 1
        assert blocks[0].columns == [Variable("s")]
        assert len(blocks[0].rows) == 2

    def test_multi_variable_form_with_undef(self):
        query = parse_query(
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT * WHERE { VALUES (?s ?o) { (ex:s1 ex:o1) (UNDEF ex:o2) } }"
        )
        block = next(e for e in query.where.elements if isinstance(e, InlineData))
        assert block.rows[1][0] is None
        assert str(block.rows[1][1]) == f"{EX}o2"

    def test_literal_values(self):
        query = parse_query(
            'SELECT * WHERE { VALUES ?x { 1 2.5 "text" true } }'
        )
        block = next(e for e in query.where.elements if isinstance(e, InlineData))
        assert len(block.rows) == 4

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(SparqlParseError):
            parse_query(
                "PREFIX ex: <http://ex.org/>\n"
                "SELECT * WHERE { VALUES (?a ?b) { (ex:s1) } }"
            )

    def test_variable_not_allowed_as_data(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT * WHERE { VALUES ?x { ?y } }")


class TestRoundTrip:
    def test_serialise_and_reparse(self):
        text = (
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT ?s ?o WHERE { VALUES (?s ?o) { (ex:s1 ex:o1) (UNDEF ex:o2) } }"
        )
        query = parse_query(text)
        rendered = query.serialize()
        assert "VALUES" in rendered and "UNDEF" in rendered
        reparsed = parse_query(rendered)
        original = next(e for e in query.where.elements if isinstance(e, InlineData))
        restored = next(e for e in reparsed.where.elements if isinstance(e, InlineData))
        assert restored == original


class TestEvaluation:
    @pytest.mark.parametrize("engine", ["planner", "naive"])
    def test_values_restricts_bgp(self, engine):
        result = QueryEvaluator(_graph(), engine=engine).evaluate(
            parse_query(
                "PREFIX ex: <http://ex.org/>\n"
                "SELECT ?s ?o WHERE { VALUES ?s { ex:s1 ex:s3 } ?s ex:p ?o }"
            )
        )
        assert _rows(result) == [
            (("o", f"{EX}o1"), ("s", f"{EX}s1")),
            (("o", f"{EX}o3"), ("s", f"{EX}s3")),
        ]

    @pytest.mark.parametrize("engine", ["planner", "naive"])
    def test_undef_leaves_column_unconstrained(self, engine):
        result = QueryEvaluator(_graph(3), engine=engine).evaluate(
            parse_query(
                "PREFIX ex: <http://ex.org/>\n"
                "SELECT ?s ?o WHERE {"
                " VALUES (?s ?o) { (ex:s0 ex:o0) (UNDEF ex:o2) (ex:s1 ex:o9) }"
                " ?s ex:p ?o }"
            )
        )
        # (s0,o0) matches exactly; UNDEF row matches any subject with o2;
        # (s1,o9) contradicts the data and drops out.
        assert _rows(result) == [
            (("o", f"{EX}o0"), ("s", f"{EX}s0")),
            (("o", f"{EX}o2"), ("s", f"{EX}s2")),
        ]

    @pytest.mark.parametrize("engine", ["planner", "naive"])
    def test_values_after_patterns_joins_identically(self, engine):
        before = QueryEvaluator(_graph(), engine=engine).evaluate(
            parse_query(
                "PREFIX ex: <http://ex.org/>\n"
                "SELECT ?s ?o WHERE { VALUES ?s { ex:s2 } ?s ex:p ?o }"
            )
        )
        after = QueryEvaluator(_graph(), engine=engine).evaluate(
            parse_query(
                "PREFIX ex: <http://ex.org/>\n"
                "SELECT ?s ?o WHERE { ?s ex:p ?o VALUES ?s { ex:s2 } }"
            )
        )
        assert _rows(before) == _rows(after)

    @pytest.mark.parametrize("engine", ["planner", "naive"])
    def test_values_with_filter(self, engine):
        result = QueryEvaluator(_graph(), engine=engine).evaluate(
            parse_query(
                "PREFIX ex: <http://ex.org/>\n"
                "SELECT ?s ?n WHERE {"
                " VALUES ?s { ex:s1 ex:s2 ex:s4 }"
                " ?s ex:size ?n FILTER (?n >= 2) }"
            )
        )
        assert [b.get_term("n").lexical for b in result] is not None
        assert {str(b.get_term("s")) for b in result} == {f"{EX}s2", f"{EX}s4"}

    @pytest.mark.parametrize("engine", ["planner", "naive"])
    def test_empty_table_produces_no_solutions(self, engine):
        result = QueryEvaluator(_graph(), engine=engine).evaluate(
            parse_query(
                "PREFIX ex: <http://ex.org/>\n"
                "SELECT ?s WHERE { VALUES ?s { } ?s ex:p ?o }"
            )
        )
        assert len(result) == 0

    def test_engines_agree_on_values_queries(self):
        graph = _graph(8)
        queries = [
            "PREFIX ex: <http://ex.org/>\nSELECT * WHERE { VALUES ?s { ex:s1 ex:s5 } ?s ex:p ?o }",
            "PREFIX ex: <http://ex.org/>\nSELECT DISTINCT ?o WHERE { VALUES (?s) { (ex:s1) (ex:s1) } ?s ex:p ?o }",
            "PREFIX ex: <http://ex.org/>\nSELECT ?s ?n WHERE { VALUES ?n { 1 3 } ?s ex:size ?n } ORDER BY ?s",
        ]
        for text in queries:
            planned = QueryEvaluator(graph, engine="planner").evaluate(parse_query(text))
            naive = QueryEvaluator(graph, engine="naive").evaluate(parse_query(text))
            assert _rows(planned) == _rows(naive), text


class TestReadsDoNotWriteTheStore:
    """VALUES terms the store has never seen get query-local ids: compiling
    and running a read leaves the persisted term dictionary untouched."""

    SELECT = (
        "PREFIX ex: <http://ex.org/>\n"
        "SELECT ?s ?o WHERE { VALUES ?s { ex:s0 ex:unseen1 ex:unseen2 } "
        "OPTIONAL { ?s ex:p ?o } }"
    )
    ASK = "PREFIX ex: <http://ex.org/>\nASK { VALUES ?s { ex:unseen1 } ?s ex:p ?o }"

    @pytest.mark.parametrize("engine", ["planner", "naive"])
    def test_unseen_values_terms_are_not_persisted(self, engine, tmp_path):
        graph = Graph(store=SegmentStore(tmp_path / "store"))
        graph.add_all(_graph(3))
        graph.flush()
        log = tmp_path / "store" / "terms.jsonl"
        logged = log.read_bytes()
        known_terms = len(graph.dictionary.terms)
        evaluator = QueryEvaluator(graph, engine=engine)

        result = evaluator.select(self.SELECT)
        assert {(row["s"], row.get_term(Variable("o"))) for row in result} == {
            (URIRef(EX + "s0"), URIRef(EX + "o0")),
            (URIRef(EX + "unseen1"), None),
            (URIRef(EX + "unseen2"), None),
        }
        assert not evaluator.evaluate(self.ASK)
        for text in (self.SELECT, self.ASK):
            assert "Table (?s)" in evaluator.explain(text)
        analyzed, event = evaluator.analyze(self.SELECT)
        assert URIRef(EX + "unseen2") in {row["s"] for row in analyzed}
        assert event.rows == 3
        _, event = evaluator.analyze(self.ASK)
        assert event.rows == 0

        assert log.read_bytes() == logged
        assert len(graph.dictionary.terms) == known_terms
        graph.close()
