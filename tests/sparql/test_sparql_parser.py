"""Unit tests for the SPARQL parser (query anatomy of Section 3.1)."""

import pytest

from repro.rdf import AKT, Literal, RDF, RKB_ID, URIRef, Variable, XSD
from repro.sparql import (
    AskQuery,
    BinaryExpression,
    ConstructQuery,
    FunctionCall,
    OptionalPattern,
    SelectQuery,
    SparqlParseError,
    UnaryExpression,
    UnionPattern,
    parse_query,
)

from ..conftest import FIGURE_1_QUERY


class TestFigure1Anatomy:
    """The exact query of Figure 1 decomposes as the paper describes."""

    def test_form_is_select_distinct(self):
        query = parse_query(FIGURE_1_QUERY)
        assert isinstance(query, SelectQuery)
        assert query.modifiers.distinct is True

    def test_result_form(self):
        query = parse_query(FIGURE_1_QUERY)
        assert query.projection == (Variable("a"),)

    def test_bgp_has_two_patterns(self):
        query = parse_query(FIGURE_1_QUERY)
        patterns = query.all_triple_patterns()
        assert len(patterns) == 2
        assert patterns[0].predicate == AKT["has-author"]
        assert patterns[0].object == RKB_ID["person-02686"]
        assert patterns[1].object == Variable("a")

    def test_filter_section(self):
        query = parse_query(FIGURE_1_QUERY)
        filters = list(query.filters())
        assert len(filters) == 1
        expression = filters[0].expression
        assert isinstance(expression, UnaryExpression)
        assert expression.operator == "!"

    def test_prologue_prefixes(self):
        query = parse_query(FIGURE_1_QUERY)
        assert query.prologue.namespace_manager.namespace("akt") == str(AKT)
        assert query.prologue.namespace_manager.namespace("id") == str(RKB_ID)


class TestSelectVariants:
    def test_select_star(self):
        query = parse_query("SELECT * WHERE { ?s ?p ?o }")
        assert query.select_all
        assert set(query.effective_projection()) == {Variable("s"), Variable("p"), Variable("o")}

    def test_select_multiple_variables(self):
        query = parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }")
        assert query.projection == (Variable("s"), Variable("o"))

    def test_missing_projection_raises(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT WHERE { ?s ?p ?o }")

    def test_where_keyword_optional(self):
        query = parse_query("SELECT ?s { ?s ?p ?o }")
        assert len(query.all_triple_patterns()) == 1

    def test_reduced_modifier(self):
        query = parse_query("SELECT REDUCED ?s WHERE { ?s ?p ?o }")
        assert query.modifiers.reduced

    def test_limit_offset_order(self):
        query = parse_query(
            "SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s) LIMIT 10 OFFSET 5"
        )
        assert query.modifiers.limit == 10
        assert query.modifiers.offset == 5
        assert query.modifiers.order_by[0].descending is True

    def test_order_by_plain_variable(self):
        query = parse_query("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s")
        assert len(query.modifiers.order_by) == 1
        assert not query.modifiers.order_by[0].descending


class TestOtherForms:
    def test_ask(self):
        query = parse_query("ASK { <http://ex.org/s> <http://ex.org/p> ?o }")
        assert isinstance(query, AskQuery)

    def test_construct(self):
        query = parse_query("""
            PREFIX ex: <http://ex.org/>
            CONSTRUCT { ?s ex:copied ?o } WHERE { ?s ex:original ?o }
        """)
        assert isinstance(query, ConstructQuery)
        assert len(query.template) == 1
        assert query.template[0].predicate == URIRef("http://ex.org/copied")

    def test_unknown_form_raises(self):
        with pytest.raises(SparqlParseError):
            parse_query("DESCRIBE <http://ex.org/x>")


class TestTriplePatternSyntax:
    def test_a_keyword(self):
        query = parse_query("SELECT ?s WHERE { ?s a <http://ex.org/C> }")
        assert query.all_triple_patterns()[0].predicate == RDF.type

    def test_semicolon_and_comma(self):
        query = parse_query("""
            PREFIX ex: <http://ex.org/>
            SELECT ?s WHERE { ?s ex:p ex:a ; ex:q ex:b , ex:c . }
        """)
        assert len(query.all_triple_patterns()) == 3

    def test_numeric_and_boolean_objects(self):
        query = parse_query("""
            PREFIX ex: <http://ex.org/>
            SELECT ?s WHERE { ?s ex:i 42 ; ex:d 4.5 ; ex:b true . }
        """)
        objects = [pattern.object for pattern in query.all_triple_patterns()]
        assert Literal("42", datatype=XSD.integer) in objects
        assert Literal("4.5", datatype=XSD.decimal) in objects
        assert Literal("true", datatype=XSD.boolean) in objects

    def test_typed_and_language_literals(self):
        query = parse_query("""
            PREFIX ex: <http://ex.org/>
            PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
            SELECT ?s WHERE { ?s ex:p "chat"@fr ; ex:q "5"^^xsd:integer . }
        """)
        objects = [pattern.object for pattern in query.all_triple_patterns()]
        assert Literal("chat", lang="fr") in objects
        assert Literal("5", datatype=XSD.integer) in objects

    def test_blank_node_property_list(self):
        query = parse_query("""
            PREFIX ex: <http://ex.org/>
            SELECT ?s WHERE { ?s ex:p [ ex:q ?v ] . }
        """)
        assert len(query.all_triple_patterns()) == 2

    def test_variable_predicate(self):
        query = parse_query("SELECT ?p WHERE { <http://ex.org/s> ?p ?o }")
        assert query.all_triple_patterns()[0].predicate == Variable("p")

    def test_undeclared_prefix_raises(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT ?s WHERE { ?s nope:p ?o }")

    def test_literal_subject_raises(self):
        with pytest.raises(SparqlParseError):
            parse_query('SELECT ?s WHERE { "x" <http://ex.org/p> ?o }')


class TestGroupPatterns:
    def test_optional(self):
        query = parse_query("""
            PREFIX ex: <http://ex.org/>
            SELECT ?s ?n WHERE { ?s ex:p ?o . OPTIONAL { ?s ex:name ?n } }
        """)
        elements = query.where.elements
        assert any(isinstance(element, OptionalPattern) for element in elements)
        assert len(query.all_triple_patterns()) == 2

    def test_union(self):
        query = parse_query("""
            PREFIX ex: <http://ex.org/>
            SELECT ?x WHERE { { ?x a ex:A } UNION { ?x a ex:B } }
        """)
        unions = [element for element in query.where.elements if isinstance(element, UnionPattern)]
        assert len(unions) == 1
        assert len(unions[0].alternatives) == 2

    def test_three_way_union(self):
        query = parse_query("""
            PREFIX ex: <http://ex.org/>
            SELECT ?x WHERE { { ?x a ex:A } UNION { ?x a ex:B } UNION { ?x a ex:C } }
        """)
        unions = [element for element in query.where.elements if isinstance(element, UnionPattern)]
        assert len(unions[0].alternatives) == 3

    def test_nested_group(self):
        query = parse_query("""
            PREFIX ex: <http://ex.org/>
            SELECT ?x WHERE { { ?x ex:p ?y . } ?y ex:q ?z . }
        """)
        assert len(query.all_triple_patterns()) == 2

    def test_filter_variants(self):
        query = parse_query("""
            PREFIX ex: <http://ex.org/>
            SELECT ?x WHERE {
              ?x ex:p ?y .
              FILTER (?y > 3 && ?y < 10)
              FILTER REGEX(?x, "person")
            }
        """)
        filters = list(query.filters())
        assert len(filters) == 2
        assert isinstance(filters[0].expression, BinaryExpression)
        assert isinstance(filters[1].expression, FunctionCall)

    def test_unbalanced_braces_raise(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT ?x WHERE { ?x ?p ?o ")

    def test_trailing_garbage_raises(self):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT ?x WHERE { ?x ?p ?o } garbage")
