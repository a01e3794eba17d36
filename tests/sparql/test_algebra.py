"""Unit tests for the SPARQL algebra translation."""

from dataclasses import replace

from repro.rdf import Graph, Literal, Triple, URIRef, Variable
from repro.sparql import (
    AlgebraBGP,
    AlgebraDistinct,
    AlgebraFilter,
    AlgebraJoin,
    AlgebraLeftJoin,
    AlgebraProject,
    AlgebraSlice,
    AlgebraUnion,
    QueryEvaluator,
    algebra_to_group,
    parse_query,
    to_sexpr,
    translate_group,
    translate_query,
)

from ..conftest import FIGURE_1_QUERY

EX = "PREFIX ex: <http://ex.org/>\n"


def pattern_algebra(text: str):
    return translate_group(parse_query(text).where)


class TestTranslation:
    def test_figure1_tree_shape(self):
        node = translate_query(parse_query(FIGURE_1_QUERY))
        # distinct(project(filter(bgp)))
        assert isinstance(node, AlgebraDistinct)
        project = node.child
        assert isinstance(project, AlgebraProject)
        assert project.projection == [Variable("a")]
        filter_node = project.child
        assert isinstance(filter_node, AlgebraFilter)
        assert isinstance(filter_node.child, AlgebraBGP)
        assert len(filter_node.child.patterns) == 2

    def test_filter_scopes_over_group(self):
        node = pattern_algebra(EX + """
            SELECT ?x WHERE { ?x ex:p ?y . FILTER (?y > 3) ?x ex:q ?z . }
        """)
        assert isinstance(node, AlgebraFilter)

    def test_optional_becomes_left_join(self):
        node = pattern_algebra(EX + """
            SELECT ?x WHERE { ?x ex:p ?y . OPTIONAL { ?x ex:q ?z } }
        """)
        assert isinstance(node, AlgebraLeftJoin)
        assert isinstance(node.left, AlgebraBGP)
        assert isinstance(node.right, AlgebraBGP)

    def test_optional_filter_attached_to_left_join(self):
        node = pattern_algebra(EX + """
            SELECT ?x WHERE { ?x ex:p ?y . OPTIONAL { ?x ex:q ?z . FILTER (?z > 1) } }
        """)
        assert isinstance(node, AlgebraLeftJoin)
        assert node.expression is not None

    def test_union(self):
        node = pattern_algebra(EX + "SELECT ?x WHERE { { ?x a ex:A } UNION { ?x a ex:B } }")
        assert isinstance(node, AlgebraUnion)

    def test_nested_groups_join(self):
        node = pattern_algebra(EX + "SELECT ?x WHERE { { ?x ex:p ?y } ?y ex:q ?z }")
        assert isinstance(node, AlgebraJoin)

    def test_slice_and_modifiers(self):
        node = translate_query(parse_query(EX + "SELECT ?x WHERE { ?x ex:p ?y } LIMIT 5 OFFSET 2"))
        assert isinstance(node, AlgebraSlice)
        assert node.limit == 5
        assert node.offset == 2

    def test_variables_collected(self):
        node = pattern_algebra(EX + "SELECT * WHERE { ?x ex:p ?y . FILTER (?z > 1) }")
        assert node.variables() == {Variable("x"), Variable("y"), Variable("z")}


class TestBackTranslation:
    def test_algebra_to_group_roundtrip_semantics(self):
        graph = Graph()
        ex = "http://ex.org/"
        graph.add(Triple(URIRef(ex + "a"), URIRef(ex + "p"), Literal(5)))
        graph.add(Triple(URIRef(ex + "a"), URIRef(ex + "q"), Literal("x")))
        graph.add(Triple(URIRef(ex + "b"), URIRef(ex + "p"), Literal(50)))
        evaluator = QueryEvaluator(graph)

        query = parse_query(EX + """
            SELECT ?s WHERE { ?s ex:p ?v . OPTIONAL { ?s ex:q ?w } FILTER (?v < 10) }
        """)
        original_rows = evaluator.select(query).to_dicts()

        rebuilt = parse_query(EX + "SELECT ?s WHERE { ?s ex:p ?v }")
        rebuilt = replace(rebuilt, where=algebra_to_group(translate_group(query.where)))
        rebuilt_rows = evaluator.select(rebuilt).to_dicts()
        assert original_rows == rebuilt_rows

    def test_union_survives_roundtrip(self):
        query = parse_query(EX + "SELECT ?x WHERE { { ?x a ex:A } UNION { ?x a ex:B } }")
        group = algebra_to_group(translate_group(query.where))
        assert len(list(group.triples_blocks())) == 2


class TestTraversal:
    def test_walk_visits_every_node(self):
        node = translate_query(parse_query(FIGURE_1_QUERY))
        kinds = [type(n).__name__ for n in node.walk()]
        assert "AlgebraBGP" in kinds
        assert "AlgebraFilter" in kinds
        assert kinds[0] == "AlgebraDistinct"

    def test_transform_rewrites_bgp_leaves(self):
        node = translate_query(parse_query(FIGURE_1_QUERY))

        def drop_patterns(current):
            if isinstance(current, AlgebraBGP):
                return AlgebraBGP([])
            return None

        transformed = node.transform(drop_patterns)
        bgps = [n for n in transformed.walk() if isinstance(n, AlgebraBGP)]
        assert all(not bgp.patterns for bgp in bgps)
        # The original tree is untouched.
        original_bgps = [n for n in node.walk() if isinstance(n, AlgebraBGP)]
        assert any(bgp.patterns for bgp in original_bgps)

    def test_sexpr_rendering(self):
        node = translate_query(parse_query(FIGURE_1_QUERY))
        text = to_sexpr(node)
        assert text.startswith("(distinct")
        assert "(bgp" in text
        assert "(filter" in text
