"""Unit tests for the algebra-level rewriter (the Section 4 proposal)."""

from repro.core import AlgebraQueryRewriter, FreshVariableGenerator, QueryRewriter
from repro.rdf import KISTI, KISTI_ID, Variable
from repro.sparql import (
    AlgebraBGP,
    AlgebraFilter,
    parse_query,
    translate_group,
)

from ..conftest import FIGURE_1_QUERY, FIGURE_6_QUERY, KISTI_PERSON_URI, KISTI_URI_PATTERN


def make_rewriter(figure2_alignment, registry, sameas_service=None):
    return AlgebraQueryRewriter(
        [figure2_alignment], registry,
        sameas_service=sameas_service,
        target_uri_pattern=KISTI_URI_PATTERN if sameas_service is not None else None,
        extra_prefixes={"kisti": str(KISTI), "kid": str(KISTI_ID)},
    )


class TestAlgebraRewriting:
    def test_bgp_leaves_rewritten(self, figure2_alignment, registry):
        rewriter = make_rewriter(figure2_alignment, registry)
        algebra = translate_group(parse_query(FIGURE_1_QUERY).where)
        rewritten, report = rewriter.rewrite_algebra(
            algebra, FreshVariableGenerator([Variable("paper"), Variable("a")])
        )
        bgps = [node for node in rewritten.walk() if isinstance(node, AlgebraBGP)]
        assert sum(len(bgp.patterns) for bgp in bgps) == 4
        assert report.matched_count == 2

    def test_filter_expressions_translated(self, figure2_alignment, registry, sameas_service):
        rewriter = make_rewriter(figure2_alignment, registry, sameas_service)
        algebra = translate_group(parse_query(FIGURE_1_QUERY).where)
        rewritten, _ = rewriter.rewrite_algebra(algebra, FreshVariableGenerator())
        filters = [node for node in rewritten.walk() if isinstance(node, AlgebraFilter)]
        assert len(filters) == 1

    def test_query_level_rewrite_matches_bgp_rewriter_on_figure1(
        self, figure2_alignment, registry, sameas_service
    ):
        """On a BGP-only query both engines produce the same pattern set."""
        algebra_rewriter = make_rewriter(figure2_alignment, registry, sameas_service)
        bgp_rewriter = QueryRewriter([figure2_alignment], registry)

        query = parse_query(FIGURE_1_QUERY)
        via_algebra, _ = algebra_rewriter.rewrite(query)
        via_bgp, _ = bgp_rewriter.rewrite(query)

        algebra_predicates = sorted(str(p.predicate) for p in via_algebra.all_triple_patterns())
        bgp_predicates = sorted(str(p.predicate) for p in via_bgp.all_triple_patterns())
        assert algebra_predicates == bgp_predicates

    def test_figure6_constraint_translated_at_algebra_level(
        self, figure2_alignment, registry, sameas_service
    ):
        rewriter = make_rewriter(figure2_alignment, registry, sameas_service)
        rewritten, _ = rewriter.rewrite(parse_query(FIGURE_6_QUERY))
        text = rewritten.serialize()
        assert str(KISTI_PERSON_URI) in text or "PER_00000000000105047" in text

    def test_result_form_preserved(self, figure2_alignment, registry, sameas_service):
        rewriter = make_rewriter(figure2_alignment, registry, sameas_service)
        rewritten, _ = rewriter.rewrite(parse_query(FIGURE_1_QUERY))
        assert rewritten.projection == (Variable("a"),)
        assert rewritten.modifiers.distinct

    def test_input_not_mutated(self, figure2_alignment, registry, sameas_service):
        query = parse_query(FIGURE_1_QUERY)
        before = query.serialize()
        make_rewriter(figure2_alignment, registry, sameas_service).rewrite(query)
        assert query.serialize() == before
