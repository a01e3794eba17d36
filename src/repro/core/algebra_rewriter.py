"""Rewriting on the SPARQL algebra representation.

Section 4 proposes adapting the approach "to the SPARQL algebra [8] that
offers the advantage of an homogeneous representation of the whole query
(LISP like structures)".  :class:`AlgebraQueryRewriter` implements that
direction: the query is translated into the algebra operator tree, BGP
leaves are rewritten with the same Algorithm-1 engine, FILTER operator
expressions are translated into the target URI space, and the tree is
converted back into an executable/serialisable query.

Functionally this produces the same result as
:class:`repro.core.filter_rewriter.FilterAwareQueryRewriter`; the value of
the algebra route is uniformity — a single bottom-up transform visits both
graph patterns and constraints — which is what Experiment E7's ablation
compares.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from ..alignment import EntityAlignment, FunctionRegistry
from ..coreference import SameAsService
from ..sparql import (
    AlgebraBGP,
    AlgebraFilter,
    AlgebraNode,
    Query,
    algebra_to_group,
    translate_group,
)
from .filter_rewriter import translate_expression_terms
from .rewriter import (
    FreshVariableGenerator,
    GraphPatternRewriter,
    RewriteReport,
    extend_prologue,
)

__all__ = ["AlgebraQueryRewriter"]


class AlgebraQueryRewriter:
    """Rewrite queries through their algebra representation."""

    def __init__(
        self,
        alignments: Sequence[EntityAlignment],
        registry: FunctionRegistry,
        sameas_service: SameAsService | None = None,
        target_uri_pattern: str | None = None,
        extra_prefixes: dict[str, str] | None = None,
        strict: bool = False,
        use_index: bool = True,
    ) -> None:
        # ``alignments`` may be a plain sequence or a pre-built
        # ``CompiledRuleSet`` (the mediator shares one across modes).
        self._pattern_rewriter = GraphPatternRewriter(alignments, registry, strict, use_index)
        self._service = sameas_service
        self._target_uri_pattern = target_uri_pattern
        self._extra_prefixes = dict(extra_prefixes or {})

    # ------------------------------------------------------------------ #
    def rewrite_algebra(
        self, node: AlgebraNode, fresh: FreshVariableGenerator
    ) -> tuple[AlgebraNode, RewriteReport]:
        """Rewrite an algebra tree bottom-up; returns (new tree, report)."""
        reports: list[RewriteReport] = []

        def transform(current: AlgebraNode) -> AlgebraNode | None:
            if isinstance(current, AlgebraBGP):
                new_patterns, block_report = self._pattern_rewriter.rewrite_bgp(
                    current.patterns, fresh
                )
                reports.append(block_report)
                return AlgebraBGP(new_patterns)
            if isinstance(current, AlgebraFilter) and self._service is not None \
                    and self._target_uri_pattern is not None:
                translated = translate_expression_terms(
                    current.expression, self._service, self._target_uri_pattern
                )
                return AlgebraFilter(translated, current.child)
            return None

        rewritten = node.transform(transform)
        return rewritten, RewriteReport.concat(reports)

    def rewrite(self, query: Query) -> tuple[Query, RewriteReport]:
        """Rewrite a query via its algebra form.

        The WHERE clause is replaced by the group reconstructed from the
        rewritten pattern-level algebra; the result form and solution
        modifiers are kept from the original query.
        """
        fresh = FreshVariableGenerator(query.variables())
        new_algebra, report = self.rewrite_algebra(translate_group(query.where), fresh)
        rewritten = replace(
            query,
            prologue=extend_prologue(query.prologue, report, self._extra_prefixes),
            where=algebra_to_group(new_algebra),
        )
        return rewritten, report

    def rewrite_to_text(self, query: Query) -> str:
        rewritten, _report = self.rewrite(query)
        return rewritten.serialize()
