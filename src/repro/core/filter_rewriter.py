"""FILTER-aware query rewriting (the extension sketched in Section 4).

The paper's Algorithm 1 only sees the Basic Graph Pattern; constraints that
the query author chose to express in the FILTER section — Figure 6 shows
the co-author query written that way — are invisible to it, so instance
URIs referenced only in FILTERs are never translated into the target
dataset's URI space and the rewritten query silently returns nothing.

This module implements the two complementary remedies:

* **Constraint promotion** (:func:`promote_equality_constraints`): positive
  ``?var = <ground>`` conjuncts found in FILTER expressions are applied as
  substitutions to the BGP before rewriting, so the ground value becomes
  visible to the alignments' functional dependencies.  The FILTER itself is
  retained (promotion never changes the query's solution set — it only
  specialises patterns with information the FILTER already enforces).
* **FILTER term translation** (:class:`FilterAwareQueryRewriter`): after the
  standard BGP rewriting, ground URIs appearing inside FILTER expressions
  are mapped to their target-dataset equivalents through the same
  co-reference service used by the ``sameas`` functional dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Sequence

from ..alignment import EntityAlignment, FunctionRegistry
from ..coreference import SameAsService
from ..rdf import Literal, Term, URIRef, Variable
from ..sparql import (BinaryExpression, Expression, Filter, PatternElement, Query,
                      TermExpression, TriplesBlock, VariableExpression, rebuild_group)
from .rewriter import QueryRewriter, RewriteReport

__all__ = [
    "EqualityConstraint",
    "extract_equality_constraints",
    "promote_equality_constraints",
    "translate_expression_terms",
    "FilterAwareQueryRewriter",
]


@dataclass(frozen=True)
class EqualityConstraint:
    """A positive ``?variable = ground-term`` constraint found in a FILTER."""

    variable: Variable
    term: Term


def extract_equality_constraints(expression: Expression) -> list[EqualityConstraint]:
    """Collect ``?v = ground`` constraints that hold in every solution.

    Only *positive conjunctive* positions are considered: conjuncts of
    ``&&`` chains and the expression itself.  Constraints under negation,
    disjunction or comparison operators are ignored because they do not
    necessarily hold for every solution.
    """
    constraints: list[EqualityConstraint] = []
    for conjunct in _conjuncts(expression):
        constraint = _as_equality(conjunct)
        if constraint is not None:
            constraints.append(constraint)
    return constraints


def _conjuncts(expression: Expression) -> list[Expression]:
    if isinstance(expression, BinaryExpression) and expression.operator == "&&":
        return _conjuncts(expression.left) + _conjuncts(expression.right)
    return [expression]


def _as_equality(expression: Expression) -> EqualityConstraint | None:
    if not isinstance(expression, BinaryExpression) or expression.operator != "=":
        return None
    left, right = expression.left, expression.right
    variable = _expression_variable(left)
    term = _expression_ground_term(right)
    if variable is None or term is None:
        variable = _expression_variable(right)
        term = _expression_ground_term(left)
    if variable is None or term is None:
        return None
    return EqualityConstraint(variable, term)


def _expression_variable(expression: Expression) -> Variable | None:
    if isinstance(expression, VariableExpression):
        return expression.variable
    if isinstance(expression, TermExpression) and isinstance(expression.term, Variable):
        return expression.term
    return None


def _expression_ground_term(expression: Expression) -> Term | None:
    if isinstance(expression, TermExpression) and isinstance(expression.term, (URIRef, Literal)):
        return expression.term
    return None


def promote_equality_constraints(query: Query) -> tuple[Query, list[EqualityConstraint]]:
    """Return ``query`` with FILTER equalities folded into the BGPs.

    For every triple pattern mentioning a constrained variable, a
    *specialised copy* with the variable replaced by the ground term is
    appended to the same triples block.  The original pattern and the FILTER
    are kept, so the solution set is unchanged (the added pattern is implied
    by the FILTER); the specialised copy simply exposes the ground value to
    the rewriting algorithm — in particular to ``sameas`` functional
    dependencies that only fire on ground URIs.  A query without such
    constraints is returned as it is.
    """
    constraints: list[EqualityConstraint] = []
    for filter_element in query.filters():
        constraints.extend(extract_equality_constraints(filter_element.expression))
    if not constraints:
        return query, []

    replacement: dict[Variable, Term] = {}
    for constraint in constraints:
        # The first constraint on a variable wins; contradictory constraints
        # would make the query unsatisfiable anyway.
        replacement.setdefault(constraint.variable, constraint.term)

    def substitute(term: Term) -> Term:
        if isinstance(term, Variable):
            return replacement.get(term, term)
        return term

    def specialise(element: PatternElement) -> PatternElement:
        if not isinstance(element, TriplesBlock):
            return element
        specialised = []
        for pattern in element.patterns:
            copy = pattern.map_terms(substitute)
            if copy != pattern and copy not in element.patterns and copy not in specialised:
                specialised.append(copy)
        return replace(element, patterns=element.patterns + tuple(specialised))

    return replace(query, where=rebuild_group(query.where, specialise)), constraints


def translate_expression_terms(
    expression: Expression,
    service: SameAsService,
    target_uri_pattern: str,
) -> Expression:
    """Rewrite ground URIs inside a FILTER expression into the target URI space.

    Every :class:`URIRef` constant is looked up in the co-reference service
    and replaced by its equivalent matching ``target_uri_pattern`` (URIs
    with no equivalent are kept, which preserves the original — possibly
    unsatisfiable — semantics rather than inventing data).
    """

    def translate(term: Term) -> Term:
        if isinstance(term, URIRef):
            return service.translate_or_keep(term, target_uri_pattern)
        return term

    return expression.map_terms(translate)


class FilterAwareQueryRewriter:
    """Query rewriter that also handles FILTER-expressed constraints.

    The pipeline is: promote FILTER equalities into the BGP, run the
    standard Algorithm-1 rewriting, then translate ground URIs remaining in
    FILTER expressions into the target dataset's URI space.  Used by
    Experiment E7 to show the Figure 6 query succeeding where the BGP-only
    rewriter fails.
    """

    def __init__(
        self,
        alignments: Sequence[EntityAlignment],
        registry: FunctionRegistry,
        sameas_service: SameAsService,
        target_uri_pattern: str,
        extra_prefixes: dict[str, str] | None = None,
        strict: bool = False,
        use_index: bool = True,
    ) -> None:
        # ``alignments`` may be a plain sequence or a pre-built
        # ``CompiledRuleSet`` (the mediator shares one across modes).
        self._base_rewriter = QueryRewriter(alignments, registry, strict, extra_prefixes,
                                            use_index)
        self._service = sameas_service
        self._target_uri_pattern = target_uri_pattern

    def rewrite(self, query: Query) -> tuple[Query, RewriteReport, list[EqualityConstraint]]:
        """Rewrite ``query``; returns (query, report, promoted constraints)."""
        promoted, constraints = promote_equality_constraints(query)
        rewritten, report = self._base_rewriter.rewrite(promoted)

        def translate(element: PatternElement) -> PatternElement:
            if not isinstance(element, Filter):
                return element
            return replace(element, expression=translate_expression_terms(
                element.expression, self._service, self._target_uri_pattern
            ))

        rewritten = replace(rewritten, where=rebuild_group(rewritten.where, translate))
        return rewritten, report, constraints

    def rewrite_to_text(self, query: Query) -> str:
        rewritten, _report, _constraints = self.rewrite(query)
        return rewritten.serialize()
