"""Cost-based query planning onto the batched executor.

The naive engine (:func:`repro.sparql.exec.compile_naive_query`) follows
the query's group structure: elements in written order, FILTERs at the end
of their group.  This module plans instead.  :class:`QueryPlanner` compiles
the :class:`~repro.sparql.algebra.AlgebraNode` tree of a query straight
into the batched operators of :mod:`repro.sparql.exec`, deciding

* the scan order of every BGP, greedily by cardinality estimates drawn
  from the graph's incrementally maintained statistics
  (:class:`CardinalityEstimator`, :func:`order_patterns`),
* hash join versus correlated bind join for every join, from the static
  certain/possible variable analysis (:func:`certain_variables`,
  :func:`possible_variables`) and the estimates,
* where each FILTER runs: at the earliest operator at which every variable
  of the expression is *certainly* bound (the point from which its verdict
  can no longer change), otherwise at its original position.

The resulting operator tree is what executes and what ``EXPLAIN`` renders
(:meth:`repro.sparql.exec.ExecPlan.explain`).  Planned execution is
solution-equivalent to the naive and reference engines: the conformance
corpus and the hypothesis differential test pin this down.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..rdf import BNode, Triple, Variable
from .algebra import (
    AlgebraBGP,
    AlgebraDistinct,
    AlgebraFilter,
    AlgebraJoin,
    AlgebraLeftJoin,
    AlgebraNode,
    AlgebraOrderBy,
    AlgebraProject,
    AlgebraSlice,
    AlgebraTable,
    AlgebraUnion,
    translate_group,
    translate_query,
)
from .ast import AskQuery, Expression, Query
from .evaluator import bnode_anchor
from .exec import (
    ExecContext,
    Schema,
    VecBGPOp,
    VecBindJoinOp,
    VecDistinctOp,
    VecFilterOp,
    VecHashJoinOp,
    VecLeftJoinOp,
    VecOperator,
    VecOrderByOp,
    VecProjectOp,
    VecSliceOp,
    VecTableOp,
    VecUnionOp,
    _fresh_ord,
    _VecStep,
)

__all__ = [
    "CardinalityEstimator",
    "QueryPlanner",
    "order_patterns",
]

#: Hash joins build a table from the full right-hand result; beyond this
#: many estimated build rows the correlated bind-join (which exploits the
#: left bindings as index lookups) is preferred.
_HASH_BUILD_CEILING = 250_000.0


def _binding_variables(pattern: Triple) -> set[Variable]:
    """The variables a scan of ``pattern`` binds (incl. blank-node anchors)."""
    result: set[Variable] = set()
    for term in pattern:
        if isinstance(term, Variable):
            result.add(term)
        elif isinstance(term, BNode):
            result.add(bnode_anchor(term))
    return result


def _pattern_text(pattern: Triple) -> str:
    """Deterministic tie-break key for pattern ordering."""
    return " ".join(term.n3() for term in pattern)


# --------------------------------------------------------------------------- #
# Cardinality estimation
# --------------------------------------------------------------------------- #
class CardinalityEstimator:
    """Estimate how many solutions a triple pattern contributes.

    For patterns whose only free positions are plain wildcards the estimate
    is the *exact* matching-triple count, answered in O(1) from the graph's
    incremental statistics.  A position held by an already-bound variable
    cannot be resolved at plan time, so its average bucket size is used:
    the wildcard count divided by the number of distinct terms in that
    position.
    """

    def __init__(self, graph) -> None:
        self._graph = graph
        self._cardinality = getattr(graph, "cardinality", None)
        self._stats = getattr(graph, "stats", None)

    def pattern_estimate(self, pattern: Triple, bound: set[Variable]) -> float:
        lookup: list[Triple | None] = []
        bound_positions: list[int] = []
        for index, term in enumerate(pattern):
            if isinstance(term, (Variable, BNode)):
                anchor = term if isinstance(term, Variable) else bnode_anchor(term)
                if anchor in bound:
                    bound_positions.append(index)
                lookup.append(None)
            else:
                lookup.append(term)

        if self._cardinality is None:
            # Graph without statistics: fall back to the classic
            # bound-position selectivity heuristic.
            ground = sum(1 for term in lookup if term is not None) + len(bound_positions)
            return float(len(self._graph)) / (10.0 ** ground)

        estimate = float(self._cardinality(lookup[0], lookup[1], lookup[2]))
        if estimate == 0.0 or self._stats is None:
            return estimate
        distinct = (
            self._stats.distinct_subjects,
            self._stats.distinct_predicates,
            self._stats.distinct_objects,
        )
        for index in bound_positions:
            estimate /= max(1, distinct[index])
        return estimate


def order_patterns(
    patterns: Sequence[Triple],
    bound: set[Variable],
    estimator: CardinalityEstimator,
) -> list[Triple]:
    """Greedy, deterministic join order for the patterns of one BGP.

    Repeatedly pick the cheapest pattern (lowest cardinality estimate under
    the variables bound so far, ties broken by the pattern's serialised
    text), preferring patterns connected to already-bound variables so the
    chain never degenerates into an avoidable cross product.
    """
    remaining = list(patterns)
    ordered: list[Triple] = []
    seen_vars = set(bound)
    while remaining:
        connected = [
            pattern for pattern in remaining
            if not _binding_variables(pattern) or _binding_variables(pattern) & seen_vars
        ]
        candidates = connected if connected and seen_vars else remaining

        def sort_key(pattern: Triple) -> tuple[float, str]:
            return (estimator.pattern_estimate(pattern, seen_vars), _pattern_text(pattern))

        best = min(candidates, key=sort_key)
        remaining.remove(best)
        ordered.append(best)
        seen_vars |= _binding_variables(best)
    return ordered


# --------------------------------------------------------------------------- #
# Static variable analysis (certain vs. possible bindings)
# --------------------------------------------------------------------------- #
def certain_variables(node: AlgebraNode) -> set[Variable]:
    """Variables bound in *every* solution the node can produce."""
    if isinstance(node, AlgebraBGP):
        result: set[Variable] = set()
        for pattern in node.patterns:
            result |= _binding_variables(pattern)
        return result
    if isinstance(node, AlgebraTable):
        # A variable is certainly bound when no row leaves it UNDEF (an
        # empty table produces no solutions, so the claim is vacuous).
        return {
            variable
            for index, variable in enumerate(node.columns)
            if all(row[index] is not None for row in node.rows)
        }
    if isinstance(node, AlgebraJoin):
        return certain_variables(node.left) | certain_variables(node.right)
    if isinstance(node, AlgebraLeftJoin):
        return certain_variables(node.left)
    if isinstance(node, AlgebraUnion):
        return certain_variables(node.left) & certain_variables(node.right)
    if isinstance(node, AlgebraFilter):
        return certain_variables(node.child)
    if isinstance(node, AlgebraProject):
        return certain_variables(node.child) & set(node.projection)
    if isinstance(node, (AlgebraDistinct, AlgebraOrderBy, AlgebraSlice)):
        return certain_variables(node.children()[0])
    return set()


def possible_variables(node: AlgebraNode) -> set[Variable]:
    """Variables bound in *some* solution the node can produce."""
    if isinstance(node, AlgebraBGP):
        return certain_variables(node)
    if isinstance(node, AlgebraTable):
        return set(node.columns)
    if isinstance(node, (AlgebraJoin, AlgebraLeftJoin, AlgebraUnion)):
        return possible_variables(node.left) | possible_variables(node.right)
    if isinstance(node, AlgebraFilter):
        return possible_variables(node.child)
    if isinstance(node, AlgebraProject):
        return possible_variables(node.child) & set(node.projection)
    if isinstance(node, (AlgebraDistinct, AlgebraOrderBy, AlgebraSlice)):
        return possible_variables(node.children()[0])
    return set()


# --------------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------------- #
#: ``_compile`` result: the operator, its planning estimate, and the
#: variables certainly / possibly bound in its output.
_Compiled = tuple[VecOperator, float, frozenset, frozenset]


def _filtered(
    ctx: ExecContext, op: VecOperator, est: float, expressions: list[Expression]
) -> tuple[VecOperator, float]:
    """``op`` under a FILTER of ``expressions``, with the filtered estimate."""
    return VecFilterOp(ctx, op, expressions), est * (0.5 ** len(expressions))


class QueryPlanner:
    """Compile algebra trees into batched operator trees for one graph.

    Every compile step threads the schema of its input rows (the columns
    the operator receives) beside the certain/possible variable sets, and
    returns a *planning estimate* beside the operator.  It equals the
    operator's displayed ``est`` except at and above an OPTIONAL: the tree
    runs it as a bind join into a left join (displayed ``left x right``),
    while join choices count it as the left side's rows, since every left
    row survives at least once.
    """

    def __init__(self, ctx: ExecContext) -> None:
        self._ctx = ctx
        self._estimator = CardinalityEstimator(ctx.graph)
        self._ords = [0]

    def plan(self, query: Query) -> VecOperator:
        """Plan a full query (WHERE clause plus solution modifiers)."""
        if isinstance(query, AskQuery):
            # ASK ignores solution modifiers; plan the pattern only so the
            # executor can stop at the first solution.
            node = translate_group(query.where)
        else:
            node = translate_query(query)
        root, _, _, _ = self._compile(self._coalesce(node), (), frozenset(), frozenset(), [])
        return root

    # -- algebra normalisation ---------------------------------------------- #
    @staticmethod
    def _coalesce(node: AlgebraNode) -> AlgebraNode:
        """Fuse Join(BGP, BGP) into one BGP so ordering sees all patterns."""

        def fuse(candidate: AlgebraNode) -> AlgebraNode | None:
            if (
                isinstance(candidate, AlgebraJoin)
                and isinstance(candidate.left, AlgebraBGP)
                and isinstance(candidate.right, AlgebraBGP)
            ):
                return AlgebraBGP(list(candidate.left.patterns) + list(candidate.right.patterns))
            return None

        return node.transform(fuse)

    # -- recursive compilation ---------------------------------------------- #
    def _compile(
        self,
        node: AlgebraNode,
        schema: Schema,
        certain: frozenset,
        possible: frozenset,
        pending: list[Expression],
    ) -> _Compiled:
        """Compile ``node`` given the input rows' schema and variables.

        ``schema`` is the column layout of the rows the operator receives;
        ``certain``/``possible`` describe which variables they bind;
        ``pending`` are FILTER expressions scoped to this subtree that are
        guaranteed to have been applied by the time the returned
        operator's output emerges.
        """
        ctx = self._ctx
        if isinstance(node, AlgebraFilter):
            return self._compile(node.child, schema, certain, possible, pending + [node.expression])
        if isinstance(node, AlgebraBGP):
            return self._compile_bgp(node, schema, certain, possible, pending)
        if isinstance(node, AlgebraTable):
            op: VecOperator = VecTableOp(ctx, schema, node.columns, node.rows)
            est = op.est
            if pending:
                # FILTERs run at their original position, after the join
                # with the inline table.
                op, est = _filtered(ctx, op, est, pending)
            return (
                op,
                est,
                certain | frozenset(certain_variables(node)),
                possible | frozenset(node.columns),
            )
        if isinstance(node, AlgebraJoin):
            return self._compile_join(node, schema, certain, possible, pending)
        if isinstance(node, AlgebraLeftJoin):
            return self._compile_leftjoin(node, schema, certain, possible, pending)
        if isinstance(node, AlgebraUnion):
            ord_var = _fresh_ord(self._ords)
            branches = [
                self._compile(child, schema + (ord_var,), certain, possible, list(pending))
                for child in (node.left, node.right)
            ]
            return (
                VecUnionOp(ctx, schema, [branch[0] for branch in branches], ord_var),
                sum(max(branch[1], 0.0) for branch in branches),
                certain | (branches[0][2] & branches[1][2]),
                possible | branches[0][3] | branches[1][3],
            )
        if isinstance(node, AlgebraProject):
            child, est, c_out, p_out = self._compile(node.child, schema, certain, possible, pending)
            projection = frozenset(node.projection)
            return (
                VecProjectOp(ctx, child, node.projection),
                est,
                c_out & projection,
                p_out & projection,
            )
        if isinstance(node, AlgebraDistinct):
            child, est, c_out, p_out = self._compile(node.child, schema, certain, possible, pending)
            return VecDistinctOp(ctx, child), est, c_out, p_out
        if isinstance(node, AlgebraOrderBy):
            child, est, c_out, p_out = self._compile(node.child, schema, certain, possible, pending)
            return VecOrderByOp(ctx, child, node.conditions), est, c_out, p_out
        if isinstance(node, AlgebraSlice):
            child, est, c_out, p_out = self._compile(node.child, schema, certain, possible, pending)
            if node.limit is not None:
                est = min(est, float(node.limit))
            return VecSliceOp(ctx, child, node.offset, node.limit), est, c_out, p_out
        raise TypeError(f"cannot compile algebra node: {node!r}")

    def _compile_bgp(
        self,
        node: AlgebraBGP,
        schema: Schema,
        certain: frozenset,
        possible: frozenset,
        pending: list[Expression],
    ) -> _Compiled:
        ordered = order_patterns(node.patterns, set(certain), self._estimator)
        bound = set(certain)
        remaining = list(pending)
        steps: list[_VecStep] = []
        for pattern in ordered:
            est = self._estimator.pattern_estimate(pattern, bound)
            bound |= _binding_variables(pattern)
            attached: list[Expression] = []
            still_pending: list[Expression] = []
            for expr in remaining:
                if expr.variables() <= bound:
                    attached.append(expr)
                else:
                    still_pending.append(expr)
            remaining = still_pending
            steps.append(_VecStep(pattern, attached, est))
        # Whatever could not be pushed runs at the end of the chain — the
        # original FILTER position, so semantics are unchanged.
        op = VecBGPOp(self._ctx, schema, steps, remaining, adaptive=self._ctx.config.adaptive)
        bgp_vars = frozenset(bound) - certain
        return op, op.est, certain | bgp_vars, possible | bgp_vars

    def _compile_join(
        self,
        node: AlgebraJoin,
        schema: Schema,
        certain: frozenset,
        possible: frozenset,
        pending: list[Expression],
    ) -> _Compiled:
        ctx = self._ctx
        left_static_certain = certain_variables(node.left) | certain
        push_left = [expr for expr in pending if expr.variables() <= left_static_certain]
        rest = [expr for expr in pending if expr not in push_left]
        left_op, left_est, left_certain, left_possible = self._compile(
            node.left, schema, certain, possible, push_left
        )

        right_certain_static = frozenset(certain_variables(node.right))
        right_possible_static = frozenset(possible_variables(node.right))
        shared = left_possible & right_possible_static
        hash_safe = (
            bool(shared)
            and shared <= left_certain
            and shared <= right_certain_static
        )
        if hash_safe:
            # The build side runs against an empty input (that is what makes
            # the hash join safe), so it is planned against the empty schema.
            _, right_alone_est, _, _ = self._compile(
                node.right, (), frozenset(), frozenset(), []
            )
            hash_worthwhile = (
                left_est > 1.5
                and right_alone_est <= _HASH_BUILD_CEILING
                and right_alone_est <= max(10_000.0, left_est * 100.0)
            )
            if hash_worthwhile:
                push_right = [
                    expr for expr in rest if expr.variables() <= right_certain_static
                ]
                leftover = [expr for expr in rest if expr not in push_right]
                right_op, right_est, right_certain, right_possible = self._compile(
                    node.right, (), frozenset(), frozenset(), push_right
                )
                op: VecOperator = VecHashJoinOp(
                    ctx, left_op, right_op, sorted(shared, key=str)
                )
                est = max(left_est, 0.0) * max(right_est, 0.0) * 0.1
                if leftover:
                    op, est = _filtered(ctx, op, est, leftover)
                return (
                    op,
                    est,
                    left_certain | right_certain,
                    left_possible | right_possible,
                )

        right_op, right_est, right_certain, right_possible = self._compile(
            node.right, left_op.schema, left_certain, left_possible, rest
        )
        return (
            VecBindJoinOp(ctx, left_op, right_op),
            max(left_est, 0.0) * max(right_est, 0.0),
            right_certain,
            right_possible,
        )

    def _compile_leftjoin(
        self,
        node: AlgebraLeftJoin,
        schema: Schema,
        certain: frozenset,
        possible: frozenset,
        pending: list[Expression],
    ) -> _Compiled:
        ctx = self._ctx
        left_static_certain = certain_variables(node.left) | certain
        push_left = [expr for expr in pending if expr.variables() <= left_static_certain]
        rest = [expr for expr in pending if expr not in push_left]
        left_op, left_est, left_certain, left_possible = self._compile(
            node.left, schema, certain, possible, push_left
        )
        ord_var = _fresh_ord(self._ords)
        right_op, _, _, right_possible = self._compile(
            node.right, left_op.schema + (ord_var,), left_certain, left_possible, []
        )
        left_join = VecLeftJoinOp(ctx, left_op.schema, right_op, node.expression, ord_var)
        op: VecOperator = VecBindJoinOp(ctx, left_op, left_join)
        est = max(left_est, 1.0)
        if rest:
            # A FILTER above an OPTIONAL also constrains the unextended
            # fallback rows, so it cannot move below the left join.
            op, est = _filtered(ctx, op, est, rest)
        return op, est, left_certain, left_possible | right_possible
