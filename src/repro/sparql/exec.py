"""Batched (vectorized) execution core shared by all three engines.

The naive evaluator, the cost-based planner and the federation decomposer
used to each stream one ``Binding`` (a dict) at a time; per-row dict
copies dominated join cost.  This module replaces all three execution
loops with **one** operator layer:

* solution rows are fixed-width tuples of integers — RDF terms are
  interned per graph by :class:`repro.rdf.TermDictionary`, and
  ``UNBOUND_ID`` (0) marks an unbound column,
* operators consume and produce :class:`Batch` objects (a schema of
  variables plus a list of row tuples), amortising per-operator overhead
  and making joins integer-tuple comparisons instead of dict merges,
* batches start small and grow (``4 -> 32 -> ... -> 2048`` rows), so a
  ``LIMIT``/``ASK`` query still terminates after a handful of index
  lookups while bulk queries run at full batch width,
* terms are only decoded back at the result boundary
  (:meth:`ExecPlan.bindings`) and inside expression evaluation, the one
  place that genuinely needs term values.

The three engines survive as *planners* over this executor:

* :func:`compile_planner_query` runs the cost-based
  :class:`~repro.sparql.plan.QueryPlanner` (estimator, join ordering,
  hash/bind join selection, filter pushdown), which emits these operators,
* :func:`compile_naive_query` compiles the AST group structure with the
  naive evaluator's semantics (element order, group-scoped filters,
  ``ordered_bgp_patterns`` scan order) onto the same operators,
* the federation decomposer builds its mediator-side join pipeline from
  these operators (see :mod:`repro.federation.decompose`).

**Adaptive join ordering**: a BGP scan chain tracks actual rows per step
against the planner's estimate.  When the estimate is off by a
configurable factor, the not-yet-started suffix of the chain is reordered
using cardinalities *sampled from actual rows* (bind the sampled values
into the remaining patterns and ask the graph), and the decision is
recorded for ``EXPLAIN ANALYZE``.

**EXPLAIN / EXPLAIN ANALYZE**: :meth:`ExecPlan.explain` renders the
operator tree that executes, with estimates.  Every operator also counts
rows/batches in and out and its (inclusive) wall time;
:meth:`ExecPlan.report` renders the tree with those numbers and
:meth:`ExecPlan.run_event` packages them as a structured per-query event
consumable by ``benchmarks/compare.py --events``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain as _iter_chain, islice
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from ..obs.export import RUN_EVENTS_ENV, SINK
from ..rdf import BNode, Term, TermDictionary, Triple, Variable
from .ast import AskQuery, Expression, OrderCondition, Query, SelectQuery
from .evaluator import (
    BNODE_ANCHOR_PREFIX,
    _orderable,
    bnode_anchor,
    ordered_bgp_patterns,
)
from .expressions import ExpressionError, evaluate_expression, expression_satisfied
from .results import Binding
from .serializer import serialize_expression

__all__ = [
    "UNBOUND",
    "Batch",
    "ExecConfig",
    "OpMetrics",
    "ExecContext",
    "VecOperator",
    "VecBGPOp",
    "VecTableOp",
    "VecBindJoinOp",
    "VecHashJoinOp",
    "VecLeftJoinOp",
    "VecUnionOp",
    "VecFilterOp",
    "VecProjectOp",
    "VecDistinctOp",
    "VecOrderByOp",
    "VecSliceOp",
    "VecAnalysisPruneOp",
    "ExecPlan",
    "QueryRunEvent",
    "compile_planner_query",
    "compile_naive_query",
    "compile_empty_query",
    "maybe_emit_event",
    "RUN_EVENTS_ENV",
]

#: Reserved row value for "this column is unbound" (same as
#: :data:`repro.rdf.UNBOUND_ID`; kept falsy for cheap hot-loop tests).
UNBOUND = 0

#: Name prefix of the synthetic ordinal columns used to correlate
#: OPTIONAL/UNION sub-plan output with its input rows.
_ORD_PREFIX = "__ord_"

Row = tuple[int, ...]
Schema = tuple[Variable, ...]


def _is_internal(variable: Variable) -> bool:
    """Internal columns (bnode anchors, ordinals) never reach results."""
    name = variable.name
    return name.startswith(BNODE_ANCHOR_PREFIX) or name.startswith(_ORD_PREFIX)


@lru_cache(maxsize=512)
def _external_columns(schema: Schema) -> tuple[tuple[int, Variable], ...]:
    """``(index, variable)`` pairs of the result-visible schema columns.

    Schemas are small interned tuples reused across every row of a query,
    so classifying their columns once keeps the per-row decode loop free
    of string-prefix checks.
    """
    return tuple(
        (index, variable)
        for index, variable in enumerate(schema)
        if not _is_internal(variable)
    )


class Batch:
    """A batch of solution rows: a schema plus fixed-width id tuples."""

    __slots__ = ("schema", "rows")

    def __init__(self, schema: Schema, rows: list[Row]) -> None:
        self.schema = schema
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = " ".join(f"?{v.name}" for v in self.schema)
        return f"<Batch ({names}) {len(self.rows)} rows>"


@dataclass(frozen=True)
class ExecConfig:
    """Tunables of the batched executor (see module docstring)."""

    #: First output batch size of a scan chain; kept tiny so ASK/LIMIT
    #: queries stop after a handful of lookups.
    initial_batch_rows: int = 4
    #: Batches grow by this factor up to :attr:`max_batch_rows`.
    batch_growth: int = 8
    max_batch_rows: int = 2048
    #: Adaptive join ordering on/off (planner engine only).
    adaptive: bool = True
    #: A step whose actual cardinality is off from its estimate by more
    #: than this factor triggers reordering of the remaining steps.
    misestimate_factor: float = 4.0
    #: Rows sampled (a) to observe a step's actual output and (b) to
    #: re-estimate the remaining patterns against actual bound values.
    sample_rows: int = 8


class OpMetrics:
    """Per-operator counters for EXPLAIN ANALYZE (inclusive wall time)."""

    __slots__ = ("rows_in", "rows_out", "batches_in", "batches_out", "seconds")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.rows_in = 0
        self.rows_out = 0
        self.batches_in = 0
        self.batches_out = 0
        self.seconds = 0.0


class ExecContext:
    """Shared execution state: the graph, its term dictionary, decisions.

    Terms a query mentions but the dictionary has never seen (``VALUES``
    constants) get query-local ids ``-1, -2, ...`` from :meth:`term_id`.
    They live only here, so compiling or running a read never writes the
    store; no store index holds a negative id, so such a term matches
    nothing in a scan yet still decodes back into the answer.
    """

    __slots__ = ("graph", "dictionary", "config", "decisions", "_local_ids", "_local_terms")

    def __init__(
        self,
        graph: Any,
        config: ExecConfig | None = None,
        dictionary: TermDictionary | None = None,
    ) -> None:
        self.graph = graph
        if dictionary is None:
            dictionary = getattr(graph, "dictionary", None)
        if dictionary is None:
            # Graph-likes without an interning dictionary (test doubles,
            # bare wrappers) get a private one for the plan's lifetime.
            dictionary = TermDictionary()
        self.dictionary = dictionary
        self.config = config or ExecConfig()
        #: Adaptivity decisions recorded during execution.
        self.decisions: list[dict[str, Any]] = []
        self._local_ids: dict[Term, int] = {}
        #: Query-local terms; id ``-n`` decodes to ``_local_terms[n - 1]``.
        self._local_terms: list[Term] = []

    def term_id(self, term: Term) -> int:
        """``term``'s dictionary id, or a query-local id if the store has
        never seen it (never interned, so the store is not written)."""
        known = self.dictionary.lookup(term)
        if known:
            return known
        local = self._local_ids.get(term)
        if local is None:
            self._local_terms.append(term)
            local = self._local_ids[term] = -len(self._local_terms)
        return local

    def term(self, value: int) -> Term:
        """The term behind a (dictionary or query-local) id."""
        return self.dictionary.terms[value] if value > 0 else self._local_terms[-value - 1]

    def decode_binding(self, schema: Schema, row: Row) -> Binding:
        """Decode a row into a :class:`Binding`, dropping internal columns."""
        terms = self.dictionary.terms
        data: dict[Variable, Term] = {}
        for index, variable in _external_columns(schema):
            value = row[index]
            if value > 0:
                data[variable] = terms[value]
            elif value:
                data[variable] = self._local_terms[-value - 1]
        return Binding(data)

    def decode_expression_binding(self, schema: Schema, row: Row) -> Binding:
        """Like :meth:`decode_binding` but keeps blank-node anchors
        (an EXISTS body may mention the blank node's pattern)."""
        terms = self.dictionary.terms
        data: dict[Variable, Term] = {}
        for index, variable in enumerate(schema):
            value = row[index]
            if value and not variable.name.startswith(_ORD_PREFIX):
                data[variable] = terms[value] if value > 0 else self._local_terms[-value - 1]
        return Binding(data)


def extend_schema(schema: Schema, variables: Iterable[Variable]) -> Schema:
    """``schema`` plus the unseen ``variables`` in first-occurrence order."""
    existing = set(schema)
    extra: list[Variable] = []
    for variable in variables:
        if variable not in existing:
            existing.add(variable)
            extra.append(variable)
    return schema + tuple(extra)


def pattern_variables(pattern: Triple) -> list[Variable]:
    """Variables (incl. bnode anchors) bound by a pattern, in S-P-O order."""
    result: list[Variable] = []
    for term in pattern:
        if isinstance(term, Variable):
            if term not in result:
                result.append(term)
        elif isinstance(term, BNode):
            anchor = bnode_anchor(term)
            if anchor not in result:
                result.append(anchor)
    return result


def _pattern_text(pattern: Triple) -> str:
    return " ".join(term.n3() for term in pattern)


# --------------------------------------------------------------------------- #
# Operator base
# --------------------------------------------------------------------------- #
class VecOperator:
    """Base class of batched operators.

    ``execute`` must be restartable: correlated parents (OPTIONAL, UNION)
    re-run sub-plans once per input *batch*.  ``reset`` drops state cached
    across runs (a fresh plan execution against possibly mutated data).
    """

    #: Output schema, fixed at compile time.
    schema: Schema = ()
    #: Estimated output rows (display + join-strategy bookkeeping).
    est: float = 1.0
    #: Tracing span name of this operator (every concrete ``Vec*`` class
    #: must override it; enforced by ``tools/check_invariants.py``).
    span_name: str = "exec.operator"

    def __init__(self, ctx: ExecContext) -> None:
        self.ctx = ctx
        self.metrics = OpMetrics()

    # -- abstract ---------------------------------------------------------- #
    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        raise NotImplementedError

    def children(self) -> Sequence[VecOperator]:
        return ()

    def describe(self) -> str:
        return type(self).__name__

    # -- shared machinery --------------------------------------------------- #
    def execute(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        """Run with instrumentation (row/batch counters, inclusive time)."""
        metrics = self.metrics

        def counted_inputs() -> Iterator[Batch]:
            for batch in batches:
                metrics.batches_in += 1
                metrics.rows_in += len(batch.rows)
                yield batch

        def instrumented() -> Iterator[Batch]:
            produced = self._run(counted_inputs())
            while True:
                started = time.perf_counter()
                batch = next(produced, None)
                metrics.seconds += time.perf_counter() - started
                if batch is None:
                    return
                metrics.batches_out += 1
                metrics.rows_out += len(batch.rows)
                yield batch

        return instrumented()

    def reset(self) -> None:
        self.metrics.clear()
        for child in self.children():
            child.reset()

    def report_lines(self, indent: int = 0, metrics: bool = True) -> list[str]:
        """The operator tree, one line per operator; ``metrics`` appends
        the counters of the most recent execution (EXPLAIN ANALYZE)."""
        line = f"{'  ' * indent}{self.describe()}"
        if metrics:
            counters = self.metrics
            line += (
                f"  (rows {counters.rows_in} -> {counters.rows_out},"
                f" batches {counters.batches_out},"
                f" {counters.seconds * 1000:.2f} ms)"
            )
        lines = [line]
        for child in self.children():
            lines.extend(child.report_lines(indent + 1, metrics))
        return lines

    def operator_stats(self, depth: int = 0) -> list[dict[str, Any]]:
        metrics = self.metrics
        stats: list[dict[str, Any]] = [{
            "operator": self.describe(),
            "span": self.span_name,
            "depth": depth,
            "rows_in": metrics.rows_in,
            "rows_out": metrics.rows_out,
            "batches": metrics.batches_out,
            "seconds": metrics.seconds,
        }]
        for child in self.children():
            stats.extend(child.operator_stats(depth + 1))
        return stats


def seed_batches() -> Iterator[Batch]:
    """The top-level input: one empty row over the empty schema."""
    return iter((Batch((), [()]),))


# --------------------------------------------------------------------------- #
# Scans (BGP chains with adaptive reordering)
# --------------------------------------------------------------------------- #
class _VecStep:
    """One scan of a BGP chain plus the filters applied right after it."""

    __slots__ = ("pattern", "filters", "est")

    def __init__(self, pattern: Triple, filters: list[Expression], est: float) -> None:
        self.pattern = pattern
        self.filters = filters
        self.est = est


class VecBGPOp(VecOperator):
    """A chain of index scans producing batches of interned-id rows.

    Rows stream through the chain one at a time (a scan is a correlated
    index lookup per input row), but are handed to the parent in batches
    that follow the growth schedule of :class:`ExecConfig`.  When
    ``adaptive`` is on, the chain samples each step's actual output and
    reorders the remaining steps on misestimates.
    """

    span_name = "exec.bgp_scan"

    def __init__(
        self,
        ctx: ExecContext,
        in_schema: Schema,
        steps: list[_VecStep],
        tail_filters: list[Expression],
        adaptive: bool = False,
    ) -> None:
        super().__init__(ctx)
        self.in_schema = in_schema
        self.steps = steps
        self.tail_filters = list(tail_filters)
        self.adaptive = adaptive
        schema = in_schema
        for step in steps:
            schema = extend_schema(schema, pattern_variables(step.pattern))
        self.schema = schema
        est = 1.0
        for step in steps:
            est *= max(step.est, 0.0)
        self.est = est

    # -- single-step scan --------------------------------------------------- #
    def _scan_rows(
        self, step: _VecStep, rows: Iterator[Row], layout: list[Variable]
    ) -> Iterator[Row]:
        """Extend every row with the matches of ``step`` (then filter)."""
        ctx = self.ctx
        graph = ctx.graph
        dictionary = ctx.dictionary
        column = {variable: index for index, variable in enumerate(layout)}

        # Compile the pattern against the current column layout.  Every
        # variable position resolves to one output column: an existing
        # column (possibly unbound at runtime — OPTIONAL-bound variables)
        # or a freshly appended one.  Bound columns constrain the index
        # lookup; after a match every variable position is checked against
        # / written into its column, which uniformly covers repeated
        # variables and runtime-unbound columns.
        in_width = len(layout)
        const_lookup: list[Term | None] = [None, None, None]
        var_cols: list[tuple[int, int]] = []  # (position, output column)
        for position, term in enumerate(step.pattern):
            if isinstance(term, Variable):
                anchor = term
            elif isinstance(term, BNode):
                anchor = bnode_anchor(term)
            else:
                const_lookup[position] = term
                continue
            index = column.get(anchor)
            if index is None:
                index = len(layout)
                column[anchor] = index
                layout.append(anchor)
            var_cols.append((position, index))
        pad = len(layout) - in_width
        lookup_cols = [
            (position, index) for position, index in var_cols if index < in_width
        ]

        filters = step.filters
        schema_snapshot = tuple(layout)

        def keep(extended: Row) -> bool:
            return all(
                expression_satisfied(
                    expr,
                    ctx.decode_expression_binding(schema_snapshot, extended),
                    graph,
                )
                for expr in filters
            )

        triples_ids = getattr(graph, "triples_ids", None)
        if triples_ids is not None and getattr(graph, "dictionary", None) is dictionary:
            # Id-native scan: lookups, matches and consistency checks all
            # happen on dictionary ids, so the loop never hashes a term,
            # never re-interns and never constructs a Triple.
            id_lookup = dictionary.lookup
            const_ids = [UNBOUND, UNBOUND, UNBOUND]
            dead = False
            for position, term in enumerate(const_lookup):
                if term is None:
                    continue
                const_ids[position] = id_lookup(term)
                if not const_ids[position]:
                    # The constant was never interned by this graph's
                    # dictionary, so no asserted triple can mention it.
                    dead = True
            if dead:
                return iter(())
            # A join-back column (bound in the input row) constrains the
            # index lookup itself, so re-checking it is redundant whenever
            # the row actually binds it; fresh distinct columns need no
            # check either.  That covers the common all-bound row with a
            # straight tuple append.
            fresh_cols = [(p, i) for p, i in var_cols if i >= in_width]
            fast_ok = len({index for _, index in fresh_cols}) == len(fresh_cols)

            def scan_ids() -> Iterator[Row]:
                for row in rows:
                    lookup = list(const_ids)
                    all_bound = True
                    for position, index in lookup_cols:
                        value = row[index]
                        if value:
                            lookup[position] = value
                        else:
                            all_bound = False
                    if fast_ok and all_bound:
                        for data in triples_ids(lookup[0], lookup[1], lookup[2]):
                            extended = row + tuple(
                                data[position] for position, _ in fresh_cols
                            )
                            if filters and not keep(extended):
                                continue
                            yield extended
                        continue
                    padded = row + (UNBOUND,) * pad if pad else row
                    for data in triples_ids(lookup[0], lookup[1], lookup[2]):
                        out = list(padded)
                        consistent = True
                        for position, index in var_cols:
                            observed = data[position]
                            current = out[index]
                            if current and current != observed:
                                consistent = False
                                break
                            out[index] = observed
                        if not consistent:
                            continue
                        extended = tuple(out)
                        if filters and not keep(extended):
                            continue
                        yield extended

            return scan_ids()

        # Fallback for graph-likes without id indexes (test doubles, proxies
        # wrapping only ``triples``): scan on terms, mapping matches to ids.
        term_id = ctx.term_id
        decode = ctx.term

        def scan() -> Iterator[Row]:
            for row in rows:
                lookup: list[Term | None] = list(const_lookup)
                for position, index in lookup_cols:
                    value = row[index]
                    if value:
                        lookup[position] = decode(value)
                padded = row + (UNBOUND,) * pad if pad else row
                for triple in graph.triples(lookup[0], lookup[1], lookup[2]):
                    data = (triple.subject, triple.predicate, triple.object)
                    out = list(padded)
                    consistent = True
                    for position, index in var_cols:
                        observed = term_id(data[position])
                        current = out[index]
                        if current and current != observed:
                            consistent = False
                            break
                        out[index] = observed
                    if not consistent:
                        continue
                    extended: Row = tuple(out)
                    if filters and not keep(extended):
                        continue
                    yield extended

        return scan()

    # -- adaptive reordering ------------------------------------------------ #
    def _sampled_estimate(
        self, pattern: Triple, rows: Sequence[Row], layout: Sequence[Variable]
    ) -> float:
        """Mean cardinality of ``pattern`` with sampled rows bound in."""
        cardinality = getattr(self.ctx.graph, "cardinality", None)
        if cardinality is None or not rows:
            return float("inf")
        decode = self.ctx.term
        column = {variable: index for index, variable in enumerate(layout)}
        total = 0.0
        for row in rows:
            lookup: list[Term | None] = [None, None, None]
            for position, term in enumerate(pattern):
                if isinstance(term, Variable):
                    anchor = term
                elif isinstance(term, BNode):
                    anchor = bnode_anchor(term)
                else:
                    lookup[position] = term
                    continue
                index = column.get(anchor)
                if index is not None and row[index]:
                    lookup[position] = decode(row[index])
            total += float(cardinality(lookup[0], lookup[1], lookup[2]))
        return total / len(rows)

    def _reorder(
        self,
        remaining: list[_VecStep],
        sample: Sequence[Row],
        layout: Sequence[Variable],
        after: _VecStep,
        observed: int,
        exhausted: bool,
    ) -> list[_VecStep]:
        """Reorder ``remaining`` by estimates sampled from actual rows."""
        sampled = {
            id(step): self._sampled_estimate(step.pattern, sample, layout)
            for step in remaining
        }
        reordered = sorted(
            remaining,
            key=lambda step: (sampled[id(step)], _pattern_text(step.pattern)),
        )
        # Re-attach the pending filters at the earliest step where all of
        # their variables are bound (same rule the planner applies).
        pending = [expr for step in remaining for expr in step.filters]
        bound: set[Variable] = set(layout)
        rebuilt: list[_VecStep] = []
        for step in reordered:
            bound |= set(pattern_variables(step.pattern))
            attached = [expr for expr in pending if expr.variables() <= bound]
            pending = [expr for expr in pending if expr not in attached]
            rebuilt.append(_VecStep(step.pattern, attached, sampled[id(step)]))
        if pending:  # pragma: no cover - planner never leaves these dangling
            rebuilt[-1].filters.extend(pending)
        if [id(s) for s in remaining] != [id(s) for s in reordered]:
            self.ctx.decisions.append({
                "after": _pattern_text(after.pattern),
                "estimated": after.est,
                "observed": observed,
                "observed_is_exact": exhausted,
                "old_order": [_pattern_text(s.pattern) for s in remaining],
                "new_order": [_pattern_text(s.pattern) for s in rebuilt],
            })
        return rebuilt

    # -- the chain ----------------------------------------------------------- #
    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        config = self.ctx.config
        layout: list[Variable] = list(self.in_schema)

        def input_rows() -> Iterator[Row]:
            for batch in batches:
                yield from batch.rows

        stream: Iterator[Row] = input_rows()
        remaining = list(self.steps)
        factor = config.misestimate_factor
        while remaining:
            step = remaining.pop(0)
            stream = self._scan_rows(step, stream, layout)
            if self.adaptive and len(remaining) >= 2:
                sample = list(islice(stream, config.sample_rows))
                exhausted = len(sample) < config.sample_rows
                observed = len(sample)
                over = observed > max(step.est, 0.5) * factor
                under = exhausted and observed * factor < step.est
                if over or under:
                    remaining = self._reorder(
                        remaining, sample, layout, step, observed, exhausted
                    )
                stream = iter(sample) if exhausted else _iter_chain(sample, stream)

        if self.tail_filters:
            ctx = self.ctx
            graph = ctx.graph
            schema_snapshot = tuple(layout)
            tail = self.tail_filters

            def filtered(rows: Iterator[Row]) -> Iterator[Row]:
                for row in rows:
                    if all(
                        expression_satisfied(
                            expr, ctx.decode_expression_binding(schema_snapshot, row), graph
                        )
                        for expr in tail
                    ):
                        yield row

            stream = filtered(stream)

        # Emit under the declared schema: adaptive reordering may have
        # grown the layout in a different column order.
        declared = self.schema
        if tuple(layout) != declared:
            positions = {variable: index for index, variable in enumerate(layout)}
            permutation = [positions[variable] for variable in declared]

            def permuted(rows: Iterator[Row]) -> Iterator[Row]:
                for row in rows:
                    yield tuple(row[index] for index in permutation)

            stream = permuted(stream)

        cap = config.initial_batch_rows
        buffer: list[Row] = []
        for row in stream:
            buffer.append(row)
            if len(buffer) >= cap:
                yield Batch(declared, buffer)
                buffer = []
                cap = min(cap * config.batch_growth, config.max_batch_rows)
        if buffer:
            yield Batch(declared, buffer)

    def describe(self) -> str:
        suffix = " adaptive" if self.adaptive else ""
        return f"BGPScan est={self.est:.1f}{suffix}"

    def report_lines(self, indent: int = 0, metrics: bool = True) -> list[str]:
        lines = super().report_lines(indent, metrics)
        pad = "  " * (indent + 1)
        for step in self.steps:
            suffix = ""
            if step.filters:
                rendered = ", ".join(serialize_expression(expr) for expr in step.filters)
                suffix = f" [filter {rendered}]"
            lines.append(f"{pad}scan ({_pattern_text(step.pattern)}) est={step.est:.1f}{suffix}")
        for expr in self.tail_filters:
            lines.append(f"{pad}filter {serialize_expression(expr)}")
        return lines


# --------------------------------------------------------------------------- #
# VALUES
# --------------------------------------------------------------------------- #
class VecTableOp(VecOperator):
    """An inline solution table (VALUES) joined against the input stream."""

    span_name = "exec.table"

    def __init__(
        self,
        ctx: ExecContext,
        in_schema: Schema,
        columns: Sequence[Variable],
        rows: Sequence[tuple],
    ) -> None:
        super().__init__(ctx)
        self.in_schema = in_schema
        self.columns = list(columns)
        self.schema = extend_schema(in_schema, self.columns)
        term_id = ctx.term_id
        self._rows: list[Row] = [
            tuple(term_id(term) if term is not None else UNBOUND for term in row)
            for row in rows
        ]
        self.est = float(len(self._rows))
        # Column -> position in the *output* schema, and whether that
        # position already exists in the input (shared) or is appended.
        positions = {variable: index for index, variable in enumerate(self.schema)}
        self._targets = [positions[variable] for variable in self.columns]
        self._width = len(self.schema)
        self._in_width = len(in_schema)

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        table = self._rows
        targets = self._targets
        width = self._width
        in_width = self._in_width
        pad = width - in_width
        schema = self.schema
        for batch in batches:
            out: list[Row] = []
            for row in batch.rows:
                base = row + (UNBOUND,) * pad
                for table_row in table:
                    merged = list(base)
                    ok = True
                    for value, target in zip(table_row, targets, strict=True):
                        if not value:
                            continue  # UNDEF constrains nothing
                        current = merged[target]
                        if current and current != value:
                            ok = False
                            break
                        merged[target] = value
                    if ok:
                        out.append(tuple(merged))
            yield Batch(schema, out)

    def describe(self) -> str:
        rendered = " ".join(f"?{variable.name}" for variable in self.columns)
        return f"Table ({rendered}) {len(self._rows)} rows"


# --------------------------------------------------------------------------- #
# Joins
# --------------------------------------------------------------------------- #
class VecBindJoinOp(VecOperator):
    """Streaming bind join: left batches feed the right sub-plan."""

    span_name = "exec.bind_join"

    def __init__(self, ctx: ExecContext, left: VecOperator, right: VecOperator) -> None:
        super().__init__(ctx)
        self._left = left
        self._right = right
        self.schema = right.schema
        self.est = max(left.est, 0.0) * max(right.est, 0.0)

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        return self._right.execute(self._left.execute(batches))

    def children(self) -> Sequence[VecOperator]:
        return (self._left, self._right)

    def describe(self) -> str:
        return f"BindJoin est={self.est:.1f}"


class VecHashJoinOp(VecOperator):
    """Hash join on shared certainly-bound variables (build right once)."""

    span_name = "exec.hash_join"

    def __init__(
        self,
        ctx: ExecContext,
        left: VecOperator,
        right: VecOperator,
        key: Sequence[Variable],
    ) -> None:
        super().__init__(ctx)
        self._left = left
        self._right = right
        self.key = tuple(sorted(key, key=lambda variable: variable.name))
        self.schema = extend_schema(left.schema, right.schema)
        self.est = max(left.est, 0.0) * max(right.est, 0.0) * 0.1
        left_positions = {variable: index for index, variable in enumerate(left.schema)}
        right_positions = {variable: index for index, variable in enumerate(right.schema)}
        self._left_key = [left_positions[variable] for variable in self.key]
        self._right_key = [right_positions[variable] for variable in self.key]
        self._append_cols = [
            right_positions[variable]
            for variable in self.schema[len(left.schema):]
        ]
        # The build side runs against the empty input (that is what makes
        # the hash join safe), so its rows cannot vary between runs of one
        # execution: build once, reuse under correlated parents.
        self._table: dict[Row, list[Row]] | None = None

    def reset(self) -> None:
        self._table = None
        super().reset()

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        if self._table is None:
            table: dict[Row, list[Row]] = {}
            right_key = self._right_key
            append_cols = self._append_cols
            for batch in self._right.execute(seed_batches()):
                for row in batch.rows:
                    key = tuple(row[index] for index in right_key)
                    table.setdefault(key, []).append(
                        tuple(row[index] for index in append_cols)
                    )
            self._table = table
        table = self._table
        left_key = self._left_key
        schema = self.schema
        for batch in self._left.execute(batches):
            out: list[Row] = []
            for row in batch.rows:
                key = tuple(row[index] for index in left_key)
                for suffix in table.get(key, ()):
                    out.append(row + suffix)
            yield Batch(schema, out)

    def children(self) -> Sequence[VecOperator]:
        return (self._left, self._right)

    def describe(self) -> str:
        rendered = " ".join(f"?{variable.name}" for variable in self.key)
        return f"HashJoin on ({rendered}) est={self.est:.1f}"


class _OrdinalMixin:
    """Shared machinery for operators correlating a sub-plan per input row.

    The sub-plan is compiled against ``input schema + ordinal column``; at
    runtime each input row is tagged with its batch-local ordinal, the
    sub-plan runs over the whole batch at once, and its output is grouped
    back by ordinal — one vectorized sub-plan run per batch instead of one
    per row.
    """

    @staticmethod
    def tag_batch(batch: Batch, tagged_schema: Schema) -> Batch:
        rows = [row + (ordinal,) for ordinal, row in enumerate(batch.rows)]
        return Batch(tagged_schema, rows)

    @staticmethod
    def bucket_by_ordinal(
        op: VecOperator, batch: Batch, ord_index: int
    ) -> dict[int, list[Row]]:
        buckets: dict[int, list[Row]] = {}
        for produced in op.execute(iter((batch,))):
            for row in produced.rows:
                buckets.setdefault(row[ord_index], []).append(row)
        return buckets


class VecLeftJoinOp(VecOperator, _OrdinalMixin):
    """OPTIONAL: extend input rows where the sub-plan matches, else pass."""

    span_name = "exec.left_join"

    def __init__(
        self,
        ctx: ExecContext,
        in_schema: Schema,
        right: VecOperator,
        expression: Expression | None,
        ord_var: Variable,
    ) -> None:
        super().__init__(ctx)
        self.in_schema = in_schema
        self._right = right
        self._expression = expression
        self._ord_var = ord_var
        self._tagged_schema = in_schema + (ord_var,)
        right_schema = right.schema
        new_vars = [
            variable for variable in right_schema
            if variable not in in_schema and variable != ord_var
        ]
        self.schema = in_schema + tuple(new_vars)
        right_positions = {variable: index for index, variable in enumerate(right_schema)}
        self._ord_index = right_positions[ord_var]
        # Map a right-output row onto the out schema.
        self._projection = [right_positions[variable] for variable in self.schema]
        self._pad = len(new_vars)
        self.est = max(right.est, 1.0)

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        ctx = self.ctx
        graph = ctx.graph
        expression = self._expression
        schema = self.schema
        projection = self._projection
        pad = (UNBOUND,) * self._pad
        for batch in batches:
            tagged = self.tag_batch(batch, self._tagged_schema)
            buckets = self.bucket_by_ordinal(self._right, tagged, self._ord_index)
            out: list[Row] = []
            for ordinal, row in enumerate(batch.rows):
                matched = False
                for extension in buckets.get(ordinal, ()):
                    aligned = tuple(extension[index] for index in projection)
                    if expression is None or expression_satisfied(
                        expression,
                        ctx.decode_expression_binding(schema, aligned),
                        graph,
                    ):
                        matched = True
                        out.append(aligned)
                if not matched:
                    out.append(row + pad)
            yield Batch(schema, out)

    def children(self) -> Sequence[VecOperator]:
        return (self._right,)

    def describe(self) -> str:
        condition = (
            f" on [{serialize_expression(self._expression)}]"
            if self._expression is not None
            else ""
        )
        return f"LeftJoin{condition} est={self.est:.1f}"


class VecUnionOp(VecOperator, _OrdinalMixin):
    """UNION: each input row flows through every branch, in branch order."""

    span_name = "exec.union"

    def __init__(
        self,
        ctx: ExecContext,
        in_schema: Schema,
        branches: Sequence[VecOperator],
        ord_var: Variable,
    ) -> None:
        super().__init__(ctx)
        self.in_schema = in_schema
        self._branches = list(branches)
        self._ord_var = ord_var
        self._tagged_schema = in_schema + (ord_var,)
        schema = in_schema
        for branch in self._branches:
            schema = extend_schema(
                schema,
                (v for v in branch.schema if v != ord_var),
            )
        self.schema = schema
        positions = {variable: index for index, variable in enumerate(schema)}
        self._ord_indexes: list[int] = []
        self._projections: list[list[tuple[int, int]]] = []
        for branch in self._branches:
            branch_positions = {v: i for i, v in enumerate(branch.schema)}
            self._ord_indexes.append(branch_positions[ord_var])
            self._projections.append([
                (branch_positions[variable], positions[variable])
                for variable in branch.schema
                if variable != ord_var
            ])
        self.est = sum(max(branch.est, 0.0) for branch in self._branches)

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        schema = self.schema
        width = len(schema)
        for batch in batches:
            tagged = self.tag_batch(batch, self._tagged_schema)
            per_branch = [
                self.bucket_by_ordinal(branch, tagged, self._ord_indexes[index])
                for index, branch in enumerate(self._branches)
            ]
            out: list[Row] = []
            for ordinal in range(len(batch.rows)):
                for index, buckets in enumerate(per_branch):
                    mapping = self._projections[index]
                    for row in buckets.get(ordinal, ()):
                        aligned = [UNBOUND] * width
                        for source, target in mapping:
                            aligned[target] = row[source]
                        out.append(tuple(aligned))
            yield Batch(schema, out)

    def children(self) -> Sequence[VecOperator]:
        return tuple(self._branches)

    def describe(self) -> str:
        return f"Union est={self.est:.1f}"


# --------------------------------------------------------------------------- #
# Filters and modifiers
# --------------------------------------------------------------------------- #
class VecFilterOp(VecOperator):
    """FILTER expressions evaluated at the term boundary (decode per row)."""

    span_name = "exec.filter"

    def __init__(
        self,
        ctx: ExecContext,
        child: VecOperator,
        expressions: Sequence[Expression],
        graph: Any | None = None,
    ) -> None:
        super().__init__(ctx)
        self._child = child
        self._expressions = list(expressions)
        self._graph = graph if graph is not None else ctx.graph
        self.schema = child.schema
        self.est = max(child.est, 0.0) * (0.5 ** len(self._expressions))

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        ctx = self.ctx
        graph = self._graph
        expressions = self._expressions
        schema = self.schema
        for batch in self._child.execute(batches):
            rows = [
                row
                for row in batch.rows
                if all(
                    expression_satisfied(
                        expr, ctx.decode_expression_binding(schema, row), graph
                    )
                    for expr in expressions
                )
            ]
            yield Batch(schema, rows)

    def children(self) -> Sequence[VecOperator]:
        return (self._child,)

    def describe(self) -> str:
        rendered = ", ".join(serialize_expression(expr) for expr in self._expressions)
        return f"Filter [{rendered}] est={self.est:.1f}"


class VecProjectOp(VecOperator):
    """Project rows onto the requested variables (anchors stripped)."""

    span_name = "exec.project"

    def __init__(
        self, ctx: ExecContext, child: VecOperator, projection: Sequence[Variable]
    ) -> None:
        super().__init__(ctx)
        self._child = child
        visible = [
            variable for variable in projection
            if not variable.name.startswith(BNODE_ANCHOR_PREFIX)
        ]
        self.schema = tuple(visible)
        child_positions = {variable: index for index, variable in enumerate(child.schema)}
        # -1: the variable is never bound anywhere in the sub-plan.
        self._sources = [child_positions.get(variable, -1) for variable in visible]
        self.est = child.est

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        sources = self._sources
        schema = self.schema
        for batch in self._child.execute(batches):
            rows = [
                tuple(row[index] if index >= 0 else UNBOUND for index in sources)
                for row in batch.rows
            ]
            yield Batch(schema, rows)

    def children(self) -> Sequence[VecOperator]:
        return (self._child,)

    def describe(self) -> str:
        rendered = " ".join(f"?{variable.name}" for variable in self.schema)
        return f"Project ({rendered})"


class VecDistinctOp(VecOperator):
    """Duplicate elimination on raw row tuples (first occurrence wins)."""

    span_name = "exec.distinct"

    def __init__(self, ctx: ExecContext, child: VecOperator) -> None:
        super().__init__(ctx)
        self._child = child
        self.schema = child.schema
        self.est = child.est

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        seen: set[Row] = set()
        schema = self.schema
        for batch in self._child.execute(batches):
            rows: list[Row] = []
            for row in batch.rows:
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
            yield Batch(schema, rows)

    def children(self) -> Sequence[VecOperator]:
        return (self._child,)

    def describe(self) -> str:
        return "Distinct"


class VecOrderByOp(VecOperator):
    """ORDER BY: the one blocking operator (materialise, decode keys, sort)."""

    span_name = "exec.order_by"

    def __init__(
        self,
        ctx: ExecContext,
        child: VecOperator,
        conditions: Sequence[OrderCondition],
        graph: Any | None = None,
    ) -> None:
        super().__init__(ctx)
        self._child = child
        self._conditions = list(conditions)
        self._graph = graph if graph is not None else ctx.graph
        self.schema = child.schema
        self.est = child.est

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        ctx = self.ctx
        graph = self._graph
        conditions = self._conditions
        schema = self.schema
        rows: list[Row] = []
        for batch in self._child.execute(batches):
            rows.extend(batch.rows)

        def sort_key(row: Row) -> list[Any]:
            binding = ctx.decode_expression_binding(schema, row)
            key: list[Any] = []
            for condition in conditions:
                try:
                    value = evaluate_expression(condition.expression, binding, graph)
                except ExpressionError:
                    value = None
                key.append(_orderable(value, condition.descending))
            return key

        rows.sort(key=sort_key)
        yield Batch(schema, rows)

    def children(self) -> Sequence[VecOperator]:
        return (self._child,)

    def describe(self) -> str:
        return f"OrderBy ({len(self._conditions)} conditions, blocking)"


class VecSliceOp(VecOperator):
    """OFFSET/LIMIT with early termination across batch boundaries."""

    span_name = "exec.slice"

    def __init__(
        self,
        ctx: ExecContext,
        child: VecOperator,
        offset: int | None,
        limit: int | None,
    ) -> None:
        super().__init__(ctx)
        self._child = child
        self._offset = offset or 0
        self._limit = limit
        self.schema = child.schema
        self.est = min(child.est, float(limit)) if limit is not None else child.est

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        to_skip = self._offset
        remaining = self._limit
        schema = self.schema
        for batch in self._child.execute(batches):
            rows = batch.rows
            if to_skip:
                if to_skip >= len(rows):
                    to_skip -= len(rows)
                    continue
                rows = rows[to_skip:]
                to_skip = 0
            if remaining is not None:
                if remaining <= 0:
                    return
                rows = rows[:remaining]
                remaining -= len(rows)
            if rows:
                yield Batch(schema, rows)
            if remaining is not None and remaining <= 0:
                return

    def children(self) -> Sequence[VecOperator]:
        return (self._child,)

    def describe(self) -> str:
        return f"Slice (offset={self._offset}, limit={self._limit})"


# --------------------------------------------------------------------------- #
# Plans, reports, run events
# --------------------------------------------------------------------------- #
@dataclass
class QueryRunEvent:
    """One structured per-query execution record (OpenLineage-style).

    Consumable by ``benchmarks/compare.py --events``: operator timings
    attribute a perf regression to an operator instead of a test name.
    """

    query: str
    engine: str
    elapsed: float
    rows: int
    operators: list[dict[str, Any]] = field(default_factory=list)
    adaptivity: list[dict[str, Any]] = field(default_factory=list)
    endpoints: list[dict[str, Any]] = field(default_factory=list)
    rows_shipped: int = 0
    plan: str = ""

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "engine": self.engine,
            "elapsed": self.elapsed,
            "rows": self.rows,
            "operators": self.operators,
            "adaptivity": self.adaptivity,
            "endpoints": self.endpoints,
            "rows_shipped": self.rows_shipped,
            "plan": self.plan,
        }

    def render(self) -> str:
        """Human-readable EXPLAIN ANALYZE text."""
        lines = [
            f"EXPLAIN ANALYZE ({self.engine} engine): "
            f"{self.rows} rows in {self.elapsed * 1000:.2f} ms"
        ]
        if self.plan:
            lines.extend(self.plan.splitlines())
        for decision in self.adaptivity:
            exactness = "exact" if decision.get("observed_is_exact") else ">="
            lines.append(
                f"adaptive reorder after ({decision['after']}): "
                f"estimated {decision['estimated']:.1f}, "
                f"observed {exactness} {decision['observed']}"
            )
            lines.append(f"  new order: {', '.join(decision['new_order'])}")
        for endpoint in self.endpoints:
            lines.append(
                f"endpoint {endpoint.get('dataset')}: "
                f"requests={endpoint.get('requests')} "
                f"rows_shipped={endpoint.get('rows_shipped')}"
            )
        return "\n".join(lines)


def maybe_emit_event(event: QueryRunEvent) -> None:
    """Append ``event`` to the JSONL file named by ``REPRO_RUN_EVENTS``.

    Delegates to the process-wide :data:`repro.obs.export.SINK`, which
    serializes concurrent emitters (one ``write()`` per line) and caches
    the environment lookup instead of re-reading it per event.
    """
    SINK.emit(event.to_json_dict())


class ExecPlan:
    """A compiled batched plan, ready for execution against one graph."""

    def __init__(self, query: Query, root: VecOperator, ctx: ExecContext, engine: str) -> None:
        self.query = query
        self.root = root
        self.ctx = ctx
        self.engine = engine
        self._elapsed = 0.0

    def execute(self) -> Iterator[Batch]:
        """Stream output batches (fresh execution: caches are dropped)."""
        self.root.reset()
        self.ctx.decisions.clear()
        started = time.perf_counter()
        for batch in self.root.execute(seed_batches()):
            yield batch
        self._elapsed = time.perf_counter() - started

    def bindings(self) -> Iterator[Binding]:
        """Stream decoded solutions (the term-decode boundary)."""
        ctx = self.ctx
        for batch in self.execute():
            schema = batch.schema
            for row in batch.rows:
                yield ctx.decode_binding(schema, row)

    def first_binding(self) -> Binding | None:
        """The first solution, pulling as little as possible (ASK)."""
        return next(self.bindings(), None)

    @property
    def elapsed(self) -> float:
        """Wall seconds of the most recent execution."""
        return self._elapsed

    def explain(self) -> str:
        """EXPLAIN: the operator tree that executes, with estimates."""
        form = type(self.query).__name__.replace("Query", "").upper()
        graph = self.ctx.graph
        size = len(graph) if hasattr(graph, "__len__") else "?"
        header = f"plan for {form} query over graph with {size} triples"
        return "\n".join([header, *self.root.report_lines(0, metrics=False)])

    def report(self) -> str:
        """Per-operator rows/batches/time of the most recent execution."""
        return "\n".join(self.root.report_lines(0))

    def run_event(self, query_text: str | None = None) -> QueryRunEvent:
        """The structured run event of the most recent execution."""
        return QueryRunEvent(
            query=query_text if query_text is not None else type(self.query).__name__,
            engine=self.engine,
            elapsed=self._elapsed,
            rows=self.root.metrics.rows_out,
            operators=self.root.operator_stats(),
            adaptivity=list(self.ctx.decisions),
            plan=self.report(),
        )


# --------------------------------------------------------------------------- #
# Compilation: the cost-based planner engine
# --------------------------------------------------------------------------- #
def _fresh_ord(counter: list[int]) -> Variable:
    counter[0] += 1
    return Variable(f"{_ORD_PREFIX}{counter[0]}")


def compile_planner_query(
    query: Query, graph: Any, config: ExecConfig | None = None
) -> ExecPlan:
    """Compile ``query`` with the cost-based planner onto batched operators.

    All planning (statistics-driven join order, hash vs. bind join
    selection, filter pushdown) is done by :class:`~repro.sparql.plan.
    QueryPlanner`, which emits this module's operators directly.
    """
    from .plan import QueryPlanner

    ctx = ExecContext(graph, config)
    return ExecPlan(query, QueryPlanner(ctx).plan(query), ctx, engine="planner")


# --------------------------------------------------------------------------- #
# Compilation: the naive engine (bottom-up group semantics)
# --------------------------------------------------------------------------- #
def compile_naive_query(
    query: Query, graph: Any, config: ExecConfig | None = None
) -> ExecPlan:
    """Compile ``query`` with the naive evaluator's semantics onto batched
    operators: elements in group order, group-scoped filters at the end of
    their group, ``ordered_bgp_patterns`` scan order, modifiers in the
    standard ORDER BY -> project -> DISTINCT -> OFFSET/LIMIT sequence."""
    from .ast import (
        Filter,
        GroupGraphPattern,
        InlineData,
        OptionalPattern,
        TriplesBlock,
        UnionPattern,
    )

    ctx = ExecContext(graph, config)
    counter = [0]

    def compile_group(group: GroupGraphPattern, in_schema: Schema) -> VecOperator:
        chain: list[VecOperator] = []
        schema = in_schema
        filters: list[Expression] = []
        for element in group.elements:
            if isinstance(element, Filter):
                filters.append(element.expression)
                continue
            if isinstance(element, TriplesBlock):
                ordered = ordered_bgp_patterns(element.patterns, frozenset(schema))
                steps = [_VecStep(pattern, [], 0.0) for pattern in ordered]
                op: VecOperator = VecBGPOp(ctx, schema, steps, [], adaptive=False)
            elif isinstance(element, GroupGraphPattern):
                op = compile_group(element, schema)
            elif isinstance(element, OptionalPattern):
                ord_var = _fresh_ord(counter)
                inner = compile_group(element.group, schema + (ord_var,))
                op = VecLeftJoinOp(ctx, schema, inner, None, ord_var)
            elif isinstance(element, UnionPattern):
                ord_var = _fresh_ord(counter)
                branches = [
                    compile_group(alternative, schema + (ord_var,))
                    for alternative in element.alternatives
                ]
                op = VecUnionOp(ctx, schema, branches, ord_var)
            elif isinstance(element, InlineData):
                op = VecTableOp(ctx, schema, element.columns, element.rows)
            else:
                raise TypeError(f"unsupported pattern element: {element!r}")
            chain.append(op)
            schema = op.schema
        root = _compose(chain, schema)
        if filters:
            root = VecFilterOp(ctx, root, filters)
        return root

    def _compose(chain: list[VecOperator], schema: Schema) -> VecOperator:
        if not chain:
            return _VecIdentityOp(ctx, schema)
        root = chain[0]
        for op in chain[1:]:
            root = VecBindJoinOp(ctx, root, op)
        return root

    root = compile_group(query.where, ())
    modifiers = query.modifiers
    if isinstance(query, AskQuery):
        return ExecPlan(query, root, ctx, engine="naive")
    if modifiers.order_by:
        root = VecOrderByOp(ctx, root, modifiers.order_by)
    if isinstance(query, SelectQuery):
        root = VecProjectOp(ctx, root, query.effective_projection())
    if modifiers.distinct:
        root = VecDistinctOp(ctx, root)
    if modifiers.limit is not None or modifiers.offset is not None:
        root = VecSliceOp(ctx, root, modifiers.offset, modifiers.limit)
    return ExecPlan(query, root, ctx, engine="naive")


class _VecIdentityOp(VecOperator):
    """Pass-through (an empty group matches every input row once)."""

    span_name = "exec.identity"

    def __init__(self, ctx: ExecContext, schema: Schema) -> None:
        super().__init__(ctx)
        self.schema = schema

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        return batches

    def describe(self) -> str:
        return "Identity"


# --------------------------------------------------------------------------- #
# Compilation: statically-proven-empty queries
# --------------------------------------------------------------------------- #
class VecAnalysisPruneOp(VecOperator):
    """The whole plan for a query the static analyzer proved empty.

    Emits nothing and has no children: EXPLAIN ANALYZE shows a single
    operator with zero rows and zero batches, and no scan ever touches
    the graph indexes.
    """

    span_name = "exec.analysis_prune"

    def __init__(self, ctx: ExecContext, schema: Schema, reason: str) -> None:
        super().__init__(ctx)
        self.schema = schema
        self.reason = reason

    def _run(self, batches: Iterator[Batch]) -> Iterator[Batch]:
        for _ in batches:  # drain the seed without producing anything
            pass
        return iter(())

    def describe(self) -> str:
        return f"AnalysisPrune[{self.reason}]"


def compile_empty_query(
    query: Query,
    graph: Any,
    reason: str,
    config: ExecConfig | None = None,
    engine: str = "planner",
) -> ExecPlan:
    """An :class:`ExecPlan` for a query statically proven to be empty.

    The plan performs zero index lookups — its only operator is
    :class:`VecAnalysisPruneOp` — while keeping the full EXPLAIN ANALYZE
    surface (report, run events, operator stats) intact.
    """
    ctx = ExecContext(graph, config)
    schema: Schema = ()
    if isinstance(query, SelectQuery):
        schema = tuple(query.effective_projection())
    root = VecAnalysisPruneOp(ctx, schema, reason)
    return ExecPlan(query, root, ctx, engine=engine)
