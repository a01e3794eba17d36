"""Abstract syntax tree for SPARQL queries.

The AST mirrors the anatomy described in Section 3.1 of the paper:

* a *prologue* of PREFIX/BASE declarations,
* a *query result form* (SELECT variables / CONSTRUCT template / ASK),
* a *where clause* made of group graph patterns whose leaves are
  :class:`TriplesBlock` objects (the Basic Graph Patterns the rewriting
  algorithm operates on) plus :class:`Filter`, :class:`OptionalPattern`
  and :class:`UnionPattern` nodes,
* solution modifiers (DISTINCT/REDUCED, ORDER BY, LIMIT, OFFSET).

Expression nodes used inside FILTERs live in this module as well; their
evaluation semantics is implemented in :mod:`repro.sparql.expressions`.

Every node is an immutable value (a frozen dataclass whose sequence fields
are tuples), so a parsed or rewritten query can be cached and shared
without copying.  Build a changed node with :func:`dataclasses.replace`;
:func:`rebuild_group` maps the leaves of a group graph pattern.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, replace
from collections.abc import Callable, Iterator, Sequence
from typing import Any, ClassVar

from ..rdf import NamespaceManager, Term, Triple, Variable
from .tokenizer import SourceSpan

__all__ = [
    # expressions
    "Expression", "TermExpression", "VariableExpression", "BinaryExpression",
    "UnaryExpression", "FunctionCall", "ExistsExpression",
    # patterns
    "PatternElement", "TriplesBlock", "Filter", "OptionalPattern",
    "UnionPattern", "InlineData", "GroupGraphPattern", "GraphPattern",
    "rebuild_group",
    # query forms
    "Prologue", "OrderCondition", "SolutionModifiers",
    "Query", "SelectQuery", "AskQuery", "ConstructQuery",
]


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #
class Expression:
    """Base class of FILTER expression nodes."""

    def variables(self) -> set[Variable]:
        """All variables mentioned by the expression."""
        return set()

    def map_terms(self, func) -> Expression:
        """Structurally rebuild the expression applying ``func`` to RDF terms."""
        return self


@dataclass(frozen=True)
class TermExpression(Expression):
    """A constant RDF term (URI or literal) appearing in an expression."""

    term: Term

    def variables(self) -> set[Variable]:
        return {self.term} if isinstance(self.term, Variable) else set()

    def map_terms(self, func) -> Expression:
        return TermExpression(func(self.term))


@dataclass(frozen=True)
class VariableExpression(Expression):
    """A variable reference inside an expression."""

    variable: Variable

    def variables(self) -> set[Variable]:
        return {self.variable}

    def map_terms(self, func) -> Expression:
        mapped = func(self.variable)
        if isinstance(mapped, Variable):
            return VariableExpression(mapped)
        return TermExpression(mapped)


@dataclass(frozen=True)
class BinaryExpression(Expression):
    """A binary operator: ``||  &&  =  !=  <  >  <=  >=  +  -  *  /``."""

    operator: str
    left: Expression
    right: Expression

    def variables(self) -> set[Variable]:
        return self.left.variables() | self.right.variables()

    def map_terms(self, func) -> Expression:
        return BinaryExpression(self.operator, self.left.map_terms(func), self.right.map_terms(func))


@dataclass(frozen=True)
class UnaryExpression(Expression):
    """A unary operator: ``!``, unary ``-`` or unary ``+``."""

    operator: str
    operand: Expression

    def variables(self) -> set[Variable]:
        return self.operand.variables()

    def map_terms(self, func) -> Expression:
        return UnaryExpression(self.operator, self.operand.map_terms(func))


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A built-in call (``BOUND``, ``REGEX``, ``STR``, ...) or extension function."""

    name: str
    arguments: tuple

    def __init__(self, name: str, arguments: Sequence[Expression]) -> None:
        object.__setattr__(self, "name", name.upper() if isinstance(name, str) else name)
        object.__setattr__(self, "arguments", tuple(arguments))

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for argument in self.arguments:
            result |= argument.variables()
        return result

    def map_terms(self, func) -> Expression:
        return FunctionCall(self.name, [a.map_terms(func) for a in self.arguments])


@dataclass(frozen=True)
class ExistsExpression(Expression):
    """``EXISTS { ... }`` / ``NOT EXISTS { ... }`` (SPARQL 1.1 convenience)."""

    group: GroupGraphPattern
    negated: bool = False

    def variables(self) -> set[Variable]:
        return self.group.variables()


# --------------------------------------------------------------------------- #
# Graph patterns
# --------------------------------------------------------------------------- #
class PatternElement:
    """Base class for the elements of a group graph pattern."""

    def variables(self) -> set[Variable]:
        return set()


@dataclass(frozen=True, eq=False)
class TriplesBlock(PatternElement):
    """A Basic Graph Pattern: an ordered block of triple patterns.

    This is the unit Algorithm 1 of the paper rewrites.  The block keeps
    insertion order so rewritten queries remain readable, but equality is
    order-insensitive (a BGP denotes a conjunction).
    """

    patterns: tuple[Triple, ...] = ()
    #: Source extent of each pattern, aligned with ``patterns`` (``Triple``
    #: is a value shared across blocks, so the positions live here).  Empty
    #: for programmatically built blocks.
    pattern_spans: tuple[SourceSpan | None, ...] = field(default=(), compare=False)
    span: SourceSpan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "patterns", tuple(self.patterns))
        object.__setattr__(self, "pattern_spans", tuple(self.pattern_spans))

    def span_of(self, index: int) -> SourceSpan | None:
        """The source extent of pattern ``index``, if the block was parsed."""
        if 0 <= index < len(self.pattern_spans):
            return self.pattern_spans[index]
        return None

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for pattern in self.patterns:
            result |= pattern.variables()
        return result

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TriplesBlock) and set(self.patterns) == set(other.patterns)

    def __hash__(self) -> int:
        return hash(frozenset(self.patterns))


@dataclass(frozen=True)
class Filter(PatternElement):
    """A FILTER constraint attached to a group."""

    expression: Expression
    span: SourceSpan | None = field(default=None, compare=False)

    def variables(self) -> set[Variable]:
        return self.expression.variables()


@dataclass(frozen=True)
class OptionalPattern(PatternElement):
    """An OPTIONAL group."""

    group: GroupGraphPattern
    span: SourceSpan | None = field(default=None, compare=False)

    def variables(self) -> set[Variable]:
        return self.group.variables()


@dataclass(frozen=True)
class UnionPattern(PatternElement):
    """A UNION of two or more groups."""

    alternatives: tuple[GroupGraphPattern, ...]
    span: SourceSpan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alternatives", tuple(self.alternatives))

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for alternative in self.alternatives:
            result |= alternative.variables()
        return result


@dataclass(frozen=True)
class InlineData(PatternElement):
    """A ``VALUES`` block: an inline table of solution bindings.

    ``columns`` lists the variables; each row is a tuple of terms aligned
    with ``columns``, with ``None`` standing for ``UNDEF``.  The block
    joins with the rest of its group exactly like a table of precomputed
    solutions — this is what the federation layer's *bound joins* ship to
    remote endpoints so they only evaluate a pattern against the bindings
    already produced by earlier join steps.
    """

    columns: tuple[Variable, ...]
    rows: tuple[tuple[Term | None, ...], ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        columns = tuple(self.columns)
        rows = tuple(tuple(row) for row in self.rows)
        for row in rows:
            if len(row) != len(columns):
                raise ValueError(
                    f"VALUES row width {len(row)} does not match "
                    f"{len(columns)} variables"
                )
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)

    def variables(self) -> set[Variable]:
        return set(self.columns)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class GroupGraphPattern(PatternElement):
    """A ``{ ... }`` group: an ordered sequence of pattern elements."""

    elements: tuple[PatternElement, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for element in self.elements:
            result |= element.variables()
        return result

    def triples_blocks(self) -> Iterator[TriplesBlock]:
        """Yield every :class:`TriplesBlock` nested anywhere in the group.

        This is the traversal the query rewriter uses to locate all BGPs,
        including those inside OPTIONAL and UNION branches.
        """
        for element in self.elements:
            if isinstance(element, TriplesBlock):
                yield element
            elif isinstance(element, GroupGraphPattern):
                yield from element.triples_blocks()
            elif isinstance(element, OptionalPattern):
                yield from element.group.triples_blocks()
            elif isinstance(element, UnionPattern):
                for alternative in element.alternatives:
                    yield from alternative.triples_blocks()

    def filters(self) -> Iterator[Filter]:
        """Yield every FILTER nested anywhere in the group."""
        for element in self.elements:
            if isinstance(element, Filter):
                yield element
            elif isinstance(element, GroupGraphPattern):
                yield from element.filters()
            elif isinstance(element, OptionalPattern):
                yield from element.group.filters()
            elif isinstance(element, UnionPattern):
                for alternative in element.alternatives:
                    yield from alternative.filters()

    def all_triple_patterns(self) -> list[Triple]:
        """Flat list of every triple pattern in the group (all BGPs)."""
        patterns: list[Triple] = []
        for block in self.triples_blocks():
            patterns.extend(block.patterns)
        return patterns

    def __iter__(self) -> Iterator[PatternElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


#: Alias used in type annotations across the code base.
GraphPattern = GroupGraphPattern | PatternElement


def rebuild_group(
    group: GroupGraphPattern,
    leaf: Callable[[PatternElement], PatternElement | None],
) -> GroupGraphPattern:
    """A new group with ``leaf`` applied to every leaf element, bottom-up.

    Nested groups, OPTIONAL groups and UNION alternatives are rebuilt
    recursively; every other element (triples block, FILTER, VALUES) is
    replaced by ``leaf(element)``, or dropped when that returns ``None``.
    Leaves are visited in the order of :meth:`GroupGraphPattern.triples_blocks`.
    """
    elements: list[PatternElement] = []
    for element in group.elements:
        rebuilt: PatternElement | None
        if isinstance(element, GroupGraphPattern):
            rebuilt = rebuild_group(element, leaf)
        elif isinstance(element, OptionalPattern):
            rebuilt = replace(element, group=rebuild_group(element.group, leaf))
        elif isinstance(element, UnionPattern):
            rebuilt = replace(
                element,
                alternatives=tuple(rebuild_group(a, leaf) for a in element.alternatives),
            )
        else:
            rebuilt = leaf(element)
        if rebuilt is not None:
            elements.append(rebuilt)
    return replace(group, elements=tuple(elements))


# --------------------------------------------------------------------------- #
# Query forms
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Prologue:
    """PREFIX/BASE declarations of a query."""

    namespace_manager: NamespaceManager = field(default_factory=lambda: NamespaceManager(install_defaults=False))
    base: str | None = None


@dataclass(frozen=True)
class OrderCondition:
    """A single ORDER BY condition."""

    expression: Expression
    descending: bool = False
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SolutionModifiers:
    """DISTINCT/REDUCED, ORDER BY, LIMIT and OFFSET."""

    distinct: bool = False
    reduced: bool = False
    order_by: tuple[OrderCondition, ...] = ()
    limit: int | None = None
    offset: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "order_by", tuple(self.order_by))


class Query:
    """Base class of the three query forms.

    Every form is a frozen dataclass carrying ``prologue``, ``where``,
    ``modifiers`` and ``span`` (the extent of the whole query text when
    parsed, else ``None``).
    """

    __dataclass_fields__: ClassVar[dict[str, Field[Any]]]
    prologue: Prologue
    where: GroupGraphPattern
    modifiers: SolutionModifiers
    span: SourceSpan | None

    # -- introspection used by the rewriter --------------------------------- #
    def triples_blocks(self) -> Iterator[TriplesBlock]:
        """All BGPs of the WHERE clause."""
        return self.where.triples_blocks()

    def filters(self) -> Iterator[Filter]:
        """All FILTERs of the WHERE clause."""
        return self.where.filters()

    def all_triple_patterns(self) -> list[Triple]:
        return self.where.all_triple_patterns()

    def variables(self) -> set[Variable]:
        return self.where.variables()

    def serialize(self) -> str:
        """Render the query back to SPARQL text."""
        from .serializer import serialize_query

        return serialize_query(self)

    def __str__(self) -> str:
        return self.serialize()


@dataclass(frozen=True)
class SelectQuery(Query):
    """A SELECT query.

    ``projection`` holds the requested variables; an empty projection means
    ``SELECT *`` (project every visible variable).
    """

    prologue: Prologue
    projection: tuple[Variable, ...]
    where: GroupGraphPattern
    modifiers: SolutionModifiers = field(default_factory=SolutionModifiers)
    #: Source extent of each projected variable, aligned with
    #: ``projection``; empty for programmatically built queries.
    projection_spans: tuple[SourceSpan | None, ...] = field(default=(), compare=False)
    span: SourceSpan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "projection", tuple(self.projection))
        object.__setattr__(self, "projection_spans", tuple(self.projection_spans))

    @property
    def select_all(self) -> bool:
        """True for ``SELECT *``."""
        return not self.projection

    def effective_projection(self) -> list[Variable]:
        """The projected variables, expanding ``*`` to all visible variables."""
        if self.projection:
            return list(self.projection)
        return sorted(self.where.variables(), key=str)


@dataclass(frozen=True)
class AskQuery(Query):
    """An ASK query (boolean result)."""

    prologue: Prologue
    where: GroupGraphPattern
    modifiers: SolutionModifiers = field(default_factory=SolutionModifiers)
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ConstructQuery(Query):
    """A CONSTRUCT query with a template of triple patterns."""

    prologue: Prologue
    template: tuple[Triple, ...]
    where: GroupGraphPattern
    modifiers: SolutionModifiers = field(default_factory=SolutionModifiers)
    span: SourceSpan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "template", tuple(self.template))
