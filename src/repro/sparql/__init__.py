"""SPARQL substrate: tokenizer, parser, AST, algebra, evaluator, results.

This package substitutes for the Jena ARQ library used by the original
system (see DESIGN.md): it gives the rewriting engine access to the query
structure (Section 3.1's anatomy — result form, basic graph patterns and
filters) and lets the federation layer execute queries against in-memory
graphs standing in for remote endpoints.
"""

from .ast import (
    AskQuery,
    BinaryExpression,
    ConstructQuery,
    ExistsExpression,
    Expression,
    Filter,
    FunctionCall,
    GroupGraphPattern,
    InlineData,
    OptionalPattern,
    OrderCondition,
    Prologue,
    Query,
    SelectQuery,
    SolutionModifiers,
    TermExpression,
    TriplesBlock,
    UnaryExpression,
    UnionPattern,
    VariableExpression,
)
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
    algebra_to_group,
    to_sexpr,
    translate_group,
    translate_query,
)
from .evaluator import (
    ENGINES,
    QueryEvaluator,
    evaluate_group,
    evaluate_query,
    match_bgp,
    ordered_bgp_patterns,
)
from .exec import (
    RUN_EVENTS_ENV,
    ExecConfig,
    QueryRunEvent,
    compile_naive_query,
    compile_planner_query,
)
from .plan import CardinalityEstimator, QueryPlanner
from .expressions import (
    ExpressionError,
    effective_boolean_value,
    evaluate_expression,
    expression_satisfied,
)
from .formats import (
    ASK_MEDIA_TYPES,
    FormatError,
    GRAPH_MEDIA_TYPES,
    RESULT_MEDIA_TYPES,
    negotiate,
    parse_results,
    write_results,
)
from .analysis import (
    AnalysisResult,
    Diagnostic,
    DIAGNOSTIC_CODES,
    FederationAnalysis,
    QueryAnalysisError,
    analyze_federation,
    analyze_query,
    prune_query,
    render_diagnostics,
)
from .parser import SparqlParseError, SparqlParser, parse_query
from .results import AskResult, Binding, ResultSet, TermSerializationError
from .serializer import serialize_expression, serialize_pattern_group, serialize_query
from .tokenizer import SourceSpan, SparqlLexError, SparqlToken, tokenize_sparql

__all__ = [
    # parsing
    "SparqlParser", "SparqlParseError", "parse_query",
    "SparqlToken", "SparqlLexError", "tokenize_sparql", "SourceSpan",
    # static analysis
    "Diagnostic", "AnalysisResult", "FederationAnalysis", "QueryAnalysisError",
    "DIAGNOSTIC_CODES", "analyze_query", "analyze_federation", "prune_query",
    "render_diagnostics",
    # AST
    "Query", "SelectQuery", "AskQuery", "ConstructQuery",
    "Prologue", "SolutionModifiers", "OrderCondition",
    "GroupGraphPattern", "TriplesBlock", "Filter", "OptionalPattern", "UnionPattern",
    "InlineData",
    "Expression", "TermExpression", "VariableExpression", "BinaryExpression",
    "UnaryExpression", "FunctionCall", "ExistsExpression",
    # algebra
    "AlgebraNode", "AlgebraBGP", "AlgebraJoin", "AlgebraLeftJoin", "AlgebraUnion",
    "AlgebraFilter", "AlgebraProject", "AlgebraDistinct", "AlgebraOrderBy", "AlgebraSlice",
    "AlgebraTable",
    "translate_query", "translate_group", "algebra_to_group", "to_sexpr",
    # evaluation
    "ENGINES", "QueryEvaluator", "evaluate_query", "evaluate_group", "match_bgp",
    "ordered_bgp_patterns",
    # batched execution core
    "ExecConfig", "QueryRunEvent", "RUN_EVENTS_ENV",
    "compile_planner_query", "compile_naive_query",
    "ExpressionError", "evaluate_expression", "expression_satisfied",
    "effective_boolean_value",
    # planning
    "QueryPlanner", "CardinalityEstimator",
    # results
    "Binding", "ResultSet", "AskResult", "TermSerializationError",
    # wire formats
    "FormatError", "write_results", "parse_results", "negotiate",
    "RESULT_MEDIA_TYPES", "ASK_MEDIA_TYPES", "GRAPH_MEDIA_TYPES",
    # serialisation
    "serialize_query", "serialize_expression", "serialize_pattern_group",
]
