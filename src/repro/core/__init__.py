"""Core contribution: alignment-driven SPARQL query rewriting.

Implements the matching function, Algorithm 1 (BGP rewriting), Algorithm 2
(functional dependency instantiation), the query-level rewriter, the
FILTER-aware and algebra-level extensions discussed in Section 4, and the
mediator that selects alignments for a target dataset and drives the
rewriting.
"""

from .matcher import (
    MatchResult,
    Substitution,
    find_matches,
    match_alignment,
    match_node,
    match_triple,
)
from .index import CompiledRule, CompiledRuleSet, PatternIndex
from .rewriter import (
    FreshVariableGenerator,
    GraphPatternRewriter,
    QueryRewriter,
    RewriteError,
    RewriteReport,
    TripleRewrite,
    extend_prologue,
    instantiate_functions,
)
from .filter_rewriter import (
    EqualityConstraint,
    FilterAwareQueryRewriter,
    extract_equality_constraints,
    promote_equality_constraints,
    translate_expression_terms,
)
from .algebra_rewriter import AlgebraQueryRewriter
from .construct_generator import (
    DataTranslator,
    GeneratedConstruct,
    construct_queries_for_alignments,
    construct_query_for_alignment,
    translate_graph_uris,
)
from .mediator import MediationResult, Mediator, TargetProfile

__all__ = [
    # matching
    "Substitution", "MatchResult", "match_node", "match_triple", "match_alignment",
    "find_matches",
    # indexed matching
    "CompiledRule", "CompiledRuleSet", "PatternIndex",
    # rewriting
    "RewriteError", "FreshVariableGenerator", "TripleRewrite", "RewriteReport",
    "instantiate_functions", "extend_prologue", "GraphPatternRewriter", "QueryRewriter",
    # extensions
    "EqualityConstraint", "extract_equality_constraints", "promote_equality_constraints",
    "translate_expression_terms", "FilterAwareQueryRewriter", "AlgebraQueryRewriter",
    # CONSTRUCT-based data translation
    "GeneratedConstruct", "construct_query_for_alignment",
    "construct_queries_for_alignments", "translate_graph_uris", "DataTranslator",
    # mediation
    "Mediator", "MediationResult", "TargetProfile",
]
