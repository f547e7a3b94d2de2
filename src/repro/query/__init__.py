"""Query engine: a small query language with an index-aware planner.

The language covers what an index editor actually asks of a publication
database::

    author:"McAteer" AND year >= 1978
    surname = "Smith" OR surname = "Smyth"
    student:true AND volume = 95 ORDER BY page LIMIT 10

Pipeline: :mod:`lexer` → :mod:`parser` (AST in :mod:`ast_nodes`) →
:mod:`planner` (chooses an index access path and a residual filter) →
:mod:`executor` (streams records out of the store, or out of every shard
of a sharded store).  ``explain()`` renders the chosen plan, which the
E3/E4 experiments rely on.
"""

from repro.query.ast_nodes import (
    And,
    Comparison,
    Expr,
    Like,
    Membership,
    Not,
    Operator,
    Or,
    Query,
)
from repro.query.lexer import Token, TokenType, tokenize_query
from repro.query.parser import parse_query
from repro.query.planner import (
    CompositeLookup,
    CompositeRange,
    FullScan,
    IndexLookup,
    IndexMultiLookup,
    IndexRange,
    Plan,
    plan_query,
)
from repro.query.executor import (
    PartialAggregate,
    PartialResult,
    QueryEngine,
)

#: The engine's old name for sharded stores, which the benchmark under
#: ``bench_e2e/`` still imports; it is the one engine.
ShardedQueryEngine = QueryEngine

__all__ = [
    "Expr",
    "Comparison",
    "Membership",
    "Like",
    "And",
    "Or",
    "Not",
    "Operator",
    "Query",
    "Token",
    "TokenType",
    "tokenize_query",
    "parse_query",
    "Plan",
    "FullScan",
    "IndexLookup",
    "IndexMultiLookup",
    "IndexRange",
    "CompositeLookup",
    "CompositeRange",
    "plan_query",
    "PartialAggregate",
    "PartialResult",
    "QueryEngine",
    "ShardedQueryEngine",
]
