"""SPARQL engine: tokenizer, parser, algebra, evaluator, introspection.

The subset implemented covers everything the corpus's exemplar queries and
coverage tooling need: SELECT/ASK, BGPs with join reordering, OPTIONAL,
FILTER (full expression grammar + built-ins), UNION, MINUS, BIND, GRAPH,
(NOT) EXISTS/IN, aggregates with GROUP BY/HAVING, ORDER BY and slicing.
Each query compiles into one operator tree (``repro.sparql.plan``): the
tree the engine runs is the one EXPLAIN renders, with a deterministic
digest, and PROFILE times, with per-operator execution statistics.
"""

from .algebra import AskQuery, SelectQuery, Var
from .evaluator import (
    DEFAULT_RESULT_CACHE_SIZE,
    QueryEngine,
    plan_bgp_steps,
)
from .parser import parse_query
from .plan import QueryPlan, QueryProfile
from .results import ResultRow, ResultTable
from .tokenizer import SparqlSyntaxError

__all__ = [
    "QueryEngine",
    "DEFAULT_RESULT_CACHE_SIZE",
    "parse_query",
    "plan_bgp_steps",
    "QueryPlan",
    "QueryProfile",
    "ResultTable",
    "ResultRow",
    "SelectQuery",
    "AskQuery",
    "Var",
    "SparqlSyntaxError",
]
