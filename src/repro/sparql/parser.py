"""SPARQL parser: query text → algebra tree.

Implements the subset of SPARQL 1.1 used by the corpus's exemplar queries
and the coverage tooling: SELECT / ASK with BGPs, OPTIONAL, FILTER, UNION,
MINUS, BIND, GRAPH, property shorthand (``;`` ``,`` and ``a``), expressions
with the full operator precedence ladder, (NOT) EXISTS, IN, aggregates with
GROUP BY / HAVING, and ORDER BY / LIMIT / OFFSET.

The parser also reports which IRIREF tokens it read as the subject or
object of a triple pattern (:attr:`QueryParser.lifted`): the query
engine's plan cache swaps exactly those into a compiled tree, and keys
on the text of every other IRIREF.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..rdf.namespace import RDF, NamespaceManager
from ..rdf.terms import BlankNode, IRI, Literal, XSD, unescape_string
from .algebra import (
    Aggregate,
    And,
    Arithmetic,
    AskQuery,
    BGP,
    Bind,
    Compare,
    ConstructQuery,
    DescribeQuery,
    ExistsExpr,
    Expression,
    Filter,
    FunctionCall,
    GraphPattern,
    InExpr,
    Join,
    LeftJoin,
    Minus,
    Not,
    Or,
    OrderCondition,
    Pattern,
    PatternTerm,
    Projection,
    SelectQuery,
    TermExpr,
    TriplePattern,
    Union,
    Values,
    Var,
    VarExpr,
)
from .paths import PathAlternative, PathClosure, PathInverse, PathSequence
from .tokenizer import Scanned, Token, Tokenizer

__all__ = ["parse_query", "QueryParser", "resolve_iriref", "LiftedSite"]

#: Built-in function names the expression grammar accepts.
BUILTIN_FUNCTIONS = frozenset(
    """
    BOUND REGEX STR LANG DATATYPE IRI URI STRLEN SUBSTR UCASE LCASE
    STRSTARTS STRENDS CONTAINS CONCAT REPLACE ABS ROUND CEIL FLOOR
    YEAR MONTH DAY HOURS MINUTES SECONDS NOW COALESCE IF SAMETERM
    ISIRI ISURI ISBLANK ISLITERAL ISNUMERIC LANGMATCHES STRBEFORE STRAFTER
    """.split()
)

_AGGREGATES = frozenset({"COUNT", "SUM", "MIN", "MAX", "AVG", "SAMPLE", "GROUP_CONCAT"})
#: numeric token kind → literal datatype
_NUMERIC = {"integer": XSD.INTEGER, "decimal": XSD.DECIMAL, "double": XSD.DOUBLE}


#: A triple pattern written with an IRIREF subject and/or object: the
#: pattern and the token index of each (``None`` where it is not one).
LiftedSite = Tuple[TriplePattern, Optional[int], Optional[int]]


def parse_query(text: str, namespaces: Optional[NamespaceManager] = None):
    """Parse SPARQL text into a :class:`SelectQuery` or :class:`AskQuery`.

    *namespaces* pre-binds prefixes in addition to any PREFIX declarations
    in the query itself (the corpus queries rely on the core prefix table).
    """
    return QueryParser(text, namespaces=namespaces).parse()


def resolve_iriref(raw: str, base: str) -> IRI:
    """The IRI an IRIREF token's raw text ``<…>`` names under *base*;
    ``ValueError`` when it is not a valid IRI."""
    value = raw[1:-1]
    if base and "://" not in value and not value.startswith("urn:"):
        value = base + value
    return IRI(value)


class QueryParser:
    """*scanned* is :func:`~repro.sparql.tokenizer.scan`'s result for
    *text* when the caller has it — the query engine's, which keyed its
    plan-cache lookup on it — so a miss reads the text once."""

    def __init__(self, text: str, namespaces: Optional[NamespaceManager] = None,
                 scanned: Optional[Scanned] = None):
        self.tokens = Tokenizer(text, scanned)
        self.nsm = namespaces.copy() if namespaces is not None else NamespaceManager()
        self.base = ""
        #: Every triple pattern with an IRIREF subject or object, in
        #: parse order.  One subject token can head several patterns.
        self.lifted: List[LiftedSite] = []

    # -- top level -----------------------------------------------------------

    def parse(self):
        self._parse_prologue()
        tok = self.tokens.peek()
        if tok is None:
            raise self.tokens.error("empty query")
        if tok.is_keyword("SELECT"):
            query = self._parse_select()
        elif tok.is_keyword("ASK"):
            query = self._parse_ask()
        elif tok.is_keyword("CONSTRUCT"):
            query = self._parse_construct()
        elif tok.is_keyword("DESCRIBE"):
            query = self._parse_describe()
        else:
            raise self.tokens.error(
                f"expected SELECT, ASK, CONSTRUCT, or DESCRIBE, got {tok.text!r}", tok)
        if not self.tokens.at_end():
            stray = self.tokens.peek()
            raise self.tokens.error(f"unexpected trailing input {stray.text!r}", stray)
        return query

    def _parse_prologue(self):
        while True:
            if self.tokens.accept_keyword("PREFIX"):
                pname = self.tokens.next()
                if pname.kind != "pname" or not pname.text.endswith(":"):
                    raise self.tokens.error(
                        f"expected prefix declaration, got {pname.text!r}", pname)
                iri = self.tokens.next()
                if iri.kind != "iriref":
                    raise self.tokens.error(f"expected IRI, got {iri.text!r}", iri)
                self.nsm.bind(pname.text[:-1], iri.text[1:-1])
            elif self.tokens.accept_keyword("BASE"):
                iri = self.tokens.next()
                if iri.kind != "iriref":
                    raise self.tokens.error(f"expected IRI, got {iri.text!r}", iri)
                self.base = iri.text[1:-1]
            else:
                return

    def _parse_select(self) -> SelectQuery:
        self.tokens.expect_keyword("SELECT")
        distinct = self.tokens.accept_keyword("DISTINCT")
        if not distinct:
            self.tokens.accept_keyword("REDUCED")
        projections: List[Projection] = []
        if not self.tokens.accept_punct("*"):
            while True:
                tok = self.tokens.peek()
                if tok is None:
                    raise self.tokens.error("unterminated SELECT clause")
                if tok.kind == "var":
                    self.tokens.next()
                    projections.append(Projection(Var(tok.text)))
                elif tok.is_punct("("):
                    self.tokens.next()
                    expr = self._parse_expression()
                    self.tokens.expect_keyword("AS")
                    var_tok = self.tokens.next()
                    if var_tok.kind != "var":
                        raise self.tokens.error("expected variable after AS", var_tok)
                    self.tokens.expect_punct(")")
                    projections.append(Projection(Var(var_tok.text), expr))
                else:
                    break
            if not projections:
                tok = self.tokens.peek()
                raise self.tokens.error("SELECT clause has no projections", tok)
        self.tokens.accept_keyword("WHERE")
        where = self._parse_group_graph_pattern()
        query = SelectQuery(projections=projections, where=where, distinct=distinct)
        self._parse_solution_modifiers(query)
        return query

    def _parse_ask(self) -> AskQuery:
        self.tokens.expect_keyword("ASK")
        self.tokens.accept_keyword("WHERE")
        return AskQuery(where=self._parse_group_graph_pattern())

    def _parse_construct(self) -> ConstructQuery:
        self.tokens.expect_keyword("CONSTRUCT")
        self.tokens.expect_punct("{")
        template: List[TriplePattern] = []
        tok = self.tokens.peek()
        if tok is not None and not tok.is_punct("}"):
            template = self._parse_triples_block()
        self.tokens.expect_punct("}")
        self.tokens.accept_keyword("WHERE")
        where = self._parse_group_graph_pattern()
        query = ConstructQuery(template=template, where=where)
        if self.tokens.accept_keyword("LIMIT"):
            query.limit = self._parse_nonneg_int("LIMIT")
        if self.tokens.accept_keyword("OFFSET"):
            query.offset = self._parse_nonneg_int("OFFSET")
        return query

    def _parse_describe(self) -> DescribeQuery:
        self.tokens.expect_keyword("DESCRIBE")
        targets: List[PatternTerm] = []
        while True:
            tok = self.tokens.peek()
            if tok is None:
                break
            if tok.kind == "var":
                self.tokens.next()
                targets.append(Var(tok.text))
            elif tok.kind == "iriref":
                self.tokens.next()
                targets.append(self._resolve_iri(tok))
            elif tok.kind == "pname":
                self.tokens.next()
                targets.append(self._expand_pname(tok))
            else:
                break
        if not targets:
            raise self.tokens.error("DESCRIBE requires at least one target", self.tokens.peek())
        where = None
        tok = self.tokens.peek()
        if tok is not None and (tok.is_keyword("WHERE") or tok.is_punct("{")):
            self.tokens.accept_keyword("WHERE")
            where = self._parse_group_graph_pattern()
        return DescribeQuery(targets=targets, where=where)

    def _parse_solution_modifiers(self, query: SelectQuery):
        if self.tokens.accept_keyword("GROUP"):
            self.tokens.expect_keyword("BY")
            while True:
                tok = self.tokens.peek()
                if tok is None:
                    break
                if tok.kind == "var":
                    self.tokens.next()
                    query.group_by.append(VarExpr(Var(tok.text)))
                elif tok.is_punct("("):
                    self.tokens.next()
                    query.group_by.append(self._parse_expression())
                    self.tokens.expect_punct(")")
                else:
                    break
            if not query.group_by:
                raise self.tokens.error("GROUP BY requires at least one grouping expression", tok)
        if self.tokens.accept_keyword("HAVING"):
            self.tokens.expect_punct("(")
            query.having = self._parse_expression()
            self.tokens.expect_punct(")")
        if self.tokens.accept_keyword("ORDER"):
            self.tokens.expect_keyword("BY")
            while True:
                tok = self.tokens.peek()
                if tok is None:
                    break
                if tok.is_keyword("ASC") or tok.is_keyword("DESC"):
                    descending = tok.is_keyword("DESC")
                    self.tokens.next()
                    self.tokens.expect_punct("(")
                    expr = self._parse_expression()
                    self.tokens.expect_punct(")")
                    query.order_by.append(OrderCondition(expr, descending))
                elif tok.kind == "var":
                    self.tokens.next()
                    query.order_by.append(OrderCondition(VarExpr(Var(tok.text))))
                elif tok.is_punct("("):
                    self.tokens.next()
                    expr = self._parse_expression()
                    self.tokens.expect_punct(")")
                    query.order_by.append(OrderCondition(expr))
                else:
                    break
            if not query.order_by:
                raise self.tokens.error("ORDER BY requires at least one condition", tok)
        if self.tokens.accept_keyword("LIMIT"):
            query.limit = self._parse_nonneg_int("LIMIT")
        if self.tokens.accept_keyword("OFFSET"):
            query.offset = self._parse_nonneg_int("OFFSET")
            # LIMIT may legally follow OFFSET too.
            if self.tokens.accept_keyword("LIMIT"):
                query.limit = self._parse_nonneg_int("LIMIT")

    def _parse_nonneg_int(self, clause: str) -> int:
        tok = self.tokens.next()
        if tok.kind != "integer" or int(tok.text) < 0:
            raise self.tokens.error(f"{clause} requires a non-negative integer", tok)
        return int(tok.text)

    # -- graph patterns --------------------------------------------------------

    def _parse_group_graph_pattern(self) -> Pattern:
        self.tokens.expect_punct("{")
        current: Optional[Pattern] = None
        filters: List[Expression] = []

        def join(pattern: Pattern):
            nonlocal current
            if current is None:
                current = pattern
            elif isinstance(current, BGP) and isinstance(pattern, BGP):
                current.triples.extend(pattern.triples)
            else:
                current = Join(current, pattern)

        while True:
            tok = self.tokens.peek()
            if tok is None:
                raise self.tokens.error("unterminated group graph pattern")
            if tok.is_punct("}"):
                self.tokens.next()
                break
            if tok.is_keyword("OPTIONAL"):
                self.tokens.next()
                inner = self._parse_group_graph_pattern()
                condition = None
                if isinstance(inner, Filter):
                    inner, condition = inner.pattern, inner.condition
                base = current if current is not None else BGP()
                current = LeftJoin(base, inner, condition)
            elif tok.is_keyword("FILTER"):
                self.tokens.next()
                filters.append(self._parse_constraint())
            elif tok.is_keyword("BIND"):
                self.tokens.next()
                self.tokens.expect_punct("(")
                expr = self._parse_expression()
                self.tokens.expect_keyword("AS")
                var_tok = self.tokens.next()
                if var_tok.kind != "var":
                    raise self.tokens.error("expected variable after AS", var_tok)
                self.tokens.expect_punct(")")
                base = current if current is not None else BGP()
                current = Bind(base, Var(var_tok.text), expr)
            elif tok.is_keyword("MINUS"):
                self.tokens.next()
                inner = self._parse_group_graph_pattern()
                base = current if current is not None else BGP()
                current = Minus(base, inner)
            elif tok.is_keyword("GRAPH"):
                self.tokens.next()
                name = self._parse_var_or_term()
                inner = self._parse_group_graph_pattern()
                join(GraphPattern(name, inner))
            elif tok.is_keyword("VALUES"):
                self.tokens.next()
                values = self._parse_values()
                base = current if current is not None else BGP()
                values.pattern = base
                current = values
            elif tok.is_punct("{"):
                join(self._parse_group_or_union())
            else:
                join(BGP(self._parse_triples_block()))
            self.tokens.accept_punct(".")
        result: Pattern = current if current is not None else BGP()
        for condition in filters:
            result = Filter(result, condition)
        return result

    def _parse_values(self) -> Values:
        """VALUES ?x { ... }  or  VALUES (?x ?y) { (a b) (c d) }."""
        tok = self.tokens.peek()
        variables: List[Var] = []
        single = False
        if tok is not None and tok.kind == "var":
            self.tokens.next()
            variables = [Var(tok.text)]
            single = True
        else:
            self.tokens.expect_punct("(")
            while not self.tokens.accept_punct(")"):
                var_tok = self.tokens.next()
                if var_tok.kind != "var":
                    raise self.tokens.error(
                        f"expected variable in VALUES, got {var_tok.text!r}", var_tok)
                variables.append(Var(var_tok.text))
        if not variables:
            raise self.tokens.error("VALUES requires at least one variable", tok)
        self.tokens.expect_punct("{")
        rows: List[List] = []
        while not self.tokens.accept_punct("}"):
            if single:
                rows.append([self._parse_values_term()])
            else:
                self.tokens.expect_punct("(")
                row = []
                while not self.tokens.accept_punct(")"):
                    row.append(self._parse_values_term())
                if len(row) != len(variables):
                    raise self.tokens.error(
                        f"VALUES row has {len(row)} terms for {len(variables)} variables",
                        self.tokens.tokens[self.tokens.pos - 1])
                rows.append(row)
        return Values(variables=variables, rows=rows)

    def _parse_values_term(self):
        tok = self.tokens.peek()
        if tok is not None and tok.is_keyword("UNDEF"):
            self.tokens.next()
            return None
        term = self._parse_var_or_term()
        if isinstance(term, Var):
            raise self.tokens.error("variables are not allowed in VALUES data", tok)
        return term

    def _parse_group_or_union(self) -> Pattern:
        pattern = self._parse_group_graph_pattern()
        while self.tokens.accept_keyword("UNION"):
            right = self._parse_group_graph_pattern()
            pattern = Union(pattern, right)
        return pattern

    def _iriref_index(self) -> Optional[int]:
        """The next token's index when it is an IRIREF, else None."""
        tok = self.tokens.peek()
        return self.tokens.pos if tok is not None and tok.kind == "iriref" else None

    def _parse_triples_block(self) -> List[TriplePattern]:
        triples: List[TriplePattern] = []
        while True:
            subject_index = self._iriref_index()
            subject = self._parse_var_or_term()
            self._parse_property_list(subject, triples, subject_index)
            if not self.tokens.accept_punct("."):
                break
            tok = self.tokens.peek()
            if tok is None or tok.is_punct("}") or tok.kind == "keyword" or tok.is_punct("{"):
                break
        return triples

    def _parse_property_list(self, subject: PatternTerm, triples: List[TriplePattern],
                             subject_index: Optional[int]):
        while True:
            predicate = self._parse_verb()
            while True:
                object_index = self._iriref_index()
                obj = self._parse_var_or_term()
                pattern = TriplePattern(subject, predicate, obj)
                triples.append(pattern)
                if subject_index is not None or object_index is not None:
                    self.lifted.append((pattern, subject_index, object_index))
                if not self.tokens.accept_punct(","):
                    break
            if not self.tokens.accept_punct(";"):
                break
            nxt = self.tokens.peek()
            if nxt is None or nxt.is_punct(".") or nxt.is_punct("}") or nxt.is_punct("]"):
                break

    def _parse_verb(self) -> PatternTerm:
        tok = self.tokens.peek()
        if tok is not None and tok.kind == "var":
            self.tokens.next()
            return Var(tok.text)
        return self._parse_path()

    # -- property paths ---------------------------------------------------------

    def _parse_path(self):
        """PathAlternative: seq ('|' seq)*; returns an IRI for trivial paths."""
        options = [self._parse_path_sequence()]
        while True:
            tok = self.tokens.peek()
            if tok is not None and tok.kind == "op" and tok.text == "|":
                self.tokens.next()
                options.append(self._parse_path_sequence())
            else:
                break
        if len(options) == 1:
            return options[0]
        return PathAlternative(tuple(options))

    def _parse_path_sequence(self):
        steps = [self._parse_path_elt()]
        while True:
            tok = self.tokens.peek()
            if tok is not None and tok.kind == "op" and tok.text == "/":
                self.tokens.next()
                steps.append(self._parse_path_elt())
            else:
                break
        if len(steps) == 1:
            return steps[0]
        return PathSequence(tuple(steps))

    def _parse_path_elt(self):
        primary = self._parse_path_primary()
        tok = self.tokens.peek()
        if tok is not None and tok.kind == "op" and tok.text in ("*", "+"):
            self.tokens.next()
            return PathClosure(primary, include_zero=(tok.text == "*"))
        return primary

    def _parse_path_primary(self):
        tok = self.tokens.next()
        if tok.kind == "op" and tok.text == "^":
            return PathInverse(self._parse_path_elt())
        if tok.is_punct("("):
            path = self._parse_path()
            self.tokens.expect_punct(")")
            return path
        if tok.is_keyword("A"):
            return RDF.type
        if tok.kind == "iriref":
            return self._resolve_iri(tok)
        if tok.kind == "pname":
            return self._expand_pname(tok)
        raise self.tokens.error(f"invalid predicate or path {tok.text!r}", tok)

    def _parse_var_or_term(self) -> PatternTerm:
        tok = self.tokens.next()
        if tok.kind == "var":
            return Var(tok.text)
        if tok.kind == "iriref":
            return self._resolve_iri(tok)
        if tok.kind == "pname":
            return self._expand_pname(tok)
        if tok.kind == "bnode":
            return BlankNode(tok.text[2:])
        if tok.kind == "string":
            return self._finish_literal(tok)
        if tok.kind in _NUMERIC:
            return Literal(tok.text, datatype=_NUMERIC[tok.kind])
        if tok.is_keyword("TRUE"):
            return Literal("true", datatype=XSD.BOOLEAN)
        if tok.is_keyword("FALSE"):
            return Literal("false", datatype=XSD.BOOLEAN)
        raise self.tokens.error(f"expected term or variable, got {tok.text!r}", tok)

    def _unescape(self, tok: Token) -> str:
        try:
            return unescape_string(tok.text[1:-1])
        except ValueError as exc:
            raise self.tokens.error(f"malformed string escape: {exc}", tok) from None

    def _finish_literal(self, tok: Token) -> Literal:
        lexical = self._unescape(tok)
        nxt = self.tokens.peek()
        if nxt is not None and nxt.kind == "dtmark":
            self.tokens.next()
            dt_tok = self.tokens.next()
            if dt_tok.kind == "iriref":
                return Literal(lexical, datatype=self._resolve_iri(dt_tok))
            if dt_tok.kind == "pname":
                return Literal(lexical, datatype=self._expand_pname(dt_tok))
            raise self.tokens.error("expected datatype IRI after ^^", dt_tok)
        if nxt is not None and nxt.kind == "langtag":
            self.tokens.next()
            return Literal(lexical, language=nxt.text[1:])
        return Literal(lexical)

    def _resolve_iri(self, tok: Token) -> IRI:
        try:
            return resolve_iriref(tok.text, self.base)
        except ValueError as exc:
            raise self.tokens.error(str(exc), tok) from None

    def _expand_pname(self, tok: Token) -> IRI:
        prefix, _, local = tok.text.partition(":")
        try:
            return self.nsm.expand(f"{prefix}:{local}")
        except KeyError:
            raise self.tokens.error(f"unknown prefix {prefix!r}", tok) from None

    # -- expressions ------------------------------------------------------------

    def _parse_constraint(self) -> Expression:
        tok = self.tokens.peek()
        if tok is not None and tok.is_punct("("):
            self.tokens.next()
            expr = self._parse_expression()
            self.tokens.expect_punct(")")
            return expr
        return self._parse_primary_expression()

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while True:
            tok = self.tokens.peek()
            if tok is not None and tok.kind == "op" and tok.text == "||":
                self.tokens.next()
                left = Or(left, self._parse_and())
            else:
                return left

    def _parse_and(self) -> Expression:
        left = self._parse_relational()
        while True:
            tok = self.tokens.peek()
            if tok is not None and tok.kind == "op" and tok.text == "&&":
                self.tokens.next()
                left = And(left, self._parse_relational())
            else:
                return left

    def _parse_relational(self) -> Expression:
        left = self._parse_additive()
        tok = self.tokens.peek()
        if tok is not None and tok.kind == "op" and tok.text in ("=", "!=", "<", "<=", ">", ">="):
            self.tokens.next()
            return Compare(tok.text, left, self._parse_additive())
        if tok is not None and tok.is_keyword("IN"):
            self.tokens.next()
            return InExpr(left, self._parse_expression_list(), negated=False)
        if tok is not None and tok.is_keyword("NOT"):
            nxt = self.tokens.peek(1)
            if nxt is not None and nxt.is_keyword("IN"):
                self.tokens.next()
                self.tokens.next()
                return InExpr(left, self._parse_expression_list(), negated=True)
        return left

    def _parse_expression_list(self) -> List[Expression]:
        self.tokens.expect_punct("(")
        items: List[Expression] = []
        if not self.tokens.accept_punct(")"):
            while True:
                items.append(self._parse_expression())
                if self.tokens.accept_punct(")"):
                    break
                self.tokens.expect_punct(",")
        return items

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            tok = self.tokens.peek()
            if tok is not None and tok.kind == "op" and tok.text in ("+", "-"):
                self.tokens.next()
                left = Arithmetic(tok.text, left, self._parse_multiplicative())
            elif tok is not None and tok.kind in _NUMERIC and tok.text[0] in "+-":
                # Grammar rule [116]: the tokenizer reads ``?x+1`` as ``?x``
                # then the signed numeral ``+1``, which here is ``?x + 1``.
                self.tokens.next()
                operand = TermExpr(Literal(tok.text[1:], datatype=_NUMERIC[tok.kind]))
                left = Arithmetic(tok.text[0], left, self._parse_multiplicative(operand))
            else:
                return left

    def _parse_multiplicative(self, left: Optional[Expression] = None) -> Expression:
        if left is None:
            left = self._parse_unary()
        while True:
            tok = self.tokens.peek()
            if tok is not None and tok.kind == "op" and tok.text in ("*", "/"):
                self.tokens.next()
                left = Arithmetic(tok.text, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        tok = self.tokens.peek()
        if tok is not None and tok.kind == "op" and tok.text == "!":
            self.tokens.next()
            return Not(self._parse_unary())
        if tok is not None and tok.kind == "op" and tok.text in ("+", "-"):
            self.tokens.next()
            operand = self._parse_unary()
            if tok.text == "-":
                zero = TermExpr(Literal("0", datatype=XSD.INTEGER))
                return Arithmetic("-", zero, operand)
            return operand
        return self._parse_primary_expression()

    def _parse_primary_expression(self) -> Expression:
        tok = self.tokens.next()
        if tok.is_punct("("):
            expr = self._parse_expression()
            self.tokens.expect_punct(")")
            return expr
        if tok.kind == "var":
            return VarExpr(Var(tok.text))
        if tok.kind == "iriref":
            return TermExpr(self._resolve_iri(tok))
        if tok.kind == "string":
            return TermExpr(self._finish_literal(tok))
        if tok.kind in _NUMERIC:
            return TermExpr(Literal(tok.text, datatype=_NUMERIC[tok.kind]))
        if tok.is_keyword("TRUE"):
            return TermExpr(Literal("true", datatype=XSD.BOOLEAN))
        if tok.is_keyword("FALSE"):
            return TermExpr(Literal("false", datatype=XSD.BOOLEAN))
        if tok.is_keyword("EXISTS"):
            return ExistsExpr(self._parse_group_graph_pattern(), negated=False)
        if tok.is_keyword("NOT"):
            self.tokens.expect_keyword("EXISTS")
            return ExistsExpr(self._parse_group_graph_pattern(), negated=True)
        if tok.kind == "keyword" and tok.text in _AGGREGATES:
            return self._parse_aggregate(tok.text)
        if tok.kind == "pname":
            if ":" in tok.text:
                # Function by IRI is out of scope; treat as constant term.
                return TermExpr(self._expand_pname(tok))
            name = tok.text.upper()
            if name in BUILTIN_FUNCTIONS:
                return FunctionCall(name, self._parse_arg_list())
            raise self.tokens.error(f"unknown function {tok.text!r}", tok)
        raise self.tokens.error(f"unexpected token in expression: {tok.text!r}", tok)

    def _parse_arg_list(self) -> List[Expression]:
        self.tokens.expect_punct("(")
        args: List[Expression] = []
        if self.tokens.accept_punct(")"):
            return args
        while True:
            args.append(self._parse_expression())
            if self.tokens.accept_punct(")"):
                return args
            self.tokens.expect_punct(",")

    def _parse_aggregate(self, name: str) -> Aggregate:
        self.tokens.expect_punct("(")
        distinct = self.tokens.accept_keyword("DISTINCT")
        if name == "COUNT" and self.tokens.accept_punct("*"):
            self.tokens.expect_punct(")")
            return Aggregate("COUNT", None, distinct=distinct)
        expr = self._parse_expression()
        separator = " "
        if name == "GROUP_CONCAT" and self.tokens.accept_punct(";"):
            self.tokens.expect_keyword("SEPARATOR")
            eq = self.tokens.next()
            if not (eq.kind == "op" and eq.text == "="):
                raise self.tokens.error("expected '=' after SEPARATOR", eq)
            sep_tok = self.tokens.next()
            if sep_tok.kind != "string":
                raise self.tokens.error("SEPARATOR requires a string", sep_tok)
            separator = self._unescape(sep_tok)
        self.tokens.expect_punct(")")
        return Aggregate(name, expr, distinct=distinct, separator=separator)
