"""SPARQL result tables: SELECT solutions with export helpers.

Results are materialized (the corpus datasets are memory-resident), which
keeps the API simple: a :class:`ResultTable` is a sequence of
:class:`ResultRow` objects supporting name and index access, conversion to
plain Python values, CSV, and the SPARQL 1.1 JSON results format.
"""

from __future__ import annotations

import csv
import io
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, Iterator, List

from ..rdf.terms import BlankNode, IRI, Literal

__all__ = ["ResultRow", "ResultTable", "SPARQL_JSON", "CSV"]

#: The two media types a :class:`ResultTable` serialises to.
SPARQL_JSON = "application/sparql-results+json"
CSV = "text/csv"


class ResultRow:
    """One solution: variable name → RDF term (missing = unbound)."""

    __slots__ = ("_vars", "_binding")

    def __init__(self, variables: List[str], binding: Dict[str, Any]):
        self._vars = variables
        self._binding = binding

    def __getitem__(self, key):
        if isinstance(key, int):
            key = self._vars[key]
        return self._binding.get(key)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return self._binding.get(name)

    def get(self, key: str, default=None):
        value = self._binding.get(key)
        return value if value is not None else default

    def asdict(self) -> Dict[str, Any]:
        return dict(self._binding)

    def python(self) -> Dict[str, Any]:
        """Binding with literals converted to native Python values."""
        out: Dict[str, Any] = {}
        for name, term in self._binding.items():
            if isinstance(term, Literal):
                out[name] = term.to_python()
            elif isinstance(term, IRI):
                out[name] = term.value
            elif isinstance(term, BlankNode):
                out[name] = str(term)
            else:
                out[name] = term
        return out

    def __iter__(self):
        return iter(self._binding.get(v) for v in self._vars)

    def __len__(self) -> int:
        return len(self._vars)

    def __eq__(self, other) -> bool:
        if isinstance(other, ResultRow):
            return self._binding == other._binding
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._binding.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"?{v}={self._binding.get(v)}" for v in self._vars)
        return f"ResultRow({inner})"


class ResultTable:
    """An ordered collection of solutions to a SELECT query."""

    def __init__(self, variables: List[str], rows: List[Dict[str, Any]]):
        self.variables = variables
        self._rows = [ResultRow(variables, row) for row in rows]
        self._encoded: Dict[str, bytes] = {}

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __getitem__(self, index: int) -> ResultRow:
        return self._rows[index]

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Rows as dicts of native Python values."""
        return [row.python() for row in self._rows]

    def column(self, name: str) -> List[Any]:
        """All values of one variable (native Python), unbound as None."""
        out = []
        for row in self._rows:
            term = row.get(name)
            if isinstance(term, Literal):
                out.append(term.to_python())
            elif isinstance(term, IRI):
                out.append(term.value)
            elif term is None:
                out.append(None)
            else:
                out.append(str(term))
        return out

    def to_csv(self) -> str:
        """SPARQL 1.1 CSV results (header row of variable names)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.variables)
        for row in self._rows:
            writer.writerow(["" if v is None else _plain(v) for v in row])
        return buffer.getvalue()

    def to_json(self) -> str:
        """SPARQL 1.1 Query Results JSON format.

        The text is ``json.dumps(document, indent=2, sort_keys=True)``,
        written directly: with an indent that call runs the pure-Python
        encoder, which escapes and lays out every cell anew.  Here each
        distinct term is rendered once per table and its fragment reused,
        and each row lists its bound variables in sorted order.
        """
        if self.variables:
            head = "[\n" + ",\n".join(
                "      " + _quote(name) for name in self.variables) + "\n    ]"
        else:
            head = "[]"
        keys = [(name, "\n        " + _quote(name) + ": ")
                for name in sorted(set(self.variables))]
        fragments: Dict[Any, str] = {}
        entries = []
        for row in self._rows:
            binding = row._binding
            cells = []
            for name, key in keys:
                term = binding.get(name)
                if term is None:
                    continue
                fragment = fragments.get(term)
                if fragment is None:
                    fragment = fragments[term] = _term_fragment(term)
                cells.append(key + fragment)
            entries.append("{" + ",".join(cells) + "\n      }" if cells else "{}")
        if entries:
            bindings = "[\n      " + ",\n      ".join(entries) + "\n    ]"
        else:
            bindings = "[]"
        return ('{\n  "head": {\n    "vars": ' + head
                + '\n  },\n  "results": {\n    "bindings": ' + bindings
                + "\n  }\n}")

    def encoded(self, media_type: str) -> bytes:
        """:meth:`to_json` (``SPARQL_JSON``) or :meth:`to_csv` (``CSV``) as
        UTF-8 bytes, serialised on first use and kept on the table.

        A table is never mutated once built, so the bytes stay right for
        as long as the table lives: an engine result cache that holds the
        table holds its bytes too, and evicts them with it.  Two threads
        racing on the first use both compute the same bytes.
        """
        data = self._encoded.get(media_type)
        if data is None:
            if media_type == SPARQL_JSON:
                text = self.to_json()
            elif media_type == CSV:
                text = self.to_csv()
            else:
                raise ValueError(f"no serialisation for media type {media_type!r}")
            data = self._encoded[media_type] = text.encode("utf-8")
        return data

    def pretty(self, max_width: int = 60) -> str:
        """Fixed-width text table for console output."""
        headers = [f"?{v}" for v in self.variables]
        body = [["" if v is None else _plain(v) for v in row] for row in self._rows]
        clipped = [[cell[:max_width] for cell in row] for row in body]
        widths = [len(h) for h in headers]
        for row in clipped:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
        for row in clipped:
            lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<ResultTable {len(self._rows)} rows x {len(self.variables)} vars>"


def _plain(term) -> str:
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, IRI):
        return term.value
    return str(term)


def _term_fragment(term) -> str:
    """One term's JSON object as :meth:`ResultTable.to_json` nests it
    (keys sorted, fields at the cell's indent)."""
    if isinstance(term, IRI):
        fields = ['"type": "uri"', '"value": ' + _quote(term.value)]
    elif isinstance(term, BlankNode):
        fields = ['"type": "bnode"', '"value": ' + _quote(term.id)]
    else:
        fields = ['"type": "literal"', '"value": ' + _quote(term.lexical)]
        if term.language:
            fields.append('"xml:lang": ' + _quote(term.language))
        elif term.datatype.value != "http://www.w3.org/2001/XMLSchema#string":
            fields.insert(0, '"datatype": ' + _quote(term.datatype.value))
    return "{\n          " + ",\n          ".join(fields) + "\n        }"
