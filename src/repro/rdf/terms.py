"""RDF term model: IRIs, blank nodes, and literals.

This module implements the node types of the RDF 1.1 abstract syntax
(https://www.w3.org/TR/rdf11-concepts/).  Terms are immutable, hashable
values so they can be used directly as dictionary keys inside the triple
indexes of :mod:`repro.rdf.graph`.

The provenance corpus stores most values as typed literals (``xsd:dateTime``
for activity timestamps, ``xsd:integer``/``xsd:double`` for data values), so
literals carry full datatype handling, including conversion to and from
native Python values via :func:`Literal.to_python` and :func:`from_python`.
"""

from __future__ import annotations

import datetime as _dt
import re
from typing import Any, Optional, Union

__all__ = [
    "Term",
    "IRI",
    "BlankNode",
    "Literal",
    "XSD",
    "from_python",
    "is_valid_iri",
]


class XSD:
    """IRIs of the XML Schema datatypes used by the corpus."""

    _BASE = "http://www.w3.org/2001/XMLSchema#"

    STRING = _BASE + "string"
    BOOLEAN = _BASE + "boolean"
    INTEGER = _BASE + "integer"
    LONG = _BASE + "long"
    INT = _BASE + "int"
    DECIMAL = _BASE + "decimal"
    DOUBLE = _BASE + "double"
    FLOAT = _BASE + "float"
    DATETIME = _BASE + "dateTime"
    DATE = _BASE + "date"
    TIME = _BASE + "time"
    DURATION = _BASE + "duration"
    ANYURI = _BASE + "anyURI"

    NUMERIC = frozenset({INTEGER, LONG, INT, DECIMAL, DOUBLE, FLOAT})


_IRI_FORBIDDEN = re.compile(r"[\x00-\x20<>\"{}|^`\\]")

# RDF 1.1: language-tagged strings use this datatype implicitly.
_RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"


def is_valid_iri(value: str) -> bool:
    """Return True if *value* is usable as an IRI reference.

    This is a pragmatic check (no control characters, no characters that
    Turtle/N-Triples would require escaping in an IRIREF, and a scheme or
    relative form), not a full RFC 3987 validation.
    """
    if not value:
        return False
    return _IRI_FORBIDDEN.search(value) is None


class Term:
    """Base class for all RDF terms.

    Terms compare by value and sort deterministically across kinds
    (blank nodes < IRIs < literals), which keeps serializer output stable —
    an important property for the corpus, whose files are regenerated and
    diffed between builds.
    """

    __slots__ = ()

    _SORT_RANK = 0

    def n3(self) -> str:
        """Return the N-Triples/Turtle token for this term."""
        raise NotImplementedError

    def sort_key(self) -> tuple:
        return (self._SORT_RANK, str(self))

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() < other.sort_key()


class IRI(Term):
    """An IRI reference (RDF 1.1 "IRI")."""

    __slots__ = ("value",)

    _SORT_RANK = 1

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise TypeError(f"IRI value must be str, got {type(value).__name__}")
        if not is_valid_iri(value):
            raise ValueError(f"invalid IRI: {value!r}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("IRI is immutable")

    def __reduce__(self):
        # __slots__ + a blocking __setattr__ defeat the default pickle
        # path; rebuild through __init__ (terms cross process boundaries
        # in the parallel corpus build).
        return (IRI, (self.value,))

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"IRI({self.value!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IRI) and other.value == self.value

    def __hash__(self) -> int:
        # the str caches its own hash: no tuple per call
        return hash(self.value)

    def n3(self) -> str:
        return f"<{self.value}>"

    @property
    def local_name(self) -> str:
        """The part of the IRI after the last ``#`` or ``/``."""
        value = self.value
        for sep in ("#", "/"):
            if sep in value:
                tail = value.rsplit(sep, 1)[1]
                if sep == "#" or tail:
                    return tail
        return value

    @property
    def namespace(self) -> str:
        """The IRI up to and including the last ``#`` or ``/``."""
        return self.value[: len(self.value) - len(self.local_name)]


class BlankNode(Term):
    """An RDF blank node with a local identifier.

    Identifiers are scoped to a document; the corpus serializers keep them
    stable so re-serialization round-trips.
    """

    __slots__ = ("id",)

    _SORT_RANK = 0
    _counter = 0

    def __init__(self, node_id: Optional[str] = None):
        if node_id is None:
            BlankNode._counter += 1
            node_id = f"b{BlankNode._counter}"
        if not isinstance(node_id, str) or not node_id:
            raise ValueError("blank node id must be a non-empty string")
        if not re.fullmatch(r"[A-Za-z0-9_.\-]+", node_id):
            raise ValueError(f"invalid blank node id: {node_id!r}")
        object.__setattr__(self, "id", node_id)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("BlankNode is immutable")

    def __reduce__(self):
        return (BlankNode, (self.id,))

    def __str__(self) -> str:
        return f"_:{self.id}"

    def __repr__(self) -> str:
        return f"BlankNode({self.id!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BlankNode) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("BlankNode", self.id))

    def n3(self) -> str:
        return f"_:{self.id}"

    @classmethod
    def reset_counter(cls) -> None:
        """Reset the automatic id counter (used by deterministic builds)."""
        cls._counter = 0


_DT_RE = re.compile(
    r"(?P<y>-?\d{4,})-(?P<mo>\d{2})-(?P<d>\d{2})T"
    r"(?P<h>\d{2}):(?P<mi>\d{2}):(?P<s>\d{2})(?P<frac>\.\d+)?"
    r"(?P<tz>Z|[+-]\d{2}:\d{2})?"
)


class Literal(Term):
    """An RDF literal: lexical form + datatype IRI, or a language-tagged string."""

    __slots__ = ("lexical", "datatype", "language")

    _SORT_RANK = 2

    def __init__(
        self,
        lexical: str,
        datatype: Optional[Union[str, IRI]] = None,
        language: Optional[str] = None,
    ):
        if not isinstance(lexical, str):
            raise TypeError("literal lexical form must be str")
        if language is not None and datatype is not None:
            raise ValueError("a literal cannot have both a language tag and a datatype")
        if language is not None:
            if not re.fullmatch(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*", language):
                raise ValueError(f"invalid language tag: {language!r}")
            language = language.lower()
            dt_value = _RDF_LANGSTRING
        elif datatype is None:
            dt_value = XSD.STRING
        else:
            dt_value = datatype.value if isinstance(datatype, IRI) else str(datatype)
            if not is_valid_iri(dt_value):
                raise ValueError(f"invalid datatype IRI: {dt_value!r}")
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", IRI(dt_value))
        object.__setattr__(self, "language", language)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Literal is immutable")

    def __reduce__(self):
        if self.language is not None:
            return (Literal, (self.lexical, None, self.language))
        return (Literal, (self.lexical, self.datatype.value))

    def __str__(self) -> str:
        return self.lexical

    def __repr__(self) -> str:
        if self.language:
            return f"Literal({self.lexical!r}, language={self.language!r})"
        if self.datatype.value == XSD.STRING:
            return f"Literal({self.lexical!r})"
        return f"Literal({self.lexical!r}, datatype={self.datatype.value!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and other.lexical == self.lexical
            and other.datatype == self.datatype
            and other.language == self.language
        )

    def __hash__(self) -> int:
        # the strs cache their own hashes: no tuple per call.  The
        # language tag is left out: literals differing only in it share
        # a bucket, and __eq__ tells them apart.
        return hash(self.lexical) ^ hash(self.datatype.value)

    def n3(self) -> str:
        escaped = escape_string(self.lexical)
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype.value == XSD.STRING:
            return f'"{escaped}"'
        return f'"{escaped}"^^<{self.datatype.value}>'

    @property
    def is_numeric(self) -> bool:
        return self.datatype.value in XSD.NUMERIC

    def to_python(self) -> Any:
        """Convert to the natural Python value for the literal's datatype.

        Unknown datatypes and malformed lexical forms fall back to the
        lexical string, mirroring SPARQL's treatment of ill-typed literals.
        """
        dt = self.datatype.value
        try:
            if dt == XSD.BOOLEAN:
                if self.lexical in ("true", "1"):
                    return True
                if self.lexical in ("false", "0"):
                    return False
                return self.lexical
            if dt in (XSD.INTEGER, XSD.LONG, XSD.INT):
                return int(self.lexical)
            if dt in (XSD.DECIMAL, XSD.DOUBLE, XSD.FLOAT):
                return float(self.lexical)
            if dt == XSD.DATETIME:
                return parse_datetime(self.lexical)
            if dt == XSD.DATE:
                return _dt.date.fromisoformat(self.lexical)
        except (ValueError, TypeError):
            return self.lexical
        return self.lexical

    def sort_key(self) -> tuple:
        return (self._SORT_RANK, self.datatype.value, self.lexical, self.language or "")


def parse_datetime(lexical: str) -> _dt.datetime:
    """Parse an ``xsd:dateTime`` lexical form into an aware/naive datetime."""
    match = _DT_RE.fullmatch(lexical)
    if match is None:
        raise ValueError(f"invalid xsd:dateTime: {lexical!r}")
    micro = 0
    if match.group("frac"):
        micro = int(round(float(match.group("frac")) * 1_000_000))
    tz = None
    tz_text = match.group("tz")
    if tz_text == "Z":
        tz = _dt.timezone.utc
    elif tz_text:
        sign = 1 if tz_text[0] == "+" else -1
        hours, minutes = int(tz_text[1:3]), int(tz_text[4:6])
        tz = _dt.timezone(sign * _dt.timedelta(hours=hours, minutes=minutes))
    return _dt.datetime(
        int(match.group("y")),
        int(match.group("mo")),
        int(match.group("d")),
        int(match.group("h")),
        int(match.group("mi")),
        int(match.group("s")),
        micro,
        tzinfo=tz,
    )


def format_datetime(value: _dt.datetime) -> str:
    """Format a datetime as a canonical ``xsd:dateTime`` lexical form."""
    text = value.strftime("%Y-%m-%dT%H:%M:%S")
    if value.microsecond:
        text += f".{value.microsecond:06d}".rstrip("0")
    if value.tzinfo is not None:
        offset = value.utcoffset()
        if offset == _dt.timedelta(0):
            text += "Z"
        else:
            total = int(offset.total_seconds())
            sign = "+" if total >= 0 else "-"
            total = abs(total)
            text += f"{sign}{total // 3600:02d}:{(total % 3600) // 60:02d}"
    return text


_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\b": "\\b",
    "\f": "\\f",
}


def escape_string(value: str) -> str:
    """Escape a string for use inside a double-quoted Turtle/N-Triples literal."""
    out = []
    for ch in value:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def unescape_string(value: str) -> str:
    """Reverse :func:`escape_string` (used by the parsers)."""
    out = []
    i = 0
    n = len(value)
    reverse = {v[1]: k for k, v in _ESCAPES.items()}
    while i < n:
        ch = value[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise ValueError("dangling escape at end of string")
        nxt = value[i + 1]
        if nxt in reverse:
            out.append(reverse[nxt])
            i += 2
        elif nxt == "u":
            out.append(chr(int(value[i + 2 : i + 6], 16)))
            i += 6
        elif nxt == "U":
            out.append(chr(int(value[i + 2 : i + 10], 16)))
            i += 10
        else:
            raise ValueError(f"unknown escape: \\{nxt}")
    return "".join(out)


def from_python(value: Any) -> Literal:
    """Build a typed literal from a native Python value.

    Booleans must be tested before integers (``bool`` subclasses ``int``).
    """
    if isinstance(value, Literal):
        return value
    if isinstance(value, bool):
        return Literal("true" if value else "false", datatype=XSD.BOOLEAN)
    if isinstance(value, int):
        return Literal(str(value), datatype=XSD.INTEGER)
    if isinstance(value, float):
        return Literal(repr(value), datatype=XSD.DOUBLE)
    if isinstance(value, _dt.datetime):
        return Literal(format_datetime(value), datatype=XSD.DATETIME)
    if isinstance(value, _dt.date):
        return Literal(value.isoformat(), datatype=XSD.DATE)
    if isinstance(value, str):
        return Literal(value)
    raise TypeError(f"cannot convert {type(value).__name__} to an RDF literal")
