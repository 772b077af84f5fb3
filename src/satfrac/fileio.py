"""Reading and writing fractions, tables, moves, and margin vectors.

Two fraction formats.  Grid: an optional "I J" header line (a first line
of two tokens), then I lines of J characters from {0,1}.  JSON: {"I":
int, "J": int, "points": [[i, j], ...]} with 1-based coordinates, one
object per line when streamed.  The format of an input is auto-detected:
a first non-whitespace '{' means JSON.

One render path: render_json and render_grid validate their points
through design.fraction and build the text directly.  A JSON record is
byte-for-byte what json.dumps({"I": I, "J": J, "points": ...}) gives.
Tables and moves render from their masks, row by row (_text_form), as
grid lines or as the JSON list of rows that json.dumps writes.
"""
from __future__ import annotations

import functools
import json
import re
import sys
from typing import Callable, Iterable

from .design import Point, Points, Table, _encode, _rows, fraction


# An optional '-' then ASCII digits: str.isdigit() also passes '²', which int() refuses.
_is_int_token = re.compile(r"-?[0-9]+").fullmatch


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


def _parse_json(text: str) -> tuple[Points, int, int]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e.msg}", line=e.lineno, column=e.colno) from None
    if not isinstance(obj, dict):
        raise ParseError("JSON input must be an object with I, J, points")
    for key in ("I", "J", "points"):
        if key not in obj:
            raise ParseError(f"JSON input missing key {key!r}")
    I, J, raw = obj["I"], obj["J"], obj["points"]
    if type(I) is not int or type(J) is not int:
        raise ParseError("I and J must be integers")
    if not isinstance(raw, list):
        raise ParseError("points must be a list of [i, j] pairs")
    pts = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2
                and all(type(x) is int for x in entry)):
            raise ParseError(f"point {entry!r} is not an [i, j] integer pair")
        pts.append((entry[0], entry[1]))
    try:
        return fraction(pts, I, J), I, J
    except ValueError as e:
        raise ParseError(str(e)) from None


def _parse_grid(text: str) -> tuple[Points, int, int]:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    first = 0  # leading blank lines are skipped but keep their line numbers
    while first < len(lines) and not lines[first].strip():
        first += 1
    if first == len(lines):
        raise ParseError("empty input")
    header = None
    body_start = first
    tokens = lines[first].split()
    if len(tokens) == 2:  # a grid row has no inner whitespace
        if not all(map(_is_int_token, tokens)):
            raise ParseError(
                f"bad header {lines[first].strip()!r}: expected two integers I J", line=first + 1
            )
        header = (int(tokens[0]), int(tokens[1]))
        body_start = first + 1
    body = lines[body_start:]
    if not body:
        raise ParseError("header without grid rows", line=first + 1)
    if header is not None and len(body) != header[0]:
        raise ParseError(
            f"header says {header[0]} rows but the grid has {len(body)}", line=first + 1
        )
    I = len(body)
    J = header[1] if header is not None else len(body[0].strip())
    pts = []
    for r, rawline in enumerate(body):
        lineno = body_start + r + 1
        row = rawline.strip()
        if len(row) != J:
            raise ParseError(f"expected {J} characters, found {len(row)}", line=lineno)
        for c, ch in enumerate(row):
            if ch == "1":
                pts.append((r + 1, c + 1))
            elif ch != "0":
                raise ParseError(f"invalid character {ch!r}", line=lineno, column=c + 1)
    try:
        return fraction(pts, I, J), I, J
    except ValueError as e:
        raise ParseError(str(e)) from None


def parse_fraction_text(text: str) -> tuple[Points, int, int]:
    """Parse either format, returning (points, I, J)."""
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty input")
    if stripped[0] == "{":
        return _parse_json(text)
    return _parse_grid(text)


def parse_fraction_file(path: str) -> tuple[Points, int, int]:
    """Read a fraction from a file path, or standard input for '-'."""
    if path == "-":
        return parse_fraction_text(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_fraction_text(fh.read())
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None


def parse_margin_vector(text: str) -> tuple[int, ...]:
    """Comma-separated margin list, e.g. '3,1,2'."""
    parts = [p.strip() for p in text.split(",")]
    if not all(map(_is_int_token, parts)):
        raise ParseError(f"bad margin list {text!r}: expected comma-separated integers")
    return tuple(int(p) for p in parts)


def render_grid(points: Iterable[Point], I: int, J: int, header: bool = True) -> str:
    """Grid text of a fraction, newline-terminated, header included by default."""
    f = fraction(points, I, J)
    grid = bytearray(b"0" * J + b"\n") * I
    for i, j in f:
        grid[(i - 1) * (J + 1) + j - 1] = 49  # ord("1")
    body = grid.decode()
    return f"{I} {J}\n{body}" if header else body


def render_json(points: Iterable[Point], I: int, J: int) -> str:
    """One-line JSON object for a fraction, byte-identical to json.dumps."""
    f = fraction(points, I, J)
    return '{"I": %d, "J": %d, "points": [%s]}' % (I, J, ", ".join(map("[%d, %d]".__mod__, f)))


def render_signed_table(table: Table) -> str:
    """Grid text of a move, one line of space-separated entries per row,
    rendered from its masks in design's codec; a move with no cell is refused."""
    I, J, masks = _encode(table, "move", (0, 1, -1))
    if not I * J:
        raise ValueError(f"move is {I} x {J}: it has no cells")
    row, join = _text_form("grid", J, signed=True)
    return join(_rows(I, J, row, *masks))


def _text_form(fmt: str, J: int, signed: bool = False) -> tuple[Callable[..., str], Callable]:
    """(row, join) for grids of width J in fmt: a row's text from its J-bit
    slice, bit 0 first (a move row's from its plus and minus slices), and a
    grid's from its rows'.  Move row texts are memoised: a move's row holds
    one 1 and one -1 or none, so there are at most J*(J-1) + 1 of them."""
    spec, sep = f"0{J}b", ", " if fmt == "json" else " " if signed else ""
    if signed:
        row = functools.cache(lambda p, m: sep.join(
            ["-1" if b == "1" else a for a, b in zip(format(p, spec)[::-1], format(m, spec)[::-1])]))
    else:
        row = lambda mask: sep.join(format(mask, spec)[::-1])
    return row, _JOIN[fmt]


_JOIN = {"grid": lambda rows: "\n".join(rows) + "\n",
         "json": lambda rows: "[[%s]]" % "], [".join(rows)}
