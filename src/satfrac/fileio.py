"""Reading and writing fractions, tables, moves, and margin vectors.

Two fraction formats.  Grid: an optional "I J" header line (a first line
of two tokens), then I lines of J characters from {0,1}.  JSON: {"I":
int, "J": int, "points": [[i, j], ...]} with 1-based coordinates, one
object per line when streamed.  The format of an input is auto-detected:
a first non-whitespace '{' means JSON.

One render path per format: _fraction_text builds a fraction's record
from its sorted cell indices (i-1)*J + (j-1), the numbering of design's
masks and of saturation's decoder.  The CLI streams the decoder's cells
through it with no point built and nothing re-checked; render_json and
render_grid validate their points through design.fraction, number them
and call the same builder.  A JSON record is byte-for-byte what
json.dumps({"I": I, "J": J, "points": ...}) gives.  Tables and moves
render from their masks, row by row (_text_form), as grid lines or as
the JSON list of rows that json.dumps writes.
"""
from __future__ import annotations

import functools
import json
import re
import sys
from typing import Callable, Iterable

from .design import Point, Points, Table, _encode, _rows, check_size, fraction


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
    cells = _cells(points, I, J)
    text = _fraction_text("grid", I, J)(cells)
    return text if header else text.partition("\n")[2]


def render_json(points: Iterable[Point], I: int, J: int) -> str:
    """One-line JSON object for a fraction, byte-identical to json.dumps."""
    cells = _cells(points, I, J)
    return _fraction_text("json", I, J)(cells)


def _cells(points: Iterable[Point], I: int, J: int) -> list[int]:
    """The sorted cell indices of a fraction, checked by design.fraction."""
    return [(i - 1) * J + j - 1 for i, j in fraction(points, I, J)]


def _fraction_text(fmt: str, I: int, J: int) -> Callable[[list[int]], str]:
    """The record text in fmt of an I x J fraction from its sorted cell
    indices: a grid with its "I J" header, or the JSON object.  A grid
    fills a copy of one all-zero template.  A JSON record joins per-cell
    texts, each made when its cell is first emitted and kept up to a
    bound (_CellTexts), so no stream holds a table of I*J texts.  The
    size is checked first, before a template is sized from it."""
    check_size(I, J)
    if fmt == "grid":
        head = b"%d %d\n" % (I, J)
        zeros = bytearray(head + (b"0" * J + b"\n") * I)
        at = len(head)

        def text(cells):
            grid = zeros[:]
            for k in cells:
                grid[at + k + k // J] = 49  # ord("1"); a grid line holds J+1 bytes
            return grid.decode()
        return text
    cell_text = _CellTexts(J).__getitem__
    head = '{"I": %d, "J": %d, "points": [' % (I, J)
    return lambda cells: head + ", ".join(map(cell_text, cells)) + "]}"


class _CellTexts(dict):
    """Cell index -> its JSON point text "[i, j]", made on first lookup and
    kept for the first _KEPT_CELLS cells.  Many draws from a large grid
    emit most of its cells: kept without bound, the texts of 200,000
    cells of 1000 x 1000 took 31 MB under tracemalloc."""

    def __init__(self, J: int):
        self.J = J

    def __missing__(self, k: int) -> str:
        text = "[%d, %d]" % (k // self.J + 1, k % self.J + 1)
        if len(self) < _KEPT_CELLS:
            self[k] = text
        return text


_KEPT_CELLS = 1 << 16


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
