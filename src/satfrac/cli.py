"""Command-line interface.

Thirteen verbs, one library call each.  Exit codes: 0 for success (for
`check`, saturated; for `verify`, connected), 1 for a negative outcome or
an exceeded cap (on enumerated items, or on `matrix` entries), 2 for
unusable input (bad files, bad margins, bad flags, or a failed
`--oracle` cross-check).

Verbs that produce one result (`check`, `matrix`, `det`, `count`,
`decompose`, `find-cycle`, `verify`) take `--json` and then emit a report
object {status, payload, diagnostics}.  Verbs that produce streams
(`enumerate`, `generate`, `sample`, `basis`, `walk`, `fiber`) all write
through one writer: one record per line as JSON, or blank-line-separated
grids with `--format grid`.  `generate --margins A B` is another spelling
of `enumerate --margins A B`, which needs no `--I/--J`.  `--cap` bounds
the items a verb may enumerate, fixed-margin fractions included, and
defaults to DEFAULT_CAP.  All randomness comes from `--seed`; repeated
invocations are byte-identical.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import random
import sys

from .design import DEFAULT_CAP, CapExceeded, _mask, _tables, check_margins
from .linalg import (
    full_model_matrix,
    integer_determinant,
    is_saturated_by_determinant,
    model_matrix,
)
from .cycles import decompose_cycle, find_cycle
from .saturation import (_all_cells, _margin_cells, _sample_cells, count_saturated,
                         count_with_margins)
from .markov import _fiber_stream, _walk_from, markov_basis, verify_connectivity
from .fileio import ParseError, _fraction_text, _text_form, parse_fraction_file, parse_margin_vector


def _report(args, ok: bool, payload: dict, human: str, notes: list[str] | None = None) -> int:
    if getattr(args, "json", False):
        doc = {
            "status": "ok" if ok else "fail",
            "payload": payload,
            "diagnostics": notes if notes is not None else ([] if ok else [human]),
        }
        print(json.dumps(doc))
    else:
        print(human)
    return 0 if ok else 1


def _margins_pair(args) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a, b = args.margins
    return parse_margin_vector(a), parse_margin_vector(b)


def _size_or_margins(args):
    """(I, J, margins): the shape of --margins, checked against any --I/--J,
    with margins the parsed pair; else --I and --J, with margins None."""
    if args.margins is not None:
        mA, mB = _margins_pair(args)
        for flag, given, vec, side in (("--I", args.I, mA, "A"), ("--J", args.J, mB, "B")):
            if given is not None and given != len(vec):
                raise ParseError(f"{flag} {given} conflicts with a {len(vec)}-entry {side} margin list")
        return len(mA), len(mB), (mA, mB)
    if args.I is None or args.J is None:
        raise ParseError(f"{args.verb} needs --I and --J, or --margins")
    return args.I, args.J, None


def _stream(texts, fmt: str) -> int:
    """Write each record's text as it comes: JSON records one per line,
    grid blocks (each ending in a newline) with one blank line between."""
    if fmt == "grid":  # a blank line before every block but the first
        texts = itertools.chain(itertools.islice(texts, 1), map("\n".__add__, texts))
    else:
        texts = map(operator.add, texts, itertools.repeat("\n"))
    write = sys.stdout.write
    for text in texts:
        write(text)
    return 0


def cmd_check(args) -> int:
    points, I, J = parse_fraction_file(args.file)
    need = I + J - 1
    if len(points) != need:
        payload = {"saturated": False, "points": len(points), "required": need, "cycle": None}
        return _report(args, False, payload, f"wrong size: {len(points)} points, expected {need}")
    cycle = find_cycle(points)
    saturated = cycle is None
    if args.oracle and is_saturated_by_determinant(points, I, J) != saturated:
        print("error: cycle test and determinant test disagree; this is a bug", file=sys.stderr)
        return 2
    payload = {
        "saturated": saturated,
        "points": len(points),
        "required": need,
        "cycle": None if cycle is None else [list(p) for p in cycle],
    }
    human = "saturated" if saturated else f"not saturated: cycle = {list(cycle)}"
    return _report(args, saturated, payload, human)


def cmd_matrix(args) -> int:
    if args.file is not None:
        if args.I is not None or args.J is not None:
            raise ParseError("give a fraction file or --I/--J, not both")
        points, I, J = parse_fraction_file(args.file)
        m = model_matrix(points, I, J)
    else:
        if args.I is None or args.J is None:
            raise ParseError("matrix needs a fraction file or both --I and --J")
        I, J = args.I, args.J
        m = full_model_matrix(I, J)
    if args.json:  # build only the form that is printed; entries are 0/1
        return _report(args, True, {"rows": len(m), "cols": I + J - 1, "matrix": list(map(list, m))}, "")
    return _report(args, True, {}, "\n".join([" ".join(map((" 0", " 1").__getitem__, row)) for row in m]))


def cmd_det(args) -> int:
    points, I, J = parse_fraction_file(args.file)
    if len(points) != I + J - 1:
        raise ParseError(f"det needs I+J-1 = {I + J - 1} points, got {len(points)}")
    d = integer_determinant(model_matrix(points, I, J))
    return _report(args, True, {"determinant": d, "saturated": d != 0}, str(d))


def cmd_count(args) -> int:
    I, J, margins = _size_or_margins(args)
    n = count_saturated(I, J) if margins is None else count_with_margins(*margins)
    # An exact count can pass the interpreter's limit on int-to-text digits
    # (4300 by default; 0 means none, and Pythons before 3.10.7 have none):
    # lift it for this output only.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _report(args, True, {"count": n}, str(n))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def cmd_enumerate(args) -> int:
    I, J, margins = _size_or_margins(args)
    if margins is None:
        trees = _all_cells(I, J, args.cap)
    else:
        total = count_with_margins(*margins)
        if total > args.cap:
            raise CapExceeded(f"{total} saturated fractions exceed the cap of {args.cap}")
        trees = _margin_cells(*margins)
    return _stream(map(_fraction_text(args.format, I, J), trees), args.format)


def cmd_sample(args) -> int:
    if args.count < 1:
        raise ParseError("--count must be at least 1")
    I, J, rng = args.I, args.J, random.Random(args.seed)
    draws = (_sample_cells(I, J, rng) for _ in range(args.count))
    return _stream(map(_fraction_text(args.format, I, J), draws), args.format)


def cmd_decompose(args) -> int:
    points, _, _ = parse_fraction_file(args.file)
    part1, part2 = decompose_cycle(points)
    human = "part 1: " + " ".join(f"({i},{j})" for i, j in part1)
    human += "\npart 2: " + " ".join(f"({i},{j})" for i, j in part2)
    payload = {"part1": [list(p) for p in part1], "part2": [list(p) for p in part2]}
    return _report(args, True, payload, human)


def cmd_find_cycle(args) -> int:
    points, _, _ = parse_fraction_file(args.file)
    cycle = find_cycle(points)
    payload = {"cycle": None if cycle is None else [list(p) for p in cycle]}
    human = "no cycle" if cycle is None else f"cycle = {list(cycle)}"
    return _report(args, True, payload, human)


def cmd_basis(args) -> int:
    moves = markov_basis(args.I, args.J, max_degree=args.max_degree, cap=args.cap)
    row, join = _text_form(args.format, args.J, signed=True)
    return _stream(map(join, _tables(args.I, args.J, row, moves.plus, moves.minus)), args.format)


def cmd_walk(args) -> int:
    every = args.emit_every
    if every is not None and every < 1:
        raise ParseError("--emit-every must be at least 1")
    if args.steps < 0:
        raise ParseError("--steps must be at least 0")
    points, I, J = parse_fraction_file(args.start)
    basis = markov_basis(I, J, max_degree=args.max_degree, cap=args.cap)
    row, join = _text_form(args.format, J)  # each state is kept as its rows' texts
    start, states = _walk_from(_mask(points, J), I, J, basis, args.steps, args.seed, row)
    # every M-th state and the final one; the start alone when no step is taken
    emitted = (s for n, s in enumerate(states, 1) if n == args.steps or every and n % every == 0)
    return _stream(map(join, emitted if args.steps else [start]), args.format)


def cmd_fiber(args) -> int:
    I, J, codes = _fiber_stream(*_margins_pair(args), args.cap)
    row, join = _text_form(args.format, J)
    return _stream(map(join, _tables(I, J, row, codes)), args.format)


def cmd_verify(args) -> int:
    mA, mB = check_margins(*_margins_pair(args), 0)
    # a one-row or one-column fiber holds at most one table and needs no moves
    basis = (markov_basis(len(mA), len(mB), max_degree=args.max_degree, cap=args.cap)
             if min(len(mA), len(mB)) > 1 else ())
    rep = verify_connectivity(mA, mB, basis=basis, cap=args.cap)
    payload = {
        "connected": rep.connected,
        "fiber_size": rep.fiber_size,
        "components": rep.components,
        "moves": len(basis),
    }
    human = (
        f"{'connected' if rep.connected else 'not connected'}: "
        f"{rep.fiber_size} table(s), {rep.components} component(s), {len(basis)} move(s)"
    )
    return _report(args, rep.connected, payload, human, notes=[human])


def _add_json(p) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON report instead of text")


def _add_size(p, required: bool) -> None:
    p.add_argument("--I", type=int, required=required, help="number of levels of the first factor")
    p.add_argument("--J", type=int, required=required, help="number of levels of the second factor")


def _add_margins(p, required: bool = True) -> None:
    p.add_argument(
        "--margins",
        nargs=2,
        metavar=("A_MARGINS", "B_MARGINS"),
        required=required,
        help="two comma-separated margin lists, e.g. --margins 3,1,2 3,1,1,1",
    )


def _add_format(p, default: str) -> None:
    p.add_argument("--format", choices=("json", "grid"), default=default,
                   help=f"stream record format (default: {default})")


def _add_cap(p) -> None:
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="abort with exit 1 if the enumeration would exceed this many items")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satfrac",
        description="Saturated fractions of two-factor designs, and walks over fixed-margin tables.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    p = sub.add_parser("check", help="decide whether a fraction is saturated")
    p.add_argument("file", help="fraction file, or - for standard input")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the cycle test against the determinant test")
    _add_json(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("matrix", help="print a model matrix (full, or restricted to a fraction)")
    p.add_argument("file", nargs="?", default=None, help="fraction file, or - for standard input")
    _add_size(p, required=False)
    _add_json(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("det", help="integer determinant of a fraction's model matrix")
    p.add_argument("file", help="fraction file, or - for standard input")
    _add_json(p)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("count", help="count saturated fractions, in total or with fixed margins")
    _add_size(p, required=False)
    _add_margins(p, required=False)
    _add_json(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="stream every saturated fraction of an IxJ design")
    _add_size(p, required=False)
    _add_margins(p, required=False)
    _add_format(p, "json")
    _add_cap(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("generate", help="stream every saturated fraction with the given margins")
    _add_margins(p)
    _add_format(p, "json")
    p.set_defaults(func=cmd_enumerate, I=None, J=None, cap=DEFAULT_CAP)

    p = sub.add_parser("sample", help="draw saturated fractions uniformly at random")
    _add_size(p, required=True)
    p.add_argument("--seed", type=int, required=True, help="random seed (required)")
    p.add_argument("--count", type=int, default=1, help="number of draws (default: 1)")
    _add_format(p, "json")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("decompose", help="split a union of cycles into two orthogonal halves")
    p.add_argument("file", help="fraction file, or - for standard input")
    _add_json(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("find-cycle", help="report a cycle contained in a fraction, if any")
    p.add_argument("file", help="fraction file, or - for standard input")
    _add_json(p)
    p.set_defaults(func=cmd_find_cycle)

    p = sub.add_parser("basis", help="print the circuit move basis of the IxJ grid")
    _add_size(p, required=True)
    p.add_argument("--max-degree", type=int, default=None,
                   help="only build moves of degree up to this bound")
    _add_format(p, "grid")
    _add_cap(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("walk", help="run the fixed-margin random walk from a starting table")
    p.add_argument("--start", required=True, help="starting fraction file, or - for standard input")
    p.add_argument("--steps", type=int, required=True, help="number of chain steps")
    p.add_argument("--seed", type=int, required=True, help="random seed (required)")
    p.add_argument("--emit-every", type=int, default=None,
                   help="also emit every M-th visited table (default: final state only)")
    p.add_argument("--max-degree", type=int, default=None,
                   help="only walk with moves of degree up to this bound")
    _add_format(p, "json")
    _add_cap(p)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("fiber", help="stream every binary table with the given margins")
    _add_margins(p)
    _add_format(p, "json")
    _add_cap(p)
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("verify", help="check that the move basis connects a margin fiber")
    _add_margins(p)
    p.add_argument("--max-degree", type=int, default=None,
                   help="only use moves of degree up to this bound")
    _add_cap(p)
    _add_json(p)
    p.set_defaults(func=cmd_verify)

    return parser


# Built on the first main() call, not at import, and reused for the rest of
# the process: parse_args keeps its results in a fresh Namespace per call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
