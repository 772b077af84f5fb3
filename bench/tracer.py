"""Spans around satfrac's public functions, recorded from outside the package.

install() replaces each traced function in every satfrac module namespace
that binds it (find_cycle is looked up in satfrac.cli as well as in
satfrac.cycles, fraction in fileio, linalg and saturation as well as in
design), so calls between modules are traced too.  A function that
returns an iterator is traced per __next__, under the same name.

Each span has a name, start, end, parent span and request id.  Spans are
kept in memory, up to MAX_SPANS, and written out by dump().  Self time
(a span's duration minus its child spans) and call counts are summed for
every span, kept or not.
"""
from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

TRACED = (
    "cli.main",
    "fileio.parse_fraction_file",
    "fileio.render_json",
    "fileio.render_grid",
    "design.fraction",
    "design.to_table",
    "cycles.find_cycle",
    "linalg.model_matrix",
    "linalg.integer_determinant",
    "saturation.enumerate_saturated",
    "saturation.generate_with_margins",
    "saturation.sample_uniform_saturated",
    "markov.markov_basis",
    "markov.walk_states",
    "markov.apply_move",
    "markov.fiber_enumerate",
    "markov.verify_connectivity",
)

MAX_SPANS = 500_000


class Tracer:
    def __init__(self):
        self.enabled = False
        self.request = -1
        self.names = list(TRACED)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters = dict.fromkeys(
            ("fileio.bytes_out", "markov.basis_moves", "markov.fiber_tables",
             "markov.apply_move.hits", "markov.walk.proposals", "markov.walk.accepted"), 0)
        self.spans = 0
        self._stack: list[list] = []  # [name id, start, child seconds, span id, parent id]
        self._cols = {"span": array("q"), "name": array("i"), "start": array("d"),
                      "end": array("d"), "parent": array("q"), "request": array("i")}
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def span(self, nid: int, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack
        sid = self.spans
        self.spans += 1
        frame = [nid, 0.0, 0.0, sid, stack[-1][3] if stack else -1]
        stack.append(frame)
        frame[1] = start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            self.calls[nid] += 1
            self.self_s[nid] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            if sid < MAX_SPANS:
                c = self._cols
                c["span"].append(sid)
                c["name"].append(nid)
                c["start"].append(start)
                c["end"].append(end)
                c["parent"].append(frame[4])
                c["request"].append(self.request)

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        pkg = [m for n, m in list(sys.modules.items()) if n == "satfrac" or n.startswith("satfrac.")]
        for nid, qualname in enumerate(self.names):
            module, fname = qualname.split(".")
            orig = getattr(sys.modules.get("satfrac." + module), fname, None)
            if orig is None:
                self.missing.append(qualname)
                continue
            wrapper = self._wrap(nid, qualname, orig)
            for mod in pkg:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, nid: int, qualname: str, fn):
        on_result = _RESULT_HOOKS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(nid, fn, args, kwargs)
            if tracer.enabled:
                if hasattr(result, "__next__") and iter(result) is result:
                    return _TracedIter(tracer, nid, result, qualname == "markov.walk_states" and args)
                if on_result is not None:
                    on_result(tracer.counters, result)
            return result

        return traced

    # ------------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[nid]
            out[name + ".self_s"] = self.self_s[nid]
        c = self.counters
        out.update((k, v) for k, v in c.items() if k != "markov.apply_move.hits")
        applies = out["markov.apply_move.calls"]
        out["markov.apply_move.hit_ratio"] = c["markov.apply_move.hits"] / applies if applies else 0.0
        props = c["markov.walk.proposals"]
        out["markov.walk.accept_ratio"] = c["markov.walk.accepted"] / props if props else 0.0
        out["trace.spans"] = self.spans
        return out

    def dump(self, path: str) -> int:
        """Write the kept spans as tab-separated lines; returns how many."""
        c = self._cols
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\trequest\n")
            for sid, nid, s, e, par, req in zip(c["span"], c["name"], c["start"], c["end"],
                                                 c["parent"], c["request"]):
                fh.write(f"{sid}\t{self.names[nid]}\t{s:.9f}\t{e:.9f}\t{par}\t{req}\n")
        return len(c["span"])


class _TracedIter:
    """An iterator whose every __next__ is a span of the function that made it."""

    __slots__ = ("_tracer", "_nid", "_it", "_prev")

    def __init__(self, tracer: Tracer, nid: int, it, walk_args):
        self._tracer, self._nid, self._it = tracer, nid, it
        # walk_states: count proposals, and acceptances as steps that change the state
        self._prev = tuple(map(tuple, walk_args[0])) if walk_args else None

    def __iter__(self):
        return self

    def __next__(self):
        value = self._tracer.span(self._nid, next, (self._it,), {})
        if self._prev is not None:
            c = self._tracer.counters
            c["markov.walk.proposals"] += 1
            if value is not self._prev and value != self._prev:
                c["markov.walk.accepted"] += 1
                self._prev = value
        return value


def _add(key: str, measure):
    def hook(counters, result):
        counters[key] += measure(result)
    return hook


_RESULT_HOOKS = {
    "fileio.render_json": _add("fileio.bytes_out", len),
    "fileio.render_grid": _add("fileio.bytes_out", len),
    "markov.markov_basis": _add("markov.basis_moves", len),
    "markov.fiber_enumerate": _add("markov.fiber_tables", len),
    "markov.apply_move": _add("markov.apply_move.hits", lambda r: r is not None),
}
