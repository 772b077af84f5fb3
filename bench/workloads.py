"""The four benchmark workloads: seeded inputs, requests and output checks.

Inputs are drawn here with the standard library only.  The worker builds
every workload's inputs before it imports satfrac, so a change to the
library cannot change what the library is asked to do.

Each workload runs the same request list in every round:

    __init__   draws the inputs from the seed (files go under `tmpdir`)
    setup      what the workload builds once before its first request
               (setups.py, so that setup_timer.py can time it alone)
    reqs       one round of requests
    run        one request, timed; returns the request's output
    items      work items in that output (what items_per_s counts)
    check      faults in that output, untimed; empty when it is right
    digest     a short hash of the output, recorded per request
    plant      a wrong copy of request 0's output, for the self-test
"""
from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from collections import deque

from setups import FIBER_SHAPES, SETUPS, WALK_SHAPES

# The fiber (2,)*6 x (2,)*6 has 67,950 tables but a placement bound of
# 15**6 = 11,390,625, over fiber_enumerate's default cap of 10,000,000,
# so the workload passes an explicit cap as a library user would.
FIBER_CAP = 20_000_000


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- inputs

def random_tree(rng: random.Random, I: int, J: int) -> list[tuple[int, int]]:
    """A random spanning tree of K(I,J) as I+J-1 points: every new level
    joins an already placed level of the other factor."""
    rows = list(range(1, I + 1))
    cols = list(range(1, J + 1))
    rng.shuffle(rows)
    rng.shuffle(cols)
    placed_rows, placed_cols = [rows[0]], [cols[0]]
    points = [(rows[0], cols[0])]
    rest = [(0, r) for r in rows[1:]] + [(1, c) for c in cols[1:]]
    rng.shuffle(rest)
    for side, level in rest:
        if side == 0:
            points.append((level, rng.choice(placed_cols)))
            placed_rows.append(level)
        else:
            points.append((rng.choice(placed_rows), level))
            placed_cols.append(level)
    return points


def tree_path(points, i: int, j: int) -> list[tuple[int, int]]:
    """Points on the path from row i to column j in a forest (BFS)."""
    adj: dict = {}
    for r, c in points:
        adj.setdefault((0, r), []).append((1, c))
        adj.setdefault((1, c), []).append((0, r))
    start, goal = (0, i), (1, j)
    prev = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if v == goal:
            break
        for w in adj.get(v, ()):
            if w not in prev:
                prev[w] = v
                queue.append(w)
    path = []
    v = goal
    while prev[v] is not None:
        u = prev[v]
        path.append((u[1], v[1]) if u[0] == 0 else (v[1], u[1]))
        v = u
    return path


def non_point(rng: random.Random, points, I: int, J: int) -> tuple[int, int]:
    taken = set(points)
    while True:
        p = (rng.randint(1, I), rng.randint(1, J))
        if p not in taken:
            return p


def one_cycle(rng: random.Random, I: int, J: int):
    """I+J-1 points holding exactly one cycle: a tree plus one point,
    minus a tree point off the cycle that point closes."""
    tree = random_tree(rng, I, J)
    while True:
        extra = non_point(rng, tree, I, J)
        cycle = set(tree_path(tree, *extra)) | {extra}
        off = [q for q in tree if q not in cycle]
        if off:
            break
    drop = rng.choice(off)
    return [q for q in tree if q != drop] + [extra], sorted(cycle)


def is_forest(points) -> bool:
    """Union-find cycle test, the benchmark's own route."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in points:
        a, b = find((0, i)), find((1, j))
        if a == b:
            return False
        parent[a] = b
    return True


def count_tables(mA, mB) -> int:
    """0/1 tables with row sums mA and column sums mB, by row recursion
    over the sorted column remainders (memoized)."""
    memo: dict = {}

    def rec(i: int, cols: tuple) -> int:
        if i == len(mA):
            return 1 if not any(cols) else 0
        key = (i, cols)
        if key not in memo:
            total = 0
            for chosen in itertools.combinations(range(len(cols)), mA[i]):
                if all(cols[c] for c in chosen):
                    left = list(cols)
                    for c in chosen:
                        left[c] -= 1
                    total += rec(i + 1, tuple(sorted(left)))
            memo[key] = total
        return memo[key]

    return rec(0, tuple(sorted(mB)))


def table_margins(table) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(sum(r) for r in table), tuple(sum(c) for c in zip(*table))


def write_fraction(path: str, rng: random.Random, points, I: int, J: int) -> None:
    """Write a fraction as JSON (points shuffled) or as a grid (header or not)."""
    points = list(points)
    if rng.random() < 0.5:
        rng.shuffle(points)
        text = json.dumps({"I": I, "J": J, "points": [list(p) for p in points]}) + "\n"
    else:
        cells = set(points)
        lines = [f"{I} {J}"] if rng.random() < 0.5 else []
        lines += ["".join("1" if (i, j) in cells else "0" for j in range(1, J + 1))
                  for i in range(1, I + 1)]
        text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ------------------------------------------------------------- workloads

class Workload:
    name = ""
    item = ""

    def __init__(self, seed: int, toy: bool, tmpdir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.toy = toy
        self.tmpdir = tmpdir
        self.reqs: list[dict] = []
        self.sf = None
        self.bases = None

    def setup(self, sf) -> None:
        self.sf = sf
        self.bases = None  # release any earlier bases before building again
        self.bases = SETUPS[self.name](sf, self.toy)

    def input_digest(self) -> str:
        parts = [repr(sorted(r.items())).replace(self.tmpdir, "") for r in self.reqs]
        for r in self.reqs:
            if "file" in r:
                with open(r["file"], encoding="utf-8") as fh:
                    parts.append(fh.read())
        return sha("\n".join(parts))


class CliWorkload(Workload):
    """Requests are argument lists for an in-process satfrac.cli.main;
    the output is (exit code, stdout, stderr)."""

    def run(self, req):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.sf.cli.main(req["argv"])
        return rc, out.getvalue(), err.getvalue()

    def digest(self, req, out) -> str:
        rc, stdout, stderr = out
        return sha(f"{rc}\0{stdout}\0{stderr}")

    def plant(self, out):
        rc, stdout, stderr = out
        return rc, stdout[: stdout.rstrip("\n").rfind("\n") + 1], stderr


class Enumerate(CliWorkload):
    """Streams: enumerate, enumerate --format grid, generate, sample."""

    name = "enumerate"
    item = "records emitted"

    def __init__(self, seed, toy, tmpdir):
        super().__init__(seed, toy, tmpdir)
        rng = self.rng
        if toy:
            (I1, J1), (I2, J2), (IS, JS), n = (3, 3), (2, 4), (5, 6), 20
            mA, mB = [2, 2, 1], [1, 2, 2]
        else:
            (I1, J1), (I2, J2), (IS, JS), n = (4, 5), (3, 7), (30, 40), 2000
            mA, mB = [3, 2, 2, 2, 2, 1], [1, 1, 2, 2, 2, 2, 2]
        rng.shuffle(mA)
        rng.shuffle(mB)
        a, b = ",".join(map(str, mA)), ",".join(map(str, mB))
        reqs = [
            {"argv": ["enumerate", "--I", str(I1), "--J", str(J1)], "I": I1, "J": J1, "fmt": "json"},
            {"argv": ["enumerate", "--I", str(I2), "--J", str(J2), "--format", "grid"],
             "I": I2, "J": J2, "fmt": "grid"},
            {"argv": ["generate", "--margins", a, b], "I": len(mA), "J": len(mB), "fmt": "json",
             "margins": (tuple(mA), tuple(mB))},
            {"argv": ["sample", "--I", str(IS), "--J", str(JS), "--count", str(n),
                      "--seed", str(rng.randrange(2**31))],
             "I": IS, "J": JS, "fmt": "json", "count": n},
        ]
        self.reqs = [dict(r, label=" ".join(r["argv"])) for r in reqs]

    @staticmethod
    def records(req, stdout: str) -> list[str]:
        if req["fmt"] == "grid":
            return [r for r in stdout.split("\n\n") if r.strip()]
        return stdout.splitlines()

    def items(self, req, out) -> int:
        return len(self.records(req, out[1]))

    @staticmethod
    def parse(req, record: str):
        if req["fmt"] == "json":
            obj = json.loads(record)
            return obj["I"], obj["J"], tuple(tuple(p) for p in obj["points"])
        lines = record.strip("\n").split("\n")
        I, J = map(int, lines[0].split())
        return I, J, tuple((i, j) for i, row in enumerate(lines[1:], 1)
                           for j, ch in enumerate(row, 1) if ch == "1")

    def check(self, req, out) -> list[str]:
        rc, stdout, stderr = out
        if rc != 0 or stderr:
            return [f"exit code {rc}, stderr {stderr[:200]!r}"]
        I, J, p = req["I"], req["J"], req["I"] + req["J"] - 1
        if "margins" in req:
            expected = self.sf.count_with_margins(*req["margins"])
        elif "count" in req:
            expected = req["count"]
        else:
            expected = self.sf.count_saturated(I, J)
        records = self.records(req, stdout)
        faults = []
        if len(records) != expected:
            faults.append(f"{len(records)} records, expected {expected}")
        seen = set()
        for rec in records:
            I2, J2, pts = self.parse(req, rec)
            ok = (I2, J2) == (I, J) and len(pts) == p and list(pts) == sorted(set(pts)) \
                and all(1 <= i <= I and 1 <= j <= J for i, j in pts) and is_forest(pts)
            if ok and "margins" in req:
                mA, mB = [0] * I, [0] * J
                for i, j in pts:
                    mA[i - 1] += 1
                    mB[j - 1] += 1
                ok = (tuple(mA), tuple(mB)) == req["margins"]
            if not ok:
                faults.append(f"record is not a saturated fraction of the request: {rec[:120]!r}")
                break
            seen.add(pts)
        if len(seen) != len(records) and not faults:
            faults.append(f"{len(records) - len(seen)} repeated records")
        for pts in random.Random(len(records)).sample(sorted(seen), min(10, len(seen))):
            if not self.sf.is_saturated_by_determinant(pts, I, J):
                faults.append(f"determinant route rejects {pts}")
        return faults


class Certify(CliWorkload):
    """Independent check / find-cycle / det requests on generated files."""

    name = "certify"
    item = "requests completed"

    def __init__(self, seed, toy, tmpdir):
        super().__init__(seed, toy, tmpdir)
        rng = self.rng
        if toy:
            n, small, medium, large = 40, (4, 6), (7, 9), (12, 16)
        else:
            n, small, medium, large = 600, (4, 12), (13, 30), (60, 150)
        offset = rng.random()
        nlarge = 0
        for k in range(n):
            # Stratified classes: 1 in 33 requests is large (3%), so p99
            # falls inside the large class; 1 in 10 is medium.
            if k % 33 == 16:
                # Large sizes follow a golden-ratio sequence, spread evenly
                # over the class whatever the seed; large inputs are trees,
                # on which find_cycle always does its full scan.
                u = (offset + nlarge * 0.6180339887) % 1.0
                nlarge += 1
                lo, hi = large
                I = lo + int(u * (hi - lo + 1))
                J = min(hi, max(lo, I + rng.randint(-5, 5)))
                verb = rng.choice(["check", "find-cycle"])
                kind = "tree"
            else:
                lo, hi = medium if k % 10 == 3 else small
                I, J = rng.randint(lo, hi), rng.randint(lo, hi)
                r = rng.random()
                verb = "check" if r < 0.5 else "find-cycle" if r < 0.75 else "det"
                kinds = ["tree", "cyclic"] if verb == "det" else ["tree", "cyclic", "short", "long"]
                kind = rng.choices(kinds, weights=[4, 4, 1, 1][: len(kinds)])[0]
            self.reqs.append(self._request(k, rng, verb, kind, I, J))

    def _request(self, k, rng, verb, kind, I, J) -> dict:
        cycle = None
        if kind == "cyclic":
            points, cycle = one_cycle(rng, I, J)
        else:
            points = random_tree(rng, I, J)
            if kind == "short":
                points.remove(rng.choice(points))
            elif kind == "long":
                extra = non_point(rng, points, I, J)
                cycle = sorted(set(tree_path(points, *extra)) | {extra})
                points.append(extra)
        path = os.path.join(self.tmpdir, f"f{k:04d}.txt")
        write_fraction(path, rng, points, I, J)
        argv = [verb, path]
        if verb == "check":
            argv.append("--json")
            if rng.random() < 1 / 3 and max(I, J) <= 30:
                argv.append("--oracle")
        return {"argv": argv, "label": f"{' '.join(argv[:1] + argv[2:])} on a {kind} {I}x{J}",
                "file": path, "kind": kind, "I": I, "J": J,
                "points": sorted(points), "cycle": cycle}

    def items(self, req, out) -> int:
        return 1

    def _cycle_faults(self, req, cycle) -> list[str]:
        if cycle is None:
            return [] if req["cycle"] is None else ["no cycle reported in a fraction with one"]
        cycle = sorted(tuple(p) for p in cycle)
        if req["cycle"] is None:
            return [f"cycle {cycle} reported in a cycle-free fraction"]
        if not set(cycle) <= set(req["points"]):
            return [f"reported cycle {cycle} is not a subset of the input"]
        try:
            self.sf.decompose_cycle(cycle)
        except ValueError as e:
            return [f"reported cycle {cycle} fails decompose_cycle: {e}"]
        if cycle != req["cycle"]:
            return [f"reported cycle {cycle}, the input's only cycle is {req['cycle']}"]
        return []

    def check(self, req, out) -> list[str]:
        rc, stdout, stderr = out
        verb, kind = req["argv"][0], req["kind"]
        p = req["I"] + req["J"] - 1
        try:
            if verb == "check":
                want_rc = 0 if kind == "tree" else 1
                if rc != want_rc:
                    return [f"check exit code {rc}, expected {want_rc}: {stderr[:200]!r}"]
                payload = json.loads(stdout)["payload"]
                faults = []
                if payload["saturated"] != (kind == "tree"):
                    faults.append(f"verdict saturated={payload['saturated']} on a {kind} input")
                if (payload["points"], payload["required"]) != (len(req["points"]), p):
                    faults.append(f"points/required {payload['points']}/{payload['required']}")
                if kind in ("short", "long"):
                    if payload["cycle"] is not None:
                        faults.append("wrong-size fraction reported with a cycle")
                    return faults
                return faults + self._cycle_faults(req, payload["cycle"])
            if rc != 0:
                return [f"{verb} exit code {rc}: {stderr[:200]!r}"]
            if verb == "find-cycle":
                text = stdout.strip()
                if text == "no cycle":
                    return self._cycle_faults(req, None)
                if not text.startswith("cycle = "):
                    return [f"unexpected find-cycle output {text[:120]!r}"]
                return self._cycle_faults(req, ast.literal_eval(text[len("cycle = "):]))
            det = int(stdout)
            if (abs(det) == 1) if kind == "tree" else (det == 0):
                return []
            return [f"determinant {det} on a {kind} input"]
        except (ValueError, KeyError, TypeError, SyntaxError) as e:
            return [f"unreadable {verb} output {stdout[:120]!r}: {e!r}"]


class Walk(Workload):
    """walk_states runs of a fixed step count on bases built in set-up."""

    name = "walk"
    item = "chain steps"

    def __init__(self, seed, toy, tmpdir):
        super().__init__(seed, toy, tmpdir)
        rng = self.rng
        steps = 300 if toy else 20_000
        for basis, n in WALK_SHAPES[toy].items():
            tree = set(random_tree(rng, n, n))
            half = set(rng.sample([(i, j) for i in range(1, n + 1) for j in range(1, n + 1)],
                                  n * n // 2))
            for label, cells in (("tree", tree), ("half", half)):
                start = tuple(tuple(1 if (i, j) in cells else 0 for j in range(1, n + 1))
                              for i in range(1, n + 1))
                self.reqs.append({"label": f"{n}x{n} {label}", "basis": basis, "start": start,
                                  "steps": steps, "seed": rng.randrange(2**31)})

    def run(self, req):
        states = []
        for state in self.sf.markov.walk_states(req["start"], self.bases[req["basis"]],
                                                req["steps"], req["seed"]):
            states.append(state)
        return states

    def items(self, req, out) -> int:
        return len(out)

    @staticmethod
    def changes(req, states):
        """(step, state) for every step whose state differs from the last."""
        out, prev = [], req["start"]
        for k, s in enumerate(states):
            if s is not prev and s != prev:
                out.append((k, s))
                prev = s
        return out

    def check(self, req, out) -> list[str]:
        if len(out) != req["steps"]:
            return [f"{len(out)} states for {req['steps']} steps"]
        want = table_margins(req["start"])
        for k, s in self.changes(req, out):
            if any(v not in (0, 1) for row in s for v in row) or table_margins(s) != want:
                return [f"state after step {k + 1} is not a 0/1 table with the start's margins"]
        return []

    def digest(self, req, out) -> str:
        return sha(f"{len(out)}\0{self.changes(req, out)!r}")

    def plant(self, out):
        last = [list(row) for row in out[-1]]
        last[0][0] = 1 - last[0][0]
        return out[:-1] + [tuple(tuple(row) for row in last)]


class Fiber(Workload):
    """fiber_enumerate on two 6x6 fibers and verify_connectivity on
    small fibers with full bases built in set-up."""

    name = "fiber"
    item = "tables enumerated or checked"

    def __init__(self, seed, toy, tmpdir):
        super().__init__(seed, toy, tmpdir)
        rng = self.rng
        if toy:
            big, mixed = ((2,) * 4, (2,) * 4), ([2, 2, 1, 1], (2, 1, 1, 1, 1))
            size = (5, 40)
        else:
            big, mixed = ((2,) * 6, (2,) * 6), ([3, 3, 2, 2, 1, 1], (2,) * 6)
            size = (90, 200)
        mixed = (tuple(mixed[0]), mixed[1])
        for mA, mB in (big, big, mixed):
            self.reqs.append({"op": "enumerate", "label": f"fiber_enumerate {mA} {mB}", "mA": mA, "mB": mB,
                              "size": count_tables(mA, mB)})
        if not toy and [r["size"] for r in self.reqs] != [67_950, 67_950, 24_060]:
            raise RuntimeError("fiber counts differ from the known 67,950 and 24,060")
        for I, J in FIBER_SHAPES[toy]:
            pool = []
            for mA in itertools.combinations_with_replacement(range(J - 1, 0, -1), I):
                for mB in itertools.combinations_with_replacement(range(I - 1, 0, -1), J):
                    if sum(mA) == sum(mB) and size[0] <= count_tables(mA, mB) <= size[1]:
                        pool.append((mA, mB))
            mA, mB = (list(v) for v in rng.choice(pool))
            rng.shuffle(mA)
            rng.shuffle(mB)
            mA, mB = tuple(mA), tuple(mB)
            self.reqs.append({"op": "verify", "label": f"verify_connectivity {mA} {mB}", "mA": mA, "mB": mB,
                              "size": count_tables(mA, mB)})

    def run(self, req):
        if req["op"] == "enumerate":
            return self.sf.markov.fiber_enumerate(req["mA"], req["mB"], cap=FIBER_CAP)
        basis = self.bases[(len(req["mA"]), len(req["mB"]))]
        return self.sf.markov.verify_connectivity(req["mA"], req["mB"], basis=basis)

    def items(self, req, out) -> int:
        return len(out) if req["op"] == "enumerate" else out.fiber_size

    def check(self, req, out) -> list[str]:
        if req["op"] == "verify":
            if (out.connected, out.components, out.fiber_size) != (True, 1, req["size"]):
                return [f"verify_connectivity gave {out}, expected one component of {req['size']}"]
            return []
        faults = []
        if len(out) != req["size"]:
            faults.append(f"{len(out)} tables, expected {req['size']}")
        if len(set(out)) != len(out):
            faults.append("repeated tables")
        want = (req["mA"], req["mB"])
        if not all(table_margins(t) == want and all(v in (0, 1) for row in t for v in row)
                   for t in out):
            faults.append("a table is not 0/1 with the requested margins")
        return faults

    def digest(self, req, out) -> str:
        return sha(repr(out))

    def plant(self, out):
        return out[:-1]


WORKLOADS = {w.name: w for w in (Enumerate, Certify, Walk, Fiber)}
