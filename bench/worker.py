"""One benchmark run of one workload, in a fresh interpreter.

run.py starts this script; it is not meant to be called by hand.  It
draws the inputs, builds the workload's set-up (untimed here: setup_s
comes from setup_timer.py), then sends the workload's requests from one
thread in a closed loop, round after round, until --seconds have been
timed.  Between requests it probes the host's speed with a fixed piece
of its own Python, so that each round's time can also be given in probe
units.  Each round's outputs are checked after the round, outside the
timing.  The result is written as JSON to --out.

With --trace 1 the timed rounds run for half of --seconds, then the
tracer is installed, the set-up is repeated and one more round runs
traced; the per-layer metrics come from that traced set-up and round.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from workloads import WORKLOADS, count_tables, is_forest, random_tree, tree_path  # noqa: E402

REF_EVERY_S = 0.1


def check_round(wl, reqs, outs, state, plant: bool) -> None:
    """Check one round's outputs; an output seen before is not re-checked,
    but must be byte-identical to the first output of its request."""
    for k, (req, out) in enumerate(zip(reqs, outs)):
        state["attempted"] += 1
        if isinstance(out, BaseException):
            faults = [f"raised {out!r}"]
        else:
            if plant and k == 0:
                out = wl.plant(out)
            try:
                digest = wl.digest(req, out)
                first = state["digests"].setdefault(k, digest)
                if (k, digest) not in state["verdicts"]:
                    state["verdicts"][k, digest] = wl.check(req, out)
                faults = state["verdicts"][k, digest]
                if digest != first:
                    faults = faults + [f"output differs from the request's first output ({first})"]
            except Exception as e:  # a check that cannot read the output is a failure
                faults = [f"check raised {e!r}"]
        if faults:
            state["failed"] += 1
            if len(state["faults"]) < 20:
                state["faults"].append(f"request {k} ({req['label']}): " + "; ".join(faults))


def reference_s() -> float:
    """Seconds taken by a fixed piece of the benchmark's own Python (tree
    drawing, union-find, BFS, JSON, fiber counting), which touches no
    satfrac code: a probe of the host's speed, which drifts."""
    t0 = perf_counter()
    rng = random.Random(5)
    for _ in range(12):
        tree = random_tree(rng, 12, 12)
        is_forest(tree)
        tree_path(tree, 1, 1)
        json.loads(json.dumps({"points": [list(p) for p in tree]}))
    count_tables((2, 2, 2, 2, 1), (2, 2, 2, 1, 2))
    return perf_counter() - t0


def probe(seconds_since: float) -> float:
    """Median of reference_s() samples, more of them after a long request
    (about 3% of the request time, from 3 to 25 samples)."""
    n = min(25, max(3, round(seconds_since / 0.05)))
    return statistics.median(reference_s() for _ in range(n))


def run_round(wl, reqs, tracer=None):
    """Send one round of requests, each after the last returns.

    Returns the outputs (or the exceptions raised), each request's
    seconds, and each request's time in probe units: its seconds over
    the mean of the probes taken just before and just after it.
    Probes run between requests, after every REF_EVERY_S of request time
    and at the end of the round, and are not part of any request's time.
    """
    outs, latencies, units = [], [], []
    last, pending, first = probe(0.5), 0.0, 0
    for k, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = k
        t0 = perf_counter()
        try:
            out = wl.run(req)
        except Exception as e:  # a request that raises is a failed request
            out = e
        latencies.append(perf_counter() - t0)
        outs.append(out)
        pending += latencies[-1]
        if pending >= REF_EVERY_S or k == len(reqs) - 1:
            now = probe(pending)
            units += [t / ((last + now) / 2) for t in latencies[first:]]
            last, pending, first = now, 0.0, k + 1
    return outs, latencies, units


def items_of(wl, reqs, outs) -> list[int]:
    return [0 if isinstance(o, BaseException) else wl.items(r, o) for r, o in zip(reqs, outs)]


def median_units(rounds) -> list[float]:
    """Each request's median time in probe units over the rounds."""
    return [statistics.median(r[k][2] for r in rounds) for k in range(len(rounds[0]))]


def items_per_ref(rounds) -> float:
    """Items of a round over the time of a "median round": each request's
    median over the rounds, so one slow spell in one round does not count."""
    items = sum(statistics.median(r[k][1] for r in rounds) for k in range(len(rounds[0])))
    return items / sum(median_units(rounds))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_rounds(wl, seconds: float, min_rounds: int, min_requests: int, state, plant: bool):
    """Closed loop over rounds until `seconds` are timed.

    Returns, per round, each request's (seconds, items, probe units), and
    the peak RSS in MiB read after the first round and before any check,
    so that the checks' own allocations are not in it.
    """
    reqs = wl.reqs
    rounds, peak = [], None
    while sum(s for r in rounds for s, _, _ in r) < seconds or len(rounds) < min_rounds \
            or len(rounds) * len(reqs) < min_requests:
        outs, lat, units = run_round(wl, reqs)
        if peak is None:
            peak = peak_rss_mb()
        rounds.append(list(zip(lat, items_of(wl, reqs, outs), units)))
        check_round(wl, reqs, outs, state, plant)
        del outs  # so the next round does not run beside this one's outputs
    return rounds, peak


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--plant-fault", action="store_true")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.toy, args.tmp)
    result = {"input_digest": wl.input_digest(), "requests_per_round": len(wl.reqs)}

    import satfrac
    import satfrac.cli  # noqa: F401
    wl.setup(satfrac)

    state = {"attempted": 0, "failed": 0, "faults": [], "digests": {}, "verdicts": {}}
    seconds = args.seconds / 2 if args.trace else args.seconds
    min_requests = 1000 if args.workload == "certify" and not args.toy and not args.trace else 0
    rounds, result["peak_rss_mb"] = timed_rounds(wl, seconds, 1 if args.trace else 2, min_requests,
                                                 state, args.plant_fault)
    result.update(rounds=rounds, items_per_ref=items_per_ref(rounds))
    if args.trace:
        result["trace"] = traced_round(wl, args, rounds, state)
    result.update(attempted=state["attempted"], failed=state["failed"], faults=state["faults"],
                  output_digests=state["digests"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def traced_round(wl, args, rounds, state) -> dict:
    """Repeat the set-up and one round under the tracer; per-layer metrics."""
    import satfrac
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    wl.setup(satfrac)
    reqs = wl.reqs
    outs, lat, units = run_round(wl, reqs, tracer)
    tracer.enabled = False
    tracer.request = -1
    tracer.uninstall()
    items = sum(items_of(wl, reqs, outs))
    check_round(wl, reqs, outs, state, False)

    metrics = tracer.metrics()
    metrics["design.fraction.calls_per_item"] = metrics["design.fraction.calls"] / items if items else 0.0
    metrics["trace.overhead"] = sum(units) / sum(median_units(rounds)) - 1
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    spans_path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.tsv")
    kept = tracer.dump(spans_path)
    return {"metrics": metrics, "items": items, "round_s": sum(lat), "spans_file": spans_path,
            "spans_kept": kept, "missing": tracer.missing}


if __name__ == "__main__":
    sys.exit(main())
