"""Run one workload of the satfrac benchmark and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from anywhere; paths are taken from this file's location.  Each run
starts fresh interpreters: several that only time the set-up, for
setup_s (bench/setup_timer.py), and one that sets up and then sends the
workload's requests (bench/worker.py).
With --trace 0 it prints the end-to-end metrics named in BENCHMARK.json;
with --trace 1 the per-layer metrics of one traced round.  The last line
of stdout is one JSON object {correct, attempted, failed, metrics}.  The
full record (seed, input and output digests, environment, faults) is
written to .bench_out/.  Exit code 0 when every output check passed, 1
when one failed, 2 when the benchmark could not run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from worker import probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Fresh interpreters whose set-up times give the setup_s median: at least
# SETUP_MIN_RUNS, and more while they have taken under SETUP_BUDGET_S.
SETUP_MIN_RUNS, SETUP_MAX_RUNS, SETUP_BUDGET_S = 5, 15, 10.0
# setup_s is given in seconds on a host where one probe sample takes this long
PROBE_REF_S = 0.001
DEADLINE_S = 170     # the whole run must end within this


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        commit = git.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "git_commit": commit}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child(cmd: list[str], out: str, deadline: float) -> dict:
    """Run one fresh interpreter and read the JSON it wrote to `out`."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=max(1.0, deadline - time.monotonic()))
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed seconds of requests")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced round instead of end-to-end ones")
    ap.add_argument("--toy", action="store_true", help="tiny inputs (self-test)")
    ap.add_argument("--plant-fault", action="store_true",
                    help="corrupt one output before it is checked (self-test)")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "satfrac", "__init__.py")):
        print(f"error: no satfrac package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        # Compile satfrac's bytecode once, so no set-up below pays for it.
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import satfrac.cli"],
                       cwd=ROOT, check=True, timeout=60)
        setups = []
        started = time.monotonic()
        while not args.trace and (len(setups) < SETUP_MIN_RUNS or (
                len(setups) < SETUP_MAX_RUNS and time.monotonic() - started < SETUP_BUDGET_S)):
            out = os.path.join(tmp, "setup.json")
            before = probe(0.5)
            sample = child([sys.executable, os.path.join(HERE, "setup_timer.py"), args.workload,
                            str(int(args.toy)), out], out, deadline)
            sample["setup_s"] = sample["setup_raw_s"] * PROBE_REF_S / ((before + sample["probe_after"]) / 2)
            setups.append(sample)
        out = os.path.join(tmp, "run.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", tmp, "--out", out]
        res = child(cmd + ["--toy"] * args.toy + ["--plant-fault"] * args.plant_fault, out, deadline)
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"error: the benchmark could not run: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    rounds = res["rounds"]  # per round, each request's (seconds, items, probe units)
    rates = [sum(i for _, i, _ in r) / sum(s for s, _, _ in r) for r in rounds]
    lat_ms = [s * 1000 for r in rounds for s, _, _ in r]
    if args.trace:
        metrics = res["trace"]["metrics"]
    else:
        metrics = {"setup_s": statistics.median(r["setup_s"] for r in setups),
                   "items_per_ref": res["items_per_ref"],
                   "peak_rss_mb": res["peak_rss_mb"]}
    # Printed and recorded beside the gated metrics; latency percentiles
    # only where ten samples lie beyond p99 (certify).
    extra = {"items_per_s": (statistics.median(rates), "items/s"),
             "error_rate": (failed / attempted, "ratio"), "requests": (len(lat_ms), "count")}
    if setups:
        extra["setup_raw_s"] = (statistics.median(r["setup_raw_s"] for r in setups), "s")
    if len(lat_ms) >= 1000:
        extra["req_p50_ms"] = (percentile(lat_ms, 0.50), "ms")
        extra["req_p99_ms"] = (percentile(lat_ms, 0.99), "ms")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}

    wl = WORKLOADS[args.workload]
    print(f"workload {args.workload} (items: {wl.item}), seed {args.seed}, "
          f"{len(rounds)} timed rounds of {res['requests_per_round']} requests, "
          f"inputs {res['input_digest']}")
    for name, v in out.items():
        print(f"  {name:40s} {v['value']:>16.6g} {v['unit']}")
    if not args.trace:
        for name, (value, unit) in extra.items():
            print(f"  {name:40s} {value:>16.6g} {unit}")
    else:
        print(f"  spans written to {res['trace']['spans_file']} ({res['trace']['spans_kept']} kept)")
        for name in res["trace"]["missing"]:
            print(f"  not traced, absent from satfrac: {name}")
    for fault in res["faults"]:
        print(f"  FAULT {fault}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "item": wl.item,
              "input_digest": res["input_digest"], "output_digests": res["output_digests"],
              "environment": environment(), "metrics": out,
              "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "attempted": attempted, "failed": failed, "faults": res["faults"],
              "setup_samples": setups,
              "rounds": res["rounds"]}
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"  record written to {path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
