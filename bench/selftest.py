"""Self-test of the benchmark:  python3 bench/selftest.py

For every workload, at toy size, it checks that
  - an untraced run passes and emits every end-to-end metric of
    BENCHMARK.json with its unit;
  - a traced run emits every per-layer metric with its unit;
  - a run with one planted wrong output exits 1 and counts the fault in
    `failed` and in error_rate, instead of passing it.
It also checks that the benchmark refuses to run, without printing a
result, from a copy that holds only BENCHMARK.json and bench/.
Exit code 0 when every check holds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, *flags: str, cwd: str = ROOT, script: str = os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7", "--seconds", "1", *flags]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = p.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return p.returncode, last, p


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []

    def expect(cond: bool, what: str) -> None:
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, last, p = run(name, "--toy", "--trace", str(trace))
            ok = rc == 0 and last is not None and last["correct"] and last["attempted"] >= 1
            expect(ok, f"{name} --trace {trace} passes" + ("" if ok else f" (exit {rc}: {p.stderr[-300:]})"))
            got = {k: v["unit"] for k, v in (last or {}).get("metrics", {}).items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            expect(got == want, f"{name} --trace {trace} emits every {key} metric with its unit")

        rc, last, p = run(name, "--toy", "--plant-fault")
        path = os.path.join(ROOT, ".bench_out", f"result-{name}-seed7-trace0.json")
        with open(path, encoding="utf-8") as fh:
            error_rate = json.load(fh)["extra"]["error_rate"]["value"]
        expect(rc == 1 and last is not None and not last["correct"] and last["failed"] >= 1
               and error_rate > 0, f"{name} counts a planted wrong output as failed")

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    rc, last, p = run("certify", cwd=bare, script=os.path.join(bare, "bench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    expect(rc != 0 and last is None, "without the program it exits non-zero and prints no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
