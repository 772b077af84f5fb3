"""Time a fresh interpreter's `import satfrac, satfrac.cli` plus one
workload's set-up, and write the seconds as JSON.

    python3 bench/setup_timer.py WORKLOAD TOY OUT      (TOY is 0 or 1)

run.py starts it several times per run; the median gives setup_s.  The
timing starts before the benchmark imports anything but `setups`, which
imports nothing, so every module satfrac loads that the interpreter's
start-up did not is counted.  Only after the timing is the probe of the
host's speed (worker.probe) loaded and run.  run.py probes just before
it starts this script, and scales the raw seconds by the two probes.
"""
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import setups  # noqa: E402


def main() -> int:
    workload, toy, out = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    t0 = perf_counter()
    import satfrac
    import satfrac.cli  # noqa: F401
    setups.SETUPS[workload](satfrac, toy)
    raw = perf_counter() - t0

    import json
    from worker import probe

    after = probe(max(0.5, raw))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"setup_raw_s": raw, "probe_after": after}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
