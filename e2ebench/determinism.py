"""Determinism record: same seed, same results; plus one held-out seed.

Runs every workload traced (``run.py --trace 1``) twice on seed 7 and once
on seed 8, and checks that the two seed-7 runs report identical
``code_insns``, ``code_service_ns``, best-program digests and
``stage.full.attempts``.  Writes ``e2ebench/determinism.json`` with those
values for all three runs, so a later change can be held against a seed it
was not tuned on.  Exits non-zero if a seed-7 pair differs.

Usage: ``python3 e2ebench/determinism.py [--seconds 10]`` from the checkout
root.  ``--seconds`` sizes each run exactly as in ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("search-loop", "serve-store")
SEED, HELD_OUT_SEED = 7, 8


def _run(workload: str, seed: int, seconds: float) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".e2ebench-") as tmp:
        record = os.path.join(tmp, "record.json")
        subprocess.run(
            [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1", "--record", record],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
        with open(record, encoding="utf-8") as handle:
            data = json.load(handle)
    return {
        "seed": seed,
        "code_insns": data["code"]["code_insns"],
        "code_service_ns": data["code"]["code_service_ns"],
        "digests": [f"{row['program']}/{row['pass_index']}/{row['phase']}:"
                    f"{row['digest']}" for row in data["rows"]],
        "stage.full.attempts": data["metrics"]["stage.full.attempts"],
        "failed": sum(1 for row in data["rows"] if row["error"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", default=os.path.join(ROOT, "e2ebench",
                                                      "determinism.json"))
    args = parser.parse_args(argv)
    report = {"seconds": args.seconds, "workloads": {}}
    identical = True
    for workload in WORKLOADS:
        first, second = (_run(workload, SEED, args.seconds) for _ in range(2))
        held_out = _run(workload, HELD_OUT_SEED, args.seconds)
        same = first == second
        identical = identical and same
        report["workloads"][workload] = {
            "same_seed_identical": same, "runs": [first, second],
            "held_out": held_out}
        print(f"{workload}: seed {SEED} runs identical={same}; "
              f"code_insns {first['code_insns']} / held-out "
              f"{held_out['code_insns']}")
    report["all_identical"] = identical
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
