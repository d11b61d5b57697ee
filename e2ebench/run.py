"""Whole-run K2 search benchmark with per-layer tracing.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload search-loop --seed 7 --seconds 30 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` runs it once untraced and once traced
and prints the per-layer metrics (the spans go to ``.e2ebench/``).  The
end-to-end times are host-adjusted seconds (:mod:`e2ebench.hostspeed`); the
measured ones are printed on the line after them.  Per-search rows (measured
seconds) come first, then one ``name value unit`` line per metric; the last
line of standard output is the JSON result.  Every optimized program is
checked by the independent oracle (:mod:`e2ebench.oracle`); a search that
raised, whose job failed, or whose program fails the check counts as failed.
``e2ebench/layers.json`` maps each layer metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ("safety", "replay", "cache", "window", "full")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iterations", type=int, default=None,
                        help="override the workload's iterations per chain "
                             "(tests only; the metrics are not comparable)")
    parser.add_argument("--record", default=None,
                        help="also write the rows and metrics to this JSON "
                             "file")
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
def measure_setup(workload_name: str) -> float:
    """Seconds of one set-up, timed in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.join("e2ebench", "setup_probe.py"),
         workload_name], cwd=ROOT, check=True, capture_output=True,
        text=True, timeout=120).stdout
    return float(out.strip().splitlines()[-1])


def code_metrics(records) -> dict:
    from e2ebench.workloads import geomean

    return {
        "code_insns": sum(r.best_insns for r in records),
        "code_service_ns": geomean(r.service_ns for r in records),
    }


def end_to_end(records, setups, factor, rss_mb) -> dict:
    """The metrics of BENCHMARK.json; ``factor`` adjusts measured seconds
    for the host's speed."""
    from e2ebench import workloads as wl

    failed = sum(1 for r in records if r.error is not None)
    metrics = {
        "setup_s": (statistics.median(setups) * factor, "s"),
        # The mean pass: every search of the run counts, so a run averages
        # over all of its seeds' SMT queries.
        "wall_s": (statistics.fmean(wl.pass_walls(records)) * factor, "s"),
        "search_s_gmean": (wl.geomean(r.seconds for r in records) * factor,
                           "s"),
    }
    code = code_metrics(records)
    metrics["code_insns"] = (code["code_insns"], "count")
    metrics["code_service_ns"] = (code["code_service_ns"], "sim_ns")
    metrics["ok_share"] = (1.0 - failed / len(records), "share")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics


def per_layer(tracer, records, overhead) -> dict:
    from e2ebench.tracing import ROOT_SPAN

    wall = sum(r.seconds for r in records)

    own = tracer.self_times()
    calls = tracer.calls()
    counter = tracer.counters

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return own.get(name, 0.0)

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    metrics = {
        "proposals.calls": (n("proposals"), "count"),
        "proposals.self_s": (s("proposals"), "s"),
        "proposals.accept_ratio": (ratio(sum(r.accepted for r in records),
                                         sum(r.iterations for r in records)),
                                   "ratio"),
        "suite.calls": (n("suite"), "count"),
        "suite.self_s": (s("suite"), "s"),
        "suite.tests_per_call": (ratio(counter["suite.tests"], n("suite")),
                                 "count"),
        "cost.calls": (n("cost"), "count"),
        "cost.self_s": (s("cost"), "s"),
        "safety.calls": (n("safety"), "count"),
        "safety.self_s": (s("safety"), "s"),
        "safety.unsafe_ratio": (ratio(counter["safety.unsafe"],
                                      n("safety")), "ratio"),
        "pipeline.queries": (n("pipeline"), "count"),
        "pipeline.inconclusive": (counter["pipeline.inconclusive"], "count"),
        "pipeline.self_s": (s("pipeline"), "s"),
    }
    for stage in STAGES:
        metrics[f"stage.{stage}.attempts"] = (n(f"stage.{stage}"), "count")
        metrics[f"stage.{stage}.decided"] = (
            counter[f"stage.{stage}.decided"], "count")
        metrics[f"stage.{stage}.self_s"] = (s(f"stage.{stage}"), "s")
    metrics.update({
        "stage.full.refute_ratio": (ratio(counter["stage.full.refuted"],
                                          n("stage.full")), "ratio"),
        "equivalence.self_s": (s("equivalence"), "s"),
        "symbolic.self_s": (s("symbolic"), "s"),
        "cache.hit_ratio": (ratio(counter["cache.hits"], n("cache")),
                            "ratio"),
        "blast.self_s": (s("blast"), "s"),
        "solver.self_s": (s("solver"), "s"),
        "sat.calls": (n("sat"), "count"),
        "sat.sat_s": (counter["sat.sat_s"], "s"),
        "sat.unsat_s": (counter["sat.unsat_s"], "s"),
        "sat.conflicts": (counter["sat.conflicts"], "count"),
        "sat.zero_conflict_share": (ratio(counter["sat.zero_conflict"],
                                          n("sat")), "share"),
        "sat.clauses_max": (counter["sat.clauses_max"], "count"),
        # Layers only the serve workload reaches are given as shares of the
        # traced wall clock, so that the workloads without them report a
        # plain 0 rather than a constant time.
        "store.load_share": (ratio(s("store.load"), wall), "share"),
        "store.flush_share": (ratio(s("store.flush"), wall), "share"),
        "store.cross_run_hits": (sum(r.cross_run_hits for r in records),
                                 "count"),
        "checkpoint.share": (ratio(s("checkpoint"), wall), "share"),
        "service.submit_share": (ratio(s("service.submit"), wall), "share"),
        "service.queue_wait_share": (
            ratio(sum(r.queue_wait_s for r in records), wall), "share"),
        "service.job_overhead_share": (
            ratio(sum(r.job_overhead_s for r in records), wall), "share"),
        "kernel_checker.self_s": (s("kernel_checker"), "s"),
        "search.self_s": (s(ROOT_SPAN), "s"),
    })
    attributed = sum(value for name, value in own.items()
                     if name != ROOT_SPAN)
    metrics["unattributed_share"] = (ratio(wall - attributed, wall), "share")
    metrics["trace_overhead"] = (overhead, "x")
    return {name: (int(value) if unit == "count" and value == int(value)
                   else value, unit)
            for name, (value, unit) in metrics.items()}


# --------------------------------------------------------------------------- #
def outcome_key(records) -> list:
    return [(r.program, r.pass_index, r.phase, r.best_insns, r.digest)
            for r in records]


def print_rows(records) -> None:
    print(f"{'program':<16} {'pass':>4} {'phase':<5} {'seed':>10} "
          f"{'secs':>8} {'insns':>9} {'svc_ns':>8} {'full':>5}  result")
    for r in records:
        print(f"{r.program:<16} {r.pass_index:>4} {r.phase or '-':<5} "
              f"{r.seed:>10} {r.seconds:>8.3f} "
              f"{r.source_insns:>4}->{r.best_insns:<3} {r.service_ns:>8.2f} "
              f"{r.full_attempts if not r.phase else '-':>5}  {r.error or 'ok'}")


def run(args) -> int:
    from e2ebench import workloads as wl
    from e2ebench.hostspeed import HostSpeed

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    if args.iterations is not None:
        workload = dataclasses.replace(workload, iterations=args.iterations)
    passes = wl.plan(workload, args.seed, args.seconds)

    from repro import api

    sources = {name: api.benchmark_program(name)
               for name in workload.programs}
    host = HostSpeed()
    setups: list = []

    def time_setup() -> None:
        host.sample()
        setups.append(measure_setup(workload.name))

    # One set-up before every pass, so that the median covers the whole run
    # rather than one moment of it.
    records = wl.run_plan(workload, passes, sources, host,
                          before_pass=None if args.trace else time_setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = []
    if args.trace:
        from e2ebench.tracing import Tracer

        untraced, untraced_host = records, host
        host = HostSpeed()
        tracer = Tracer()
        tracer.install()
        try:
            records = wl.run_plan(workload, passes, sources, host)
        finally:
            tracer.uninstall()
        if outcome_key(records) != outcome_key(untraced):
            problems.append("traced results differ from untraced results")
        os.makedirs(wl.WORK_DIR, exist_ok=True)
        tracer.write_jsonl(os.path.join(
            wl.WORK_DIR, f"trace-{workload.name}-{args.seed}.jsonl"))
    wl.check_records(records, sources)
    failed = sum(1 for r in records if r.error is not None)
    if args.trace:
        # Each half of the run against its own host samples.
        overhead = (sum(r.seconds for r in records) * host.factor
                    / sum(r.seconds for r in untraced)
                    / untraced_host.factor)
        metrics = per_layer(tracer, records, overhead)
    else:
        metrics = end_to_end(records, setups, host.factor, rss_mb)

    print_rows(records)
    print(f"failed_share {failed / len(records):.4f} share "
          f"({failed} of {len(records)} searches)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        print(f"measured: wall {statistics.fmean(wl.pass_walls(records)):.6g}"
              f" s, search gmean {wl.geomean(r.seconds for r in records):.6g}"
              f" s, setup {statistics.median(setups):.6g} s; host factor "
              f"{host.factor:.4g} over {len(host.samples)} samples")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "host_factor": host.factor,
                       "rows": [r.row() for r in records],
                       "code": code_metrics(records),
                       "metrics": {k: v[0] for k, v in metrics.items()}},
                      handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("e2ebench: src/repro not found next to the benchmark; run it "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    started = time.perf_counter()
    status = run(args)
    print(f"# total {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
