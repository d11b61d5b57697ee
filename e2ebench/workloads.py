"""The benchmark's workloads and the code that runs them.

Every search goes through the public ``repro.api`` facade with the default
:class:`~repro.api.K2Config`; only ``iterations``, ``settings`` and ``seed``
are set.  One run is a fixed list of *passes*: the workload's program list,
each pass with its own search seeds drawn from the run's ``--seed``.  The
number of passes follows from ``--seconds`` and the workload's nominal pass
time, so the work of a run depends only on its arguments, never on how fast
the machine happens to be.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import math
import os
import random
import shutil
import threading
import time
from typing import Callable, Dict, List, Optional

from .hostspeed import HostSpeed

__all__ = ["Workload", "WORKLOADS", "SearchRecord", "plan", "run_plan",
           "pass_walls", "WORK_DIR"]

#: Working directory for daemon state and traces, relative to the checkout
#: root.
WORK_DIR = ".e2ebench"
#: Seed of the simulated traffic behind ``code_service_ns``.
TRAFFIC_SEED = 7


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    programs: tuple
    iterations: int
    settings: int
    #: Nominal seconds of one pass on a 2-CPU x86 host; sets the pass count.
    pass_seconds: float
    #: ``inprocess``: ``api.optimize`` in this process, no store.
    #: ``serve``: jobs on an in-process ``K2Daemon`` — a cold pass that
    #: writes the daemon's shared store, then a warm pass that reads it.
    mode: str = "inprocess"


# A run must fit the benchmark's time budget, and its spread across seeds
# must stay well inside the metric bounds (layers.json has the full
# rationale).  A search's time varies with its seed mostly through the number
# of expensive full SMT queries it meets, so programs whose cost is a few
# seed-dependent multi-second queries (xdp1, xdp-balancer, xdp_fw,
# xdp_map_access, from-network) would make a run's wall clock a count of
# rare events; each workload instead runs many searches of programs whose
# cost is spread over many queries.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Small programs: proposals, suite execution, error cost and safety
    # carry about half of the time at this length, SMT the rest.
    Workload(name="search-loop",
             programs=("socket-0", "xdp_pktcntr", "sys_enter_open"),
             iterations=500, settings=2, pass_seconds=5.5),
    # k2 serve jobs: the cold pass writes the shared verdict store, the
    # warm pass reads it; covers the store, checkpoint and service layers.
    # recvmsg4's cold jobs are SAT-heavy.
    Workload(name="serve-store",
             programs=("xdp_pktcntr", "recvmsg4", "xdp_cpumap_kthread"),
             iterations=150, settings=2, pass_seconds=6.5, mode="serve"),
)}


@dataclasses.dataclass(frozen=True)
class Search:
    program: str
    seed: int
    pass_index: int


def plan(workload: Workload, seed: int, seconds: float) -> List[List[Search]]:
    """The run's passes; a pure function of its arguments."""
    passes = max(1, int(round(seconds / workload.pass_seconds)))
    rng = random.Random(f"{workload.name}:{seed}")
    return [[Search(program, rng.randrange(1 << 30), index)
             for program in workload.programs]
            for index in range(passes)]


@dataclasses.dataclass
class SearchRecord:
    """One search (or one daemon job) and what the benchmark saw of it."""

    program: str
    seed: int
    pass_index: int
    phase: str                       # "" in-process, "cold"/"warm" serve
    seconds: float
    source_insns: int = 0
    best_insns: int = 0
    digest: str = ""
    best_text: str = ""
    service_ns: float = 0.0
    iterations: int = 0
    accepted: int = 0
    full_attempts: int = 0
    cross_run_hits: int = 0
    queue_wait_s: float = 0.0
    job_overhead_s: float = 0.0
    error: Optional[str] = None

    def row(self) -> dict:
        data = dataclasses.asdict(self)
        del data["best_text"]
        return data


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=12).hexdigest()


def config(workload: Workload, seed: int):
    from repro import api

    return api.K2Config(iterations=workload.iterations,
                        settings=workload.settings, seed=seed)


# --------------------------------------------------------------------------- #
# Running a plan
# --------------------------------------------------------------------------- #
def run_plan(workload: Workload, passes: List[List[Search]], sources: dict,
             host: HostSpeed,
             before_pass: Optional[Callable[[], None]] = None
             ) -> List[SearchRecord]:
    """Run every pass, sampling ``host`` before every search or job.

    A pass's wall clock is the sum of its searches' or jobs' times: daemon
    start and stop around a serve pass are set-up, measured by ``setup_s``.
    ``before_pass``, if given, is called before every pass.
    """
    runner = _run_serve_pass if workload.mode == "serve" \
        else _run_inprocess_pass
    records: List[SearchRecord] = []
    for searches in passes:
        if before_pass is not None:
            before_pass()
        records.extend(runner(workload, searches, sources, host))
    return records


def pass_walls(records: List[SearchRecord]) -> List[float]:
    """Measured wall clock of every pass."""
    walls: Dict[int, float] = collections.defaultdict(float)
    for record in records:
        walls[record.pass_index] += record.seconds
    return [walls[index] for index in sorted(walls)]



def _run_inprocess_pass(workload, searches, sources, host):
    from repro import api

    records = []
    for search in searches:
        host.sample()
        t0 = time.perf_counter()
        try:
            result = api.optimize(sources[search.program],
                                  config(workload, search.seed))
        except Exception as exc:  # counted in failed_share
            records.append(SearchRecord(
                search.program, search.seed, search.pass_index, "",
                time.perf_counter() - t0, error=f"raised {exc!r}"))
            continue
        seconds = time.perf_counter() - t0
        best = result.search.best_program
        chains = [chain.statistics for chain in result.search.chain_results]
        text = best.to_text()
        records.append(SearchRecord(
            search.program, search.seed, search.pass_index, "", seconds,
            source_insns=result.source.num_real_instructions,
            best_insns=best.num_real_instructions, digest=digest(text),
            best_text=text,
            iterations=sum(chain.iterations for chain in chains),
            accepted=sum(chain.proposals_accepted for chain in chains),
            full_attempts=int(result.search.verification_stats
                              .get("full", {}).get("attempts", 0)),
            cross_run_hits=int(result.search.cache_stats
                               .get("store_hits", 0))))
    return records


def start_daemon(state: str):
    """An in-process ``K2Daemon`` serving ``state``; returns it once a
    ``ping`` answers, together with its thread."""
    from repro.service import DaemonClient, DaemonUnavailable, K2Daemon

    daemon = K2Daemon(state)
    thread = threading.Thread(
        target=daemon.serve_forever,
        kwargs={"install_signal_handlers": False}, name="e2ebench-daemon")
    thread.start()
    client = DaemonClient(state)
    deadline = time.monotonic() + 30.0
    while True:
        try:
            client.ping()
            return daemon, thread
        except DaemonUnavailable:
            if time.monotonic() > deadline or not thread.is_alive():
                daemon.request_stop()
                thread.join()
                raise
            time.sleep(0.005)


def stop_daemon(daemon, thread) -> None:
    daemon.request_stop()
    thread.join()


def _state_dir() -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    for index in range(1 << 16):
        path = os.path.join(WORK_DIR, f"d{os.getpid()}-{index}")
        if not os.path.exists(path):
            return path
    raise RuntimeError("no free daemon state directory")


def _run_serve_pass(workload, searches, sources, host):
    from repro.service import DaemonClient

    # A fresh daemon (and so a fresh store) per pass: the cold phase must
    # not read what an earlier pass wrote.
    state = _state_dir()
    daemon, thread = start_daemon(state)
    records = []
    try:
        client = DaemonClient(state, timeout=60.0)
        for phase in ("cold", "warm"):
            for search in searches:
                spec = config(workload, search.seed).job_spec(
                    benchmark=search.program)
                host.sample()
                t0 = time.perf_counter()
                try:
                    job = client.wait(client.submit(spec), timeout=170.0)
                except Exception as exc:  # counted in failed_share
                    records.append(SearchRecord(
                        search.program, search.seed, search.pass_index, phase,
                        time.perf_counter() - t0, error=f"raised {exc!r}"))
                    continue
                records.append(_job_record(search, phase,
                                           time.perf_counter() - t0, job))
    finally:
        stop_daemon(daemon, thread)
        shutil.rmtree(state, ignore_errors=True)
    return records


def _job_record(search, phase, seconds, job) -> SearchRecord:
    record = SearchRecord(search.program, search.seed, search.pass_index,
                          phase, seconds)
    if job.get("state") != "done" or not job.get("result"):
        record.error = f"job {job.get('state')}: {job.get('error')}"
        return record
    result = job["result"]
    record.source_insns = int(result["source_insns"])
    record.best_insns = int(result["best_insns"])
    record.best_text = result["best_program"]
    record.digest = digest(record.best_text)
    record.iterations = sum(c["iterations"] for c in result["chains"])
    record.accepted = sum(c["proposals_accepted"] for c in result["chains"])
    record.cross_run_hits = int(result["cache"].get("store_hits", 0))
    record.queue_wait_s = max(0.0, job["started_at"] - job["submitted_at"])
    record.job_overhead_s = max(
        0.0, job["finished_at"] - job["started_at"]
        - result["elapsed_seconds"])
    return record


# --------------------------------------------------------------------------- #
# Checking outputs
# --------------------------------------------------------------------------- #
def check_records(records: List[SearchRecord], sources: dict) -> None:
    """Run the independent oracle on every record and fill in
    ``service_ns``; a failing record gets its ``error`` set."""
    from repro.perf.rig import TrafficGenerator

    from .oracle import oracle_inputs

    inputs = {name: oracle_inputs(source) for name, source in sources.items()}
    traffic = {name: list(TrafficGenerator(source, seed=TRAFFIC_SEED))
               for name, source in sources.items()}
    checked: Dict[tuple, tuple] = {}
    for record in records:
        if record.error is not None:
            continue
        key = (record.program, record.best_text)
        if key not in checked:
            checked[key] = _check(sources[record.program], record,
                                  inputs[record.program],
                                  traffic[record.program])
        record.error, record.service_ns = checked[key]


def _check(source, record, inputs, traffic) -> tuple:
    """``(error or None, mean service ns)`` of one reported program."""
    from repro.bpf import assemble
    from repro.perf.rig import DeviceUnderTest

    from .oracle import check_program

    try:
        program = source.with_instructions(assemble(record.best_text))
    except Exception as exc:
        return f"reported program does not assemble: {exc!r}", 0.0
    if program.num_real_instructions != record.best_insns:
        return "reported instruction count is wrong", 0.0
    error = check_program(source, program, inputs)
    if error is not None:
        return error, 0.0
    return None, DeviceUnderTest(program).mean_service_time_ns(traffic)


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
