"""Layer spans recorded from outside the program, around public entry points.

:class:`Tracer` monkey-patches one public entry point per layer (a class
method or a module-level binding), records one span per call — name,
start, end, parent span and search id — plus per-layer counters, and
restores every patched attribute on :meth:`Tracer.uninstall`.  Nothing under
``src/`` knows it is being traced.

Spans stay in memory (compact tuples) and are written as JSONL by
:meth:`Tracer.write_jsonl` when the run ends.  A span's *self time* is its
duration minus the time its child spans cover; children run on the parent's
thread, strictly nested, so the coverage is the sum of their durations.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "ROOT_SPAN", "layer_points"]

#: The root span of one search; its self time is the search's own
#: orchestration (controller, chain set-up), i.e. *unattributed* to a layer.
ROOT_SPAN = "search"

_perf = time.perf_counter


def layer_points() -> List[Tuple[str, object, str]]:
    """``(span name, owner, attribute)`` for every traced entry point.

    Imported lazily so ``tracing`` itself loads without ``repro`` on the
    path.  Module-level functions are patched where the caller looks them
    up (``repro.synthesis.mcmc.error_cost``, not ``cost.error_cost``).
    """
    from repro.equivalence.cache import EquivalenceCache
    from repro.equivalence.checker import EquivalenceChecker
    from repro.equivalence.symbolic import SymbolicExecutor
    from repro.equivalence.window import WindowEquivalenceChecker
    from repro.safety.safety_checker import SafetyChecker
    from repro.service.client import DaemonClient
    from repro.smt.bitblast import BitBlaster
    from repro.smt.sat import IncrementalSatSolver
    from repro.smt.solver import Solver
    from repro.store.store import VerdictStore
    from repro.synthesis import mcmc, parallel
    from repro.synthesis.proposals import ProposalGenerator
    from repro.synthesis.search import Synthesizer
    from repro.synthesis.testcases import TestSuite
    from repro.verification.pipeline import VerificationPipeline
    from repro.verification.stages import (CacheLookupStage,
                                           FullSymbolicStage,
                                           InterpreterReplayStage,
                                           StaticSafetyStage,
                                           WindowCheckStage)
    from repro.verifier.kernel_checker import KernelChecker

    return [
        (ROOT_SPAN, Synthesizer, "optimize"),
        ("proposals", ProposalGenerator, "propose"),
        ("suite", TestSuite, "run_candidate"),
        ("cost", mcmc, "error_cost"),
        ("cost", mcmc, "performance_cost"),
        ("safety", SafetyChecker, "check"),
        ("pipeline", VerificationPipeline, "verify"),
        ("stage.safety", StaticSafetyStage, "run"),
        ("stage.replay", InterpreterReplayStage, "run"),
        ("stage.cache", CacheLookupStage, "run"),
        ("stage.window", WindowCheckStage, "run"),
        ("stage.full", FullSymbolicStage, "run"),
        ("cache", EquivalenceCache, "lookup"),
        ("equivalence", EquivalenceChecker, "check"),
        ("equivalence", WindowEquivalenceChecker, "check"),
        ("symbolic", SymbolicExecutor, "execute"),
        ("solver", Solver, "check"),
        ("blast", BitBlaster, "assert_expr"),
        ("blast", BitBlaster, "blast_bool"),
        ("blast", BitBlaster, "blast_bv"),
        ("sat", IncrementalSatSolver, "solve"),
        ("store.load", VerdictStore, "load"),
        ("store.flush", VerdictStore, "flush"),
        ("checkpoint", parallel, "build_controller_payload"),
        ("checkpoint", VerdictStore, "record_checkpoint"),
        ("service.submit", DaemonClient, "submit"),
        ("kernel_checker", KernelChecker, "load"),
    ]


class _Local(threading.local):
    def __init__(self):
        self.stack: List[list] = []
        self.search: str = ""


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self._local = _Local()
        # ``next`` on an itertools counter is atomic under the GIL, so
        # spans from the serve daemon's job thread get unique ids too.
        self._ids = itertools.count()
        self._searches = itertools.count(1)
        #: ``(id, name, search, parent, start, end, self)`` per finished span.
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = collections.defaultdict(float)
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self, points=None) -> None:
        """Patch every entry point of :func:`layer_points`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in (points or layer_points()):
            had_own = attr in vars(owner)
            original = vars(owner)[attr] if had_own else getattr(owner, attr)
            # Recursive entry points (the bit-blaster) get one span per
            # outermost call, not one per recursion level.
            flat = name == "blast"
            setattr(owner, attr, self._wrap(name, original,
                                            _PROBES.get((name, attr)), flat))
            self._patches.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        """Restore every patched attribute exactly as it was."""
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # ------------------------------------------------------------------ #
    def _wrap(self, name: str, fn: Callable, probe, flat: bool) -> Callable:
        tracer = self
        local = self._local
        root = name == ROOT_SPAN
        before, after = probe if probe else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.stack
            if flat and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            if root:
                local.search = f"s{next(tracer._searches)}"
            parent = stack[-1][0] if stack else -1
            token = before(args) if before else None
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                elapsed = tracer._close(stack, frame, name, parent, start)
                if after:
                    after(tracer.counters, token, args, None, exc, elapsed)
                raise
            elapsed = tracer._close(stack, frame, name, parent, start)
            if after:
                after(tracer.counters, token, args, result, None, elapsed)
            return result

        return wrapper

    def _close(self, stack, frame, name, parent, start) -> float:
        end = _perf()
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        self.spans.append((frame[0], name, self._local.search, parent,
                           start, end, duration - frame[2]))
        return duration

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, float]:
        totals: Dict[str, float] = collections.defaultdict(float)
        for span in self.spans:
            totals[span[1]] += span[6]
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        return dict(collections.Counter(span[1] for span in self.spans))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, search, parent, start, end, own in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "search": search,
                    "parent": parent, "start": start, "end": end,
                    "self": own}) + "\n")


# --------------------------------------------------------------------------- #
# Per-layer counters, measured where the work happens.
# ``before(args) -> token``;
# ``after(counters, token, args, result, exc, seconds)``.
# --------------------------------------------------------------------------- #
def _count(key: str, predicate) -> tuple:
    def after(counters, token, args, result, exc, seconds):
        if exc is None and predicate(args, result):
            counters[key] += 1
    return None, after


def _suite_after(counters, token, args, result, exc, seconds):
    if exc is None:
        counters["suite.tests"] += len(result)


def _stage(name: str) -> tuple:
    def after(counters, token, args, result, exc, seconds):
        if exc is None and result.outcome.conclusive:
            counters[f"stage.{name}.decided"] += 1
            if name == "full" and not result.result.equivalent:
                counters["stage.full.refuted"] += 1
    return None, after


def _sat_before(args):
    return args[0].conflicts


def _sat_after(counters, token, args, result, exc, seconds):
    conflicts = args[0].conflicts - token
    counters["sat.conflicts"] += conflicts
    if exc is not None:
        counters["sat.unknown"] += 1
        counters["sat.unknown_s"] += seconds
        return
    if conflicts == 0:
        counters["sat.zero_conflict"] += 1
    kind = "sat.sat" if result.satisfiable else "sat.unsat"
    counters[kind] += 1
    counters[kind + "_s"] += seconds


def _solver_after(counters, token, args, result, exc, seconds):
    counters["sat.clauses_max"] = max(counters["sat.clauses_max"],
                                      args[0].num_clauses)


_PROBES: Dict[Tuple[str, str], Optional[tuple]] = {
    ("suite", "run_candidate"): (None, _suite_after),
    ("safety", "check"): _count("safety.unsafe",
                                lambda args, result: not result.safe),
    ("pipeline", "verify"): _count(
        "pipeline.inconclusive",
        lambda args, result: result.concluded_by == "none"),
    ("cache", "lookup"): _count("cache.hits",
                                lambda args, result: result is not None),
    ("sat", "solve"): (_sat_before, _sat_after),
    ("solver", "check"): (None, _solver_after),
}
for _name in ("safety", "replay", "cache", "window", "full"):
    _PROBES[(f"stage.{_name}", "run")] = _stage(_name)
