"""Cost functions for the stochastic search (paper §3.2).

The total cost of a candidate is::

    f(p) = alpha * err(p) + beta * perf(p) + gamma * safe(p)

* ``err(p)`` measures how far the candidate's outputs are from the source
  program's outputs over the test suite, plus an ``unequal * num_tests`` term
  driven by formal equivalence checking.  Eight variants exist (2 diff
  functions x 2 normalizations x 2 num_tests interpretations); all eight are
  exercised by the parameter sweep of Table 8/9.
* ``perf(p)`` is either the extra instruction count (compactness goal) or the
  extra estimated latency (latency goal) relative to the source.
* ``safe(p)`` is 0 for safe candidates and ``ERR_MAX`` for unsafe ones — the
  candidate is not discarded outright because the path to a better safe
  program may pass through unsafe ones.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Sequence

from ..bpf.program import BpfProgram
from ..interpreter import ProgramOutput
from ..perf.latency_model import OpcodeLatencyModel, DEFAULT_LATENCY_MODEL

__all__ = ["DiffKind", "NumTestsVariant", "PerformanceGoal", "CostSettings",
           "ERR_MAX", "BOUND_SLACK", "output_distance", "error_cost",
           "error_from_distances", "error_lower_bound", "performance_cost",
           "total_cost"]

#: Penalty assigned to unsafe candidates (paper: "a large value ERR_MAX").
ERR_MAX = 100_000.0

#: Penalty contributed by a test case on which the candidate faulted.
_FAULT_PENALTY = 256.0

#: Relative slack of :func:`error_lower_bound` (and of the search's
#: early-reject test built on it): far above float rounding, far below any
#: cost difference that matters.
BOUND_SLACK = 2.0 ** -30


class DiffKind(enum.Enum):
    """How the distance between two output values is measured."""

    POPCOUNT = "pop"    # number of differing bits (STOKE's choice)
    ABSOLUTE = "abs"    # absolute numerical difference (for counters etc.)


class NumTestsVariant(enum.Enum):
    """Interpretation of the ``num_tests`` factor in the error cost."""

    INCORRECT = "incorrect"   # number of tests the candidate got wrong
    CORRECT = "correct"       # number of tests the candidate got right


class PerformanceGoal(enum.Enum):
    """What the search optimizes (paper §8 setup)."""

    INSTRUCTION_COUNT = "inst"
    LATENCY = "latency"


@dataclasses.dataclass(frozen=True)
class CostSettings:
    """One point in the cost-function configuration space (Table 8)."""

    diff_kind: DiffKind = DiffKind.ABSOLUTE
    normalize_by_tests: bool = False
    num_tests_variant: NumTestsVariant = NumTestsVariant.INCORRECT
    alpha: float = 0.5      # weight of the error cost
    beta: float = 5.0       # weight of the performance cost
    gamma: float = 1.0      # weight of the safety cost
    goal: PerformanceGoal = PerformanceGoal.INSTRUCTION_COUNT


def _popcount_distance(a: int, b: int) -> float:
    return float(bin((a ^ b) & ((1 << 64) - 1)).count("1"))


def _absolute_distance(a: int, b: int) -> float:
    return float(abs(a - b))


def output_distance(source: ProgramOutput, candidate: ProgramOutput,
                    diff_kind: DiffKind) -> float:
    """Distance between two observable outputs on one test case (diff())."""
    if candidate.faulted and source.faulted:
        return 0.0
    if candidate.faulted != source.faulted:
        return _FAULT_PENALTY

    diff = _popcount_distance if diff_kind == DiffKind.POPCOUNT \
        else _absolute_distance
    distance = diff(source.return_value or 0, candidate.return_value or 0)

    # Packet contents: byte-wise distance plus a length mismatch penalty.
    if source.packet != candidate.packet:
        if len(source.packet) != len(candidate.packet):
            distance += 8.0 * abs(len(source.packet) - len(candidate.packet))
        for a, b in zip(source.packet, candidate.packet):
            if a != b:
                distance += diff(a, b)

    # Map contents: keys present in one but not the other, then value bytes.
    for fd in set(source.maps) | set(candidate.maps):
        source_entries = source.maps.get(fd, {})
        candidate_entries = candidate.maps.get(fd, {})
        for key in set(source_entries) | set(candidate_entries):
            left = source_entries.get(key)
            right = candidate_entries.get(key)
            if left is None or right is None:
                distance += 64.0
                continue
            left_value = int.from_bytes(left, "little")
            right_value = int.from_bytes(right, "little")
            distance += diff(left_value, right_value)
    return distance


def error_cost(source_outputs: Sequence[ProgramOutput],
               candidate_outputs: Sequence[ProgramOutput],
               settings: CostSettings,
               unequal: int = 0) -> float:
    """The error component err(p) of the cost function (equation (1))."""
    if not source_outputs:
        return float(unequal)
    return error_from_distances(
        [output_distance(s, c, settings.diff_kind)
         for s, c in zip(source_outputs, candidate_outputs)],
        settings, unequal)


def error_from_distances(per_test: Sequence[float], settings: CostSettings,
                         unequal: int = 0) -> float:
    """err(p) from the per-test :func:`output_distance` values, in order.

    The one place the error arithmetic lives: :func:`error_cost` and the
    search's memoized scoring both end here, so they produce the same float.
    """
    if not per_test:
        return float(unequal)
    weight = 1.0 / len(per_test) if settings.normalize_by_tests else 1.0
    total = weight * sum(per_test)

    num_wrong = sum(1 for d in per_test if d > 0)
    if settings.num_tests_variant == NumTestsVariant.INCORRECT:
        num_tests = num_wrong
    else:
        num_tests = len(per_test) - num_wrong
    return total + unequal * num_tests


def error_lower_bound(prefix_sum: float, wrong: int, seen: int,
                      num_tests: int, settings: CostSettings) -> float:
    """A lower bound on err(p), with ``unequal`` = 1, from a test prefix.

    ``prefix_sum`` sums the first ``seen`` of the ``num_tests`` per-test
    distances and ``wrong`` counts the non-zero ones among them.  Distances
    are non-negative and both num-tests variants (wrong or correct tests)
    only grow with the prefix, so ``weight * prefix_sum + n`` cannot exceed
    the full error; deflating it by a relative :data:`BOUND_SLACK` keeps it
    below :func:`error_from_distances`'s float under any summation order
    (no cancellation: every term is non-negative).
    """
    weight = 1.0 / num_tests if settings.normalize_by_tests else 1.0
    n = wrong if settings.num_tests_variant == NumTestsVariant.INCORRECT \
        else seen - wrong
    return (weight * prefix_sum + n) * (1.0 - BOUND_SLACK)


def performance_cost(source: BpfProgram, candidate: BpfProgram,
                     settings: CostSettings,
                     latency_model: OpcodeLatencyModel = DEFAULT_LATENCY_MODEL
                     ) -> float:
    """perf(p): extra instructions or extra estimated latency vs. the source."""
    if settings.goal == PerformanceGoal.INSTRUCTION_COUNT:
        return float(candidate.num_real_instructions
                     - source.num_real_instructions)
    return latency_model.program_cost(candidate) - latency_model.program_cost(source)


def total_cost(error: float, perf: float, safe: float,
               settings: CostSettings) -> float:
    """Combine the three components with the chain's (alpha, beta, gamma)."""
    return (settings.alpha * error
            + settings.beta * perf
            + settings.gamma * safe)
