"""Unified incremental abstract-interpretation safety analysis (paper §6).

One product domain — pointer provenance × tnums (known bits) × value
intervals — analyzed over basic blocks with per-block input-state
memoization, so the synthesis hot loop only re-analyzes the blocks an MCMC
proposal actually changed.  Powers :class:`repro.safety.SafetyChecker`,
:class:`repro.verifier.KernelChecker` and the verification pipeline's
static-safety pre-stage.
"""

from .analyzer import AbstractAnalyzer, AnalysisOutcome
from .domains import AbsVal, scalar_alu_transfer
from .state import AnalysisState
from .tnum import Tnum
from .transfer import refine_branch, transfer
from .verdicts import SafetyResult, SafetyViolation, SafetyViolationKind

__all__ = [
    "AbstractAnalyzer", "AnalysisOutcome", "AbsVal", "AnalysisState",
    "Tnum", "SafetyResult", "SafetyViolation", "SafetyViolationKind",
    "scalar_alu_transfer", "refine_branch", "transfer",
]

