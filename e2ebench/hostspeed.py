"""Host-adjusted timing: end-to-end times scaled by the host's speed.

The benchmark runs one search at a time on a few cores of a shared host.
Other tenants' load changes how fast one thread runs by a quarter or more,
in spells of seconds to minutes: on a 2-vCPU x86 host, the same six
searches with the same seeds took 7.3 s in one minute and 10.5 s a few
minutes later.  That swing is larger than any bound a regression check
could use.

So the benchmark times a fixed reference workload before every search (and
every set-up) of a run, and reports its times in *host-adjusted seconds*::

    adjusted = measured * REFERENCE_SECONDS / median(reference samples)

``REFERENCE_SECONDS`` is what the reference takes on a quiet host, so an
adjusted time is about the time the same work takes there.  The reference is
pure Python owned by the benchmark and never changes with the program under
test: a change that makes a search faster or slower moves its adjusted time
in the same proportion as its measured one.  The loop sees short spells
fully but only most of a long slow one (``layers.json`` has the figures).
The measured times are printed too.
"""

from __future__ import annotations

import statistics
import time
from typing import List

__all__ = ["REFERENCE_SECONDS", "reference", "HostSpeed"]

#: Seconds :func:`reference` takes on a quiet 2-vCPU x86 host (the fastest
#: tenth of samples over 40 s).  A constant: changing it rescales every
#: end-to-end time the benchmark reports.
REFERENCE_SECONDS = 0.0099

_ROUNDS = 150_000


def _work(rounds: int) -> int:
    """Pure interpreter work: a loop of integer arithmetic under a mask.

    Of the references tried (this loop; a mix of method calls, dict and list
    traffic and short-lived objects; random reads over a 300k-entry dict),
    all tracked the searches' slow spells closely (correlation 0.90-0.94
    over 14 repeats of the same six searches), but only this one slowed by
    the same share as the searches: the others slowed twice as much, so
    dividing by them overcorrected.
    """
    acc = 0
    for step in range(rounds):
        acc = (acc * 31 + step) & 0xFFFF
    return acc


def reference() -> float:
    """Seconds one run of the reference workload takes now."""
    started = time.perf_counter()
    _work(_ROUNDS)
    return time.perf_counter() - started


class HostSpeed:
    """Reference samples taken through one run, and the factor they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.append(reference())

    @property
    def factor(self) -> float:
        """Multiply the run's measured seconds by this to adjust them."""
        return REFERENCE_SECONDS / statistics.median(self.samples)
