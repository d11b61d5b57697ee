"""Time one benchmark set-up in a fresh interpreter; prints the seconds.

Set-up is what a user pays before the first search starts: importing
``repro``, building the workload's programs and config, and for
``serve-store`` starting an in-process daemon and getting its first
``ping``.  ``run.py`` runs this several times and reports the median as
``setup_s``.

Usage: ``python3 e2ebench/setup_probe.py <workload>`` from the checkout root.
"""

import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(name: str) -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from e2ebench.workloads import WORKLOADS, _state_dir, config, \
        start_daemon, stop_daemon

    workload = WORKLOADS[name]
    started = time.perf_counter()
    from repro import api

    for program in workload.programs:
        api.benchmark_program(program)
    config(workload, 0).search_options()
    daemon = None
    if workload.mode == "serve":
        state = _state_dir()
        daemon, thread = start_daemon(state)
    elapsed = time.perf_counter() - started
    if daemon is not None:
        stop_daemon(daemon, thread)
        shutil.rmtree(state, ignore_errors=True)
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1])
