"""The native CDCL core (``repro.smt.native``) against the Python reference.

Differential fuzz: both cores replay the same random incremental sequences
and must agree on every result, model and counter.  Whole-search identity:
a search run under either core gives the same program and statistics.
Build robustness: the cached library is reused, rebuilt when damaged, safe
to build from several processes at once, and a broken compiler falls back to
the Python core.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import random
import shutil
import subprocess
import sys
import warnings

import pytest

import repro
from repro.corpus import get_benchmark
from repro.smt import CheckResult, Solver, bv_add, bv_const, bv_eq, bv_ult, \
    bv_var
from repro.smt import native
from repro.smt.sat import IncrementalSatSolver
from repro.synthesis import SearchOptions, Synthesizer

pytestmark = pytest.mark.skipif(not native.find_compiler(),
                                reason="no C compiler on PATH")

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _outcome(solver, assumptions):
    try:
        result = solver.solve(assumptions)
    except TimeoutError as exc:
        return ("timeout", str(exc), solver.conflicts, solver.decisions,
                solver.num_clauses)
    return (result.satisfiable, result.assumption_failed, dict(result.model),
            result.conflicts, result.decisions, solver.num_clauses)


def _replay(core, seed):
    """One random incremental session: scoped random 3-SAT under guard
    assumptions, conflict budgets that may time out (the session carries
    on), unit clauses added after a solve, and retired guards."""
    rng = random.Random(seed)
    solver = core(max_conflicts=rng.choice([None, None, 30, 300]))
    for _ in range(rng.randint(8, 70)):
        solver.new_var()
    outcomes = []
    for _ in range(rng.randint(1, 5)):
        size = solver.num_vars
        guard = solver.new_var()
        for _ in range(int(size * rng.uniform(2.5, 4.8))):
            clause = [rng.randint(1, size) * rng.choice((1, -1))
                      for _ in range(rng.choice((1, 2, 3, 3, 3, 4)))]
            if rng.random() < 0.7:
                clause.append(-guard)
            solver.add_clause(clause)
        if rng.random() < 0.4:
            solver.add_clause([rng.randint(1, size) * rng.choice((1, -1))])
        assumptions = [guard] + [rng.randint(1, size) * rng.choice((1, -1))
                                 for _ in range(rng.randint(0, 2))]
        outcomes.append(_outcome(solver, assumptions))
        if rng.random() < 0.6:
            solver.add_clause([-guard])  # retire the scope
        if rng.random() < 0.3:
            solver.max_conflicts = rng.choice([None, 10, 100])
        for _ in range(rng.randint(0, 6)):
            solver.new_var()
    outcomes.append(_outcome(solver, []))
    return outcomes


def _check_seeds(seeds):
    for seed in seeds:
        assert _replay(native.NativeSatSolver, seed) == \
            _replay(IncrementalSatSolver, seed), f"seed {seed}"


class TestDifferential:
    def test_native_core_loads_when_a_compiler_is_present(self):
        # CI must never silently measure the fallback.
        assert native.available()
        assert isinstance(Solver()._sat, native.NativeSatSolver)

    def test_random_incremental_sequences_match(self):
        _check_seeds(range(150))

    @pytest.mark.slow
    def test_random_incremental_sequences_match_long(self):
        _check_seeds(range(150, 2150))

    def test_timeout_then_recovery_matches(self):
        def session(core):
            solver = core(max_conflicts=5)
            pigeons = [[solver.new_var() for _ in range(5)] for _ in range(6)]
            for row in pigeons:
                solver.add_clause(row)
            for hole in range(5):
                for i in range(6):
                    for k in range(i + 1, 6):
                        solver.add_clause([-pigeons[i][hole],
                                           -pigeons[k][hole]])
            first = _outcome(solver, [])
            solver.max_conflicts = None
            return first, _outcome(solver, []), _outcome(solver, [])

        python, fast = session(IncrementalSatSolver), \
            session(native.NativeSatSolver)
        assert python[0][0] == "timeout" and python[1][0] is False
        assert fast == python

    @pytest.mark.parametrize("clause", [[1, 0], [1, 9], [-9, 1], [2, -2, 0],
                                        [0, 2, -2], [3, 9], [-3, 0], []])
    def test_invalid_and_degenerate_clauses_match(self, clause):
        def session(core):
            solver = core()
            for _ in range(4):
                solver.new_var()
            solver.add_clause([3])
            solver.add_clause([-4, 1])
            try:
                solver.add_clause(clause)
                error = None
            except ValueError as exc:
                error = str(exc)
            return error, _outcome(solver, [])

        assert session(native.NativeSatSolver) == \
            session(IncrementalSatSolver)

    def test_model_is_a_read_only_mapping(self):
        solver = native.NativeSatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-b])
        model = solver.solve().model
        assert model == {a: True, b: False} and dict(model) == model
        assert model[a] is True and model.get(b) is False
        assert model.get(3, "absent") == "absent" and 0 not in model
        with pytest.raises(KeyError):
            model[3]
        with pytest.raises(TypeError):
            model[a] = False

    def test_native_core_refuses_pickling_and_copying(self):
        solver = native.NativeSatSolver()
        solver.new_var()
        for duplicate in (pickle.dumps, copy.copy, copy.deepcopy):
            with pytest.raises(TypeError):
                duplicate(solver)


def _search_signature(result):
    def timeless(value):
        if isinstance(value, dict):
            return {key: timeless(item) for key, item in value.items()
                    if key != "seconds"}
        return value

    chains = []
    for chain in result.chain_results:
        stats = dataclasses.asdict(chain.statistics)
        for key in ("elapsed_seconds", "best_found_at_seconds"):
            stats.pop(key)
        chains.append(timeless(stats))
    return (result.best.program.to_text() if result.best else None,
            chains, timeless(result.verification_stats))


def test_whole_search_is_identical_under_both_cores(monkeypatch):
    program = get_benchmark("xdp_pktcntr").build()
    options = SearchOptions(iterations_per_chain=60, num_parameter_settings=2,
                            seed=3, executor="serial")
    fast = Synthesizer(options).optimize(program)
    monkeypatch.setattr(native, "available", lambda: False)
    assert type(Solver()._sat) is IncrementalSatSolver
    python = Synthesizer(options).optimize(program)
    assert _search_signature(fast) == _search_signature(python)
    assert fast.verification_stats["full"]["attempts"] > 0


# --------------------------------------------------------------------------- #
class TestBuild:
    @pytest.fixture
    def compiles(self, monkeypatch):
        """Count the compiler runs."""
        calls = []
        real = native.compile_library

        def counted(compiler, output):
            calls.append(output)
            real(compiler, output)
        monkeypatch.setattr(native, "compile_library", counted)
        return calls

    def test_cache_hit_does_not_recompile(self, tmp_path, compiles):
        native.load(tmp_path)
        native.load(tmp_path)
        assert len(compiles) == 1
        assert [path.name for path in tmp_path.iterdir()] == \
            [native.library_name(native.find_compiler())]

    def test_truncated_library_is_rebuilt(self, tmp_path, compiles):
        built, damaged = tmp_path / "built", tmp_path / "damaged"
        native.load(built)
        name = native.library_name(native.find_compiler())
        data = (built / name).read_bytes()
        damaged.mkdir()
        # A copy, never the loaded file itself: truncating a mapped library
        # would fault this process.
        (damaged / name).write_bytes(data[:len(data) // 2])
        lib = native.load(damaged)
        assert len(compiles) == 2 and lib.k2_num_clauses(lib.k2_new()) == 0
        assert (damaged / name).read_bytes() == data

    def test_concurrent_builds_leave_one_library(self, tmp_path):
        script = ("import sys; from repro.smt import native; "
                  "lib = native.load(sys.argv[1]); "
                  "print(lib.k2_num_clauses(lib.k2_new()))")
        env = dict(os.environ, PYTHONPATH=SRC)
        procs = [subprocess.Popen([sys.executable, "-c", script,
                                   str(tmp_path)], env=env,
                                  stdout=subprocess.PIPE)
                 for _ in range(4)]
        outputs = [proc.communicate(timeout=300)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * 4
        assert outputs == [b"0\n"] * 4
        assert [path.name for path in tmp_path.iterdir()] == \
            [native.library_name(native.find_compiler())]

    def test_failing_compiler_falls_back_with_one_warning(self, tmp_path,
                                                          monkeypatch):
        def solve_all():
            solver = Solver()
            x, y = bv_var("x", 16), bv_var("y", 16)
            solver.add(bv_ult(x, bv_const(9, 16)))
            outcomes = []
            for target in (5, 20, 40000):
                token = solver.push()
                solver.add(bv_eq(bv_add(x, y), bv_const(target, 16)))
                solver.add(bv_ult(y, x))
                verdict = solver.check()
                model = solver.model().as_dict() \
                    if verdict == CheckResult.SAT else None
                outcomes.append((verdict, model, solver.conflicts,
                                 solver.num_clauses))
                solver.pop(token)
            return outcomes, type(solver._sat)

        fast, fast_core = solve_all()

        # A "compiler" that exits 1, and an empty cache so it must run.
        monkeypatch.setattr(native, "find_compiler",
                            lambda: shutil.which("false"))
        monkeypatch.setattr(native, "cache_dirs", lambda: [tmp_path])
        monkeypatch.setattr(native, "_library_state", native._UNTRIED)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            python, python_core = solve_all()
            solve_all()
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "false failed on cdcl.c" in str(caught[0].message)
        assert list(tmp_path.iterdir()) == []  # no partial library left
        assert fast_core is native.NativeSatSolver
        assert python_core is IncrementalSatSolver
        assert python == fast
