"""A CDCL SAT solver with incremental solving under assumptions.

This is the decision procedure underneath the bit-vector solver, standing in
for Z3's SAT core.  It implements the standard conflict-driven clause
learning loop:

* unit propagation with two watched literals,
* first-UIP conflict analysis with clause learning and non-chronological
  backjumping,
* VSIDS-style variable activities with exponential decay,
* Luby-sequence restarts,
* phase saving.

Two entry points exist:

* :class:`SatSolver` — the classic one-shot interface: load a :class:`CNF`,
  call :meth:`~IncrementalSatSolver.solve` once.
* :class:`IncrementalSatSolver` — the incremental interface used by the
  scoped :class:`repro.smt.Solver`: variables and clauses may be added
  between ``solve()`` calls, each ``solve()`` may carry *assumption
  literals* (Minisat-style: assumptions are enqueued as the first
  decisions), and learned clauses, variable activities and saved phases
  persist across calls.  Learned clauses are derived by resolution from the
  clause database alone, never from the assumptions, so reusing them across
  queries with different assumptions is sound.

This pure-Python core is the reference implementation.  The solver
facade normally runs :class:`repro.smt.native.NativeSatSolver`, a
line-for-line C port with bit-identical models and counters; this module
is its differential oracle and the fallback when no C compiler is
available, so any change to the algorithm here must be mirrored in
``cdcl.c``.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

from .cnf import CNF

__all__ = ["IncrementalSatSolver", "SatSolver", "SatResult", "solve_cnf"]


class SatResult:
    """Outcome of a satisfiability check."""

    def __init__(self, satisfiable: bool, model: Optional[Dict[int, bool]] = None,
                 conflicts: int = 0, decisions: int = 0,
                 assumption_failed: bool = False):
        self.satisfiable = satisfiable
        self.model = model or {}
        self.conflicts = conflicts
        self.decisions = decisions
        #: True when UNSAT was caused by the assumptions directly conflicting
        #: with the level-0 consequences of the clause database.
        self.assumption_failed = assumption_failed

    def __bool__(self) -> bool:
        return self.satisfiable

    def __repr__(self) -> str:
        return (f"SatResult(sat={self.satisfiable}, conflicts={self.conflicts}, "
                f"decisions={self.decisions})")


def _luby(index: int) -> int:
    """The Luby restart sequence (0-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    size, seq = 1, 0
    while size < index + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        seq -= 1
        index %= size
    return 1 << seq


class IncrementalSatSolver:
    """CDCL solver whose clause database grows across ``solve()`` calls.

    The class duck-types the :class:`CNF` interface (``new_var``,
    ``add_clause``, ``num_vars``) so the bit-blaster can emit clauses
    directly into the live solver.  Clauses must be added while the solver
    is at decision level 0, which is guaranteed because ``solve()`` always
    backtracks fully before returning (including on timeout).
    """

    def __init__(self, max_conflicts: Optional[int] = None):
        self.num_vars = 0
        #: Conflict budget applied to each individual ``solve()`` call.
        self.max_conflicts = max_conflicts
        # value[v] is None (unassigned), True or False.
        self.value: List[Optional[bool]] = [None]
        self.level: List[int] = [0]
        self.reason: List[Optional[List[int]]] = [None]
        self.activity: List[float] = [0.0]
        self.phase: List[bool] = [False]
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.propagate_head = 0
        self.clauses: List[List[int]] = []
        self.learned: List[List[int]] = []
        # watches[lit] is a list of clauses currently watching lit.
        self.watches: Dict[int, List[List[int]]] = {}
        self.conflicts = 0
        self.decisions = 0
        self.num_solves = 0
        self._contradiction = False
        # Lazy VSIDS order: a heap of (-activity, var) entries, possibly
        # stale.  Every unassigned variable always has at least one entry
        # (pushed on allocation, on bump and on unassignment), so popping
        # until an unassigned variable appears is a correct O(log n)
        # replacement for a full scan — essential once queries accumulate
        # variables in the incremental setting.
        self._order: List[tuple] = []

    # ------------------------------------------------------------------ #
    # CNF-compatible construction interface
    # ------------------------------------------------------------------ #
    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self.num_vars += 1
        self.value.append(None)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(False)
        heapq.heappush(self._order, (0.0, self.num_vars))
        return self.num_vars

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add one clause (a disjunction of literals) at decision level 0.

        The clause is simplified against the permanent (level-0) assignment:
        satisfied clauses are dropped, false literals are removed.  This
        keeps the two-watched-literal invariant intact for clauses added
        after earlier ``solve()`` calls have fixed variables at level 0.
        """
        if self._contradiction:
            return
        clause: List[int] = []
        seen = set()
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            if abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} references an unallocated variable")
            if -lit in seen:
                return  # tautology, skip
            if lit in seen:
                continue
            seen.add(lit)
            value = self._lit_value(lit)
            if value is True:
                return  # satisfied at level 0, permanently true
            if value is False:
                continue  # falsified at level 0, drop the literal
            clause.append(lit)
        # Seed the branching activities with literal occurrence counts so the
        # first decisions target heavily-constrained variables.
        for lit in clause:
            var = abs(lit)
            self.activity[var] += 1.0 / max(1, len(clause))
            heapq.heappush(self._order, (-self.activity[var], var))
        self._add_clause(clause, learned=False)

    def add_clauses(self, clauses) -> None:
        for clause in clauses:
            self.add_clause(clause)

    @property
    def num_clauses(self) -> int:
        """Size of the clause database (original + learned, no units)."""
        return len(self.clauses) + len(self.learned)

    # ------------------------------------------------------------------ #
    # Clause management
    # ------------------------------------------------------------------ #
    def _add_clause(self, clause: List[int], learned: bool) -> None:
        if not clause:
            self._contradiction = True
            return
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self._contradiction = True
            return
        if learned:
            self.learned.append(clause)
        else:
            self.clauses.append(clause)
        self._watch(clause[0], clause)
        self._watch(clause[1], clause)

    def _watch(self, lit: int, clause: List[int]) -> None:
        self.watches.setdefault(lit, []).append(clause)

    # ------------------------------------------------------------------ #
    # Assignment handling
    # ------------------------------------------------------------------ #
    def _lit_value(self, lit: int) -> Optional[bool]:
        value = self.value[abs(lit)]
        if value is None:
            return None
        return value if lit > 0 else not value

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> bool:
        current = self._lit_value(lit)
        if current is not None:
            return current
        var = abs(lit)
        self.value[var] = lit > 0
        self.phase[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    # ------------------------------------------------------------------ #
    # Unit propagation (two watched literals)
    # ------------------------------------------------------------------ #
    def _propagate(self) -> Optional[List[int]]:
        while self.propagate_head < len(self.trail):
            lit = self.trail[self.propagate_head]
            self.propagate_head += 1
            false_lit = -lit
            watching = self.watches.get(false_lit, [])
            new_watching: List[List[int]] = []
            index = 0
            conflict = None
            while index < len(watching):
                clause = watching[index]
                index += 1
                # Ensure the false literal is in position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) is True:
                    # Satisfied at level 0 (e.g. a retired scope guard):
                    # permanently true — drop it from this watch list so
                    # finished queries stop taxing propagation.
                    if self.level[abs(first)] > 0:
                        new_watching.append(clause)
                    continue
                # Look for a replacement watch.
                found = False
                for position in range(2, len(clause)):
                    candidate = clause[position]
                    if self._lit_value(candidate) is not False:
                        clause[1], clause[position] = clause[position], clause[1]
                        self._watch(clause[1], clause)
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                new_watching.append(clause)
                if self._lit_value(first) is False:
                    # Conflict: keep remaining watches and report.
                    new_watching.extend(watching[index:])
                    conflict = clause
                    break
                self._enqueue(first, clause)
            self.watches[false_lit] = new_watching
            if conflict is not None:
                return conflict
        return None

    # ------------------------------------------------------------------ #
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------ #
    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for index in range(1, self.num_vars + 1):
                self.activity[index] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_order()
        else:
            heapq.heappush(self._order, (-self.activity[var], var))

    def _rebuild_order(self) -> None:
        self._order = [(-self.activity[var], var)
                       for var in range(1, self.num_vars + 1)
                       if self.value[var] is None]
        heapq.heapify(self._order)

    def _analyze(self, conflict: List[int]) -> tuple[List[int], int]:
        learnt: List[int] = []
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = None
        clause = conflict
        trail_index = len(self.trail) - 1
        current_level = self._decision_level()

        while True:
            for other in clause:
                # Skip the literal we are resolving on (the implied literal
                # of the reason clause).
                if lit is not None and other == lit:
                    continue
                var = abs(other)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(other)
            # Pick the next literal to resolve on from the trail.
            while not seen[abs(self.trail[trail_index])]:
                trail_index -= 1
            lit = self.trail[trail_index]
            trail_index -= 1
            var = abs(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                learnt.insert(0, -lit)
                break
            clause = self.reason[var] or []

        if len(learnt) == 1:
            backjump_level = 0
        else:
            backjump_level = max(self.level[abs(l)] for l in learnt[1:])
            # Move the literal with the backjump level to position 1.
            for position in range(1, len(learnt)):
                if self.level[abs(learnt[position])] == backjump_level:
                    learnt[1], learnt[position] = learnt[position], learnt[1]
                    break
        return learnt, backjump_level

    def _backjump(self, target_level: int) -> None:
        while self._decision_level() > target_level:
            boundary = self.trail_lim.pop()
            for lit in reversed(self.trail[boundary:]):
                var = abs(lit)
                self.value[var] = None
                self.reason[var] = None
                heapq.heappush(self._order, (-self.activity[var], var))
            del self.trail[boundary:]
        self.propagate_head = min(self.propagate_head, len(self.trail))

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #
    def _pick_branch_variable(self) -> Optional[int]:
        # Pop until an unassigned variable surfaces.  Entries may be stale
        # (the variable was assigned, or its activity has changed since the
        # entry was pushed); an unassigned variable is acceptable even under
        # a stale priority because a fresher entry would have sorted first.
        if len(self._order) > max(4096, 8 * self.num_vars):
            self._rebuild_order()
        order = self._order
        while order:
            _, var = heapq.heappop(order)
            if self.value[var] is None:
                return var
        return None

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Decide satisfiability of the clause database under ``assumptions``.

        Assumptions are enqueued as the first decisions (one decision level
        each); a conflict that cannot be resolved below the assumption
        levels means the database is UNSAT *under these assumptions* and is
        reported with ``assumption_failed=True``.  The solver always
        backtracks to level 0 before returning, so the caller may add more
        clauses and solve again — learned clauses, activities and phases
        are kept.
        """
        self.num_solves += 1
        try:
            return self._solve(list(assumptions))
        finally:
            self._backjump(0)

    def _solve(self, assumptions: List[int]) -> SatResult:
        def result(satisfiable: bool, model=None, failed=False) -> SatResult:
            return SatResult(satisfiable, model=model, conflicts=self.conflicts,
                             decisions=self.decisions, assumption_failed=failed)

        if self._contradiction:
            return result(False)
        self._backjump(0)
        if self._propagate() is not None:
            self._contradiction = True
            return result(False)

        restart_count = 0
        conflicts_until_restart = _luby(restart_count) * 128
        conflict_budget = None if self.max_conflicts is None \
            else self.conflicts + self.max_conflicts

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if conflict_budget is not None and self.conflicts > conflict_budget:
                    raise TimeoutError(
                        f"SAT solver exceeded {self.max_conflicts} conflicts")
                if self._decision_level() == 0:
                    self._contradiction = True
                    return result(False)
                learnt, backjump_level = self._analyze(conflict)
                self._backjump(backjump_level)
                if len(learnt) == 1:
                    self._enqueue_learnt_unit(learnt[0])
                else:
                    self.learned.append(learnt)
                    self._watch(learnt[0], learnt)
                    self._watch(learnt[1], learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= self.var_decay
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restart_count += 1
                    conflicts_until_restart = _luby(restart_count) * 128
                    self._backjump(0)
                continue

            if self._decision_level() < len(assumptions):
                # Extend the assumption prefix by one decision level.
                lit = assumptions[self._decision_level()]
                value = self._lit_value(lit)
                if value is False:
                    return result(False, failed=True)
                self.trail_lim.append(len(self.trail))
                if value is None:
                    self._enqueue(lit, None)
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                model = {var: bool(self.value[var])
                         for var in range(1, self.num_vars + 1)}
                return result(True, model=model)
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            polarity = self.phase[variable]
            self._enqueue(variable if polarity else -variable, None)

    def _enqueue_learnt_unit(self, lit: int) -> None:
        if not self._enqueue(lit, None):
            self._contradiction = True


class SatSolver(IncrementalSatSolver):
    """One-shot CDCL solver over a :class:`CNF` formula (legacy interface)."""

    def __init__(self, cnf: CNF, max_conflicts: Optional[int] = None):
        super().__init__(max_conflicts=max_conflicts)
        for _ in range(cnf.num_vars):
            self.new_var()
        for clause in cnf.clauses:
            self._add_clause(list(clause), learned=False)
        # Seed the branching activities with literal occurrence counts so the
        # first decisions target heavily-constrained variables (the original
        # one-shot seeding, over the unsimplified clause list).
        for clause in cnf.clauses:
            for lit in clause:
                self.activity[abs(lit)] += 1.0 / max(1, len(clause))
        self._rebuild_order()


def solve_cnf(cnf: CNF, max_conflicts: Optional[int] = None) -> SatResult:
    """Convenience wrapper: solve a CNF formula from scratch."""
    return SatSolver(cnf, max_conflicts=max_conflicts).solve()
