"""Bounded, memoized candidate scoring in the Metropolis-Hastings step.

:meth:`MarkovChain.step` draws its acceptance number before scoring, stops
running the test suite once a failing prefix already forces rejection, and
keeps a per-chain memo of per-test results keyed on the program's content
key.  Both are pure work savings: the chain's trajectory — current program,
current cost, statistics, verified candidates — must be bit-identical to a
chain that scores every candidate in full against the whole suite and draws
afterwards, which is what these tests pin down.
"""

import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus import get_benchmark
from repro.engine import create_engine
from repro.synthesis.checkpoint import (
    apply_chain_state, capture_chain_state, decode_chain_state,
)
from repro.synthesis.cost import (
    BOUND_SLACK, CostSettings, DiffKind, NumTestsVariant, error_cost,
    error_from_distances, error_lower_bound, performance_cost, total_cost,
)
from repro.synthesis.mcmc import MarkovChain
from repro.synthesis.params import TABLE8_SETTINGS
from repro.synthesis.proposals import ProposalGenerator
from repro.synthesis.testcases import TestCaseGenerator as InputGenerator

STEPS = 250


def _source():
    return get_benchmark("xdp_pktcntr").program()


class _Bounded(MarkovChain):
    """The production chain, recording which steps rejected early."""

    def _evaluate(self, candidate, started=None, u=None):
        result = super()._evaluate(candidate, started=started, u=u)
        self.early_rejected = result[0] is None
        return result


class _FullScoring(MarkovChain):
    """The reference step: run the whole suite (no memo), then draw."""

    def step(self, started=None):
        self.stats.iterations += 1
        proposal = self.proposer.propose(self._current)
        candidate = self.source.with_instructions(proposal)
        self.clear_scores()
        cost, _ = self._evaluate(candidate, started=started)
        probability = 1.0 if cost <= self._current_cost else \
            math.exp(-self.beta_anneal * (cost - self._current_cost))
        self.accepted = self.rng.random() < probability
        if self.accepted:
            self._current = proposal
            self._current_cost = cost
            self.stats.proposals_accepted += 1


def _chain(cls, setting, **kwargs):
    return cls(_source(), cost_settings=setting.cost,
               probabilities=setting.probabilities, seed=11, **kwargs)


def _stats(chain):
    """Trajectory-bearing statistics (wall-clock fields dropped)."""
    stats = dataclasses.asdict(chain.stats)
    for field in ("elapsed_seconds", "best_found_at_seconds", "verification"):
        stats.pop(field)
    stages = {name: {k: v for k, v in counters.items() if k != "seconds"}
              for name, counters in chain.pipeline.stats.as_dict().items()}
    return stats, stages


def _verified(chain):
    return [(c.program.instructions, c.perf_cost, c.instruction_count,
             c.found_at_iteration) for c in chain.verified]


class _CountingSuiteRuns:
    """Counts the tests one chain's suite executes."""

    def __init__(self, chain):
        self.tests = 0
        run = chain.tests.run_candidate

        def counted(candidate, start=0, until=None):
            outputs = run(candidate, start, until)
            self.tests += len(outputs)
            return outputs

        chain.tests.run_candidate = counted


# --------------------------------------------------------------------------- #
# Trajectory identity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("setting", TABLE8_SETTINGS,
                         ids=lambda s: f"setting{s.setting_id}")
def test_trajectory_matches_full_scoring(setting):
    bounded = _chain(_Bounded, setting)
    reference = _chain(_FullScoring, setting)
    bounded_runs = _CountingSuiteRuns(bounded)
    reference_runs = _CountingSuiteRuns(reference)
    for chain in (bounded, reference):
        chain.pipeline.begin_generation()

    early = 0
    for _ in range(STEPS):
        bounded.step()
        reference.step()
        assert bounded._current == reference._current
        assert bounded._current_cost == reference._current_cost
        if bounded.early_rejected:
            early += 1
            assert not reference.accepted
    assert _stats(bounded) == _stats(reference)
    assert _verified(bounded) == _verified(reference)
    assert len(bounded.tests) == len(reference.tests)
    # Not vacuous: the bound fired, and it saved suite executions.
    assert early > STEPS // 4
    assert bounded_runs.tests < reference_runs.tests / 2


def test_memoized_distances_equal_error_cost():
    """The memo's per-test scores give error_cost's float exactly."""
    source = _source()
    for setting in TABLE8_SETTINGS:
        chain = _chain(MarkovChain, setting)
        proposer = ProposalGenerator(source, random.Random(setting.setting_id))
        current = list(source.instructions)
        for _ in range(40):
            current = proposer.propose(current)
            candidate = source.with_instructions(current)
            perf = performance_cost(source, candidate, setting.cost)
            distances, _ = chain._score(candidate, perf, None)
            outputs = create_engine().run_batch(candidate, chain.tests.tests)
            for unequal in (0, 1):
                assert error_from_distances(distances, setting.cost,
                                            unequal) == \
                    error_cost(chain.tests.source_outputs, outputs,
                               setting.cost, unequal)


# --------------------------------------------------------------------------- #
# The bound
# --------------------------------------------------------------------------- #
distances_st = st.lists(
    st.one_of(
        st.just(0.0),
        st.just(256.0),                                  # fault penalty
        st.integers(1, 64).map(float),                   # popcount range
        st.integers(1, 2 ** 64 - 1).map(float),          # above 2**53 too
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=60)


@given(distances=distances_st, data=st.data(),
       normalize=st.booleans(),
       variant=st.sampled_from(list(NumTestsVariant)),
       perf=st.floats(-50.0, 50.0), alpha=st.floats(0.01, 10.0),
       beta=st.floats(0.0, 10.0))
@settings(max_examples=300, deadline=None)
def test_bound_never_exceeds_full_cost(distances, data, normalize, variant,
                                       perf, alpha, beta):
    cost = CostSettings(DiffKind.ABSOLUTE, normalize, variant, alpha, beta)
    seen = data.draw(st.integers(1, len(distances)))
    prefix = distances[:seen]
    wrong = sum(1 for d in prefix if d > 0)
    full_error = error_from_distances(distances, cost, unequal=1)
    # The chain sums its prefix both ways: ``sum`` when resuming from the
    # memo, a running ``+=`` while tests execute.
    running = 0.0
    for distance in prefix:
        running += distance
    for prefix_sum in (sum(prefix), running):
        bound = error_lower_bound(prefix_sum, wrong, seen, len(distances),
                                  cost)
        assert bound <= full_error
        assert total_cost(bound, perf, 0.0, cost) <= \
            total_cost(full_error, perf, 0.0, cost)


@given(bound=st.floats(-1e6, 1e6), extra=st.floats(0.0, 1e6),
       current=st.floats(-1e6, 1e6), u=st.floats(0.0, 1.0, exclude_max=True),
       beta_anneal=st.floats(1e-6, 100.0))
@settings(max_examples=300, deadline=None)
def test_bound_rejection_implies_full_rejection(bound, extra, current, u,
                                                beta_anneal):
    """The chain's early-reject test, against the step's acceptance rule."""
    full = bound + extra
    if not (bound > current and u >= math.exp(
            -beta_anneal * (bound - current)) * (1.0 + BOUND_SLACK)):
        return
    probability = 1.0 if full <= current else \
        math.exp(-beta_anneal * (full - current))
    assert not u < probability


# --------------------------------------------------------------------------- #
# Invariants of the step
# --------------------------------------------------------------------------- #
class _CountingRandom:
    """Delegates to a ``random.Random``, counting draws made while scoring."""

    def __init__(self, rng):
        self._rng = rng
        self.scoring = False
        self.draws = 0
        self.draws_while_scoring = 0

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.draws += 1
            self.draws_while_scoring += self.scoring
            return attr(*args, **kwargs)

        return counted


def test_scoring_draws_nothing_from_the_chain_rng():
    chain = _chain(MarkovChain, TABLE8_SETTINGS[0])
    proxy = _CountingRandom(chain.rng)
    chain.rng = chain.proposer.rng = proxy
    evaluate = chain._evaluate

    def scoring(*args, **kwargs):
        proxy.scoring = True
        try:
            return evaluate(*args, **kwargs)
        finally:
            proxy.scoring = False

    chain._evaluate = scoring
    chain.run(STEPS)
    assert proxy.draws >= 2 * STEPS
    assert proxy.draws_while_scoring == 0


def test_eager_safety_scores_every_candidate_in_full():
    chain = _chain(_Bounded, TABLE8_SETTINGS[0], lazy_safety=False)
    check = chain.safety.check
    checked = []

    def counted(program):
        checked.append(program)
        return check(program)

    chain.safety.check = counted
    chain.pipeline.begin_generation()
    for _ in range(100):
        chain.step()
        assert not chain.early_rejected
    assert len(checked) == 100


# --------------------------------------------------------------------------- #
# The memo
# --------------------------------------------------------------------------- #
def _failing_candidate(source):
    proposer = ProposalGenerator(source, random.Random(3))
    current = list(source.instructions)
    chain = MarkovChain(source, seed=11)
    while True:
        current = proposer.propose(current)
        candidate = source.with_instructions(current)
        outputs = chain.tests.run_candidate(candidate)
        if any(a.observable() != b.observable()
               for a, b in zip(outputs, chain.tests.source_outputs)):
            return candidate


def test_memo_resumes_after_a_counterexample():
    source = _source()
    chain = MarkovChain(source, seed=11)
    starts = []
    run = chain.tests.run_candidate

    def recorded(candidate, start=0, until=None):
        starts.append(start)
        return run(candidate, start, until)

    chain.tests.run_candidate = recorded
    candidate = _failing_candidate(source)
    chain._evaluate(candidate)
    before = len(chain.tests)
    assert len(chain._scores[candidate.content_key()][0]) == before
    assert chain.tests.add_counterexample(
        InputGenerator(source, seed=404).generate_one())
    chain._evaluate(candidate)
    distances, equal = chain._scores[candidate.content_key()]
    assert len(distances) == len(equal) == before + 1
    assert starts == [0, before]
    # A third scoring finds everything memoized and runs nothing.
    chain._evaluate(candidate)
    assert starts == [0, before]


def test_memo_emptied_on_checkpoint_restore():
    chain = _chain(MarkovChain, TABLE8_SETTINGS[0])
    chain.run(50)
    state = decode_chain_state(capture_chain_state(chain))
    assert chain._scores
    apply_chain_state(chain, state)
    assert not chain._scores
    restored = _chain(MarkovChain, TABLE8_SETTINGS[0])
    apply_chain_state(restored, state)
    assert not restored._scores
    assert len(restored.tests) == len(chain.tests)


def test_memo_not_pickled():
    chain = _chain(MarkovChain, TABLE8_SETTINGS[0])
    chain.run(50)
    assert chain._scores
    assert "_scores" not in chain.__getstate__()
    copy = pickle.loads(pickle.dumps(chain))
    assert len(copy._scores) == 0
    # The copy keeps searching from the same state as the original.
    chain.run(30)
    copy.run(30)
    assert copy._current == chain._current
    assert copy._current_cost == chain._current_cost
