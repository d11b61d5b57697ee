"""Integration tests: the fused analyzer threaded through the system.

Covers the analyzer wiring end to end — one analyzer shared by a chain's
safety checker and its pipeline, the removed ``analysis`` knob — and the
static-safety pre-stage semantics (reject-before-replay, no equivalence
cache pollution).
"""

import pytest

from repro.analysis import AbstractAnalyzer
from repro.bpf import BpfProgram, HookType, assemble, get_hook
from repro.synthesis.mcmc import MarkovChain
from repro.synthesis.search import SearchOptions
from repro.verification import StaticSafetyStage, VerificationPipeline


def _prog(text, name="prog"):
    return BpfProgram(instructions=assemble(text),
                      hook=get_hook(HookType.XDP), name=name)


SAFE = "mov64 r0, 2\nmov64 r1, 7\nadd64 r1, 1\nexit"
UNSAFE = "ldxw r2, [r1+0]\nldxb r0, [r2+0]\nexit"


class TestAnalysisKnob:
    def test_fused_chain_shares_one_analyzer(self):
        chain = MarkovChain(_prog(SAFE), seed=1)
        assert isinstance(chain.safety.analyzer, AbstractAnalyzer)
        assert chain.safety.analyzer is chain.pipeline.analyzer
        assert [s.name for s in chain.pipeline.stages][0] == "safety"

    def test_unknown_analysis_kind_rejected(self):
        """The fused analyzer is the only one: no knob selects another."""
        with pytest.raises(TypeError):
            MarkovChain(_prog(SAFE), seed=1, analysis="legacy")
        with pytest.raises(TypeError):
            SearchOptions(analysis="legacy")


class TestStaticSafetyStage:
    def _pipeline(self):
        return VerificationPipeline(analyzer=AbstractAnalyzer())

    def test_rejects_unsafe_candidate_before_any_other_stage(self):
        pipeline = self._pipeline()
        outcome = pipeline.verify(_prog(SAFE), _prog(UNSAFE, "cand"))
        assert outcome.concluded_by == "safety"
        assert not outcome.result.equivalent
        assert "static safety" in outcome.result.reason
        # Only the safety stage ran; replay/cache/window/full never started.
        assert [v.stage for v in outcome.verdicts] == ["safety"]

    def test_safety_rejection_never_pollutes_equivalence_cache(self):
        pipeline = self._pipeline()
        candidate = _prog(UNSAFE, "cand")
        pipeline.verify(_prog(SAFE), candidate)
        assert pipeline.cache.lookup(candidate) is None

    def test_escalates_for_safe_candidates(self):
        pipeline = self._pipeline()
        source = _prog(SAFE)
        outcome = pipeline.verify(source, source.with_instructions(
            source.instructions, name="cand"))
        verdicts = {v.stage: v for v in outcome.verdicts}
        assert verdicts["safety"].outcome.value == "escalate"
        assert outcome.result.equivalent

    def test_escalates_when_source_itself_unsafe(self):
        pipeline = self._pipeline()
        outcome = pipeline.verify(_prog(UNSAFE, "src"), _prog(UNSAFE, "cand"))
        verdicts = {v.stage: v for v in outcome.verdicts}
        assert verdicts["safety"].outcome.value == "escalate"

    def test_standalone_pipeline_builds_its_own_analyzer(self):
        pipeline = VerificationPipeline()
        assert isinstance(pipeline.analyzer, AbstractAnalyzer)
        assert [s.name for s in pipeline.stages][0] == "safety"

    def test_stage_verdicts_are_memo_hits_for_chain(self):
        """The chain's safety check warms the memo the stage probes."""
        chain = MarkovChain(_prog(SAFE), seed=2)
        analyzer = chain.pipeline.analyzer
        hits_before = analyzer.program_memo_hits
        candidate = chain.source.with_instructions(chain.source.instructions)
        chain.safety.check(candidate)
        StaticSafetyStage().run(chain.pipeline, chain.source, candidate, None)
        assert analyzer.program_memo_hits > hits_before
