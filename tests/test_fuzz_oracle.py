"""The differential oracle: agreement on clean programs, detection of
planted divergences, trap normalization, and path bookkeeping."""

from __future__ import annotations

import pytest

from repro.fuzz import GenConfig, OracleConfig, generate_program, run_oracle
from repro.fuzz.gen import Bin, FuzzFn, FuzzProgram, Lit, Var
from repro.fuzz.oracle import TRAP, Observation, _compare
from repro.native import native_available

HAVE_CC = native_available()


def _tiny(result, *, arg_sets=((3, 4),)) -> FuzzProgram:
    entry = FuzzFn("fz", (("a", "i64"), ("b", "i64")), "i64", (), result,
                   extern=True)
    return FuzzProgram((entry,), "fz", tuple(arg_sets), seed="tiny")


class TestCompare:
    def test_equal_observations_pass(self):
        prog = _tiny(Var("i64", "a"))
        ref = [Observation(3, "x")]
        assert _compare("s", prog, ref, [Observation(3, "x")]) is None

    def test_result_divergence_reported(self):
        prog = _tiny(Var("i64", "a"))
        failure = _compare("vm(static)", prog, [Observation(3)],
                           [Observation(4)])
        assert failure is not None
        assert failure.stage == "vm(static)"
        assert failure.expected == 3 and failure.got == 4
        assert failure.signature == ("vm(static)",)

    def test_output_divergence_reported(self):
        prog = _tiny(Var("i64", "a"))
        failure = _compare("c", prog, [Observation(3, "12")],
                           [Observation(3, "1")])
        assert failure is not None
        assert failure.message == "print-output divergence"

    def test_trap_sentinel_agrees_with_itself(self):
        prog = _tiny(Var("i64", "a"))
        assert _compare("s", prog, [Observation(TRAP)],
                        [Observation(TRAP)]) is None

    def test_outputs_can_be_ignored(self):
        prog = _tiny(Var("i64", "a"))
        assert _compare("ssa", prog, [Observation(3, "out")],
                        [Observation(3, "")], outputs=False) is None


class TestCleanPrograms:
    def test_generated_seeds_agree_everywhere(self):
        record = {}
        for seed in range(4):
            prog = generate_program(seed)
            failure = run_oracle(prog, OracleConfig(record=record))
            assert failure is None, failure.describe()
        # every path must actually have run at least once
        assert {"interp(none)", "interp(static)", "vm(static)",
                "interp(pgo)", "vm(pgo)"} <= record["paths"]
        if HAVE_CC:
            assert "native(static)" in record["paths"]

    def test_expr_only_exercises_cps_baseline(self):
        record = {}
        prog = generate_program(1, GenConfig(expr_only=True))
        assert run_oracle(prog, OracleConfig(record=record)) is None
        assert "cps" in record["paths"]
        assert "ssa" in record["paths"]  # expr-only programs are first-order

    def test_handwritten_program_passes(self):
        prog = _tiny(Bin("i64", "+", Var("i64", "a"),
                         Bin("i64", "*", Var("i64", "b"), Lit("i64", 7))),
                     arg_sets=((3, 4), (-5, 9)))
        assert run_oracle(prog, OracleConfig()) is None


class TestDetection:
    def test_oracle_catches_semantic_change(self, monkeypatch):
        """A pass that silently changes semantics must be flagged."""
        from repro.fuzz.inject import drop_one_argument
        import repro.transform.pipeline as pipeline

        prog = generate_program(24)
        original = pipeline.optimize

        def sabotaged(world, **kwargs):
            stats = original(world, **kwargs)
            drop_one_argument(world)
            return stats

        monkeypatch.setattr(pipeline, "optimize", sabotaged)
        # run_vm=False: the bounded interpreter alone catches the
        # sabotage; a dropped loop-carried argument can make the
        # program spin until the (much larger) VM step budget.
        failure = run_oracle(prog, OracleConfig(run_pgo=False,
                                                run_ssa=False, run_vm=False,
                                                verify_each_pass=False,
                                                interp_max_steps=200_000))
        assert failure is not None
        assert "divergence" in failure.message

    def test_verify_each_pass_catches_broken_invariant(self, monkeypatch):
        """A pass that corrupts the IR is attributed by stage."""
        import repro.transform.inliner as inliner

        prog = generate_program(2)
        original = inliner.inline_small_functions

        def corrupting(world, **kwargs):
            stats = original(world, **kwargs)
            # prune a continuation other code still references
            for cont in list(world.continuations()):
                if (cont.has_body() and not cont.is_external
                        and not cont.is_intrinsic() and cont.uses):
                    live = set(world.continuations()) - {cont}
                    world._prune_continuations(live)
                    break
            return stats

        monkeypatch.setattr(inliner, "inline_small_functions", corrupting)
        # the pipeline imports the pass inside the function, so patch at
        # the source module and re-resolve
        failure = run_oracle(prog, OracleConfig(run_pgo=False,
                                                run_ssa=False))
        assert failure is not None
        assert failure.stage in ("verify(static)", "compile(static)")


class TestCampaignCase:
    def test_a_case_timeout_is_reported_as_a_timeout(self, tmp_path):
        """``--case-timeout`` ends a seed as a timeout wherever it lands:
        the oracle's guards around each compile and run do not take it
        for a divergence, so no repro reaches the corpus."""
        from repro.fuzz.cli import _campaign_case, _parse_args

        corpus = tmp_path / "corpus"
        args = _parse_args(["--case-timeout", "0.05", "--no-native",
                            "--no-shrink", "--corpus", str(corpus)])
        result = _campaign_case((0, False, args))
        assert result["status"] == "timeout", result
        assert not corpus.exists()
