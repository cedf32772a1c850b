"""Benchmark harness tests on micro models."""

import json

import numpy as np
import pytest

from specdec import bench as B
from specdec import corpus as C
from specdec import engine as E
from specdec import model as M
from specdec import tokenizer as TK
from specdec.errors import ConfigError, ContractError


@pytest.fixture(scope="module")
def micro_run():
    tok = TK.build_tokenizer(C.corpus_text(n_docs=120, seed=5), 300)
    cfg = M.ModelConfig(vocab_size=tok.vocab_size, hidden_size=16, intermediate_size=24,
                        n_layers=1, n_heads=2, max_seq_len=256)
    target = M.TargetModel(cfg, seed=0)
    drafts = {v: M.DraftModel(cfg, target, variant=v, seed=i + 1)
              for i, v in enumerate(M.VARIANTS)}
    return tok, target, drafts


def small_bench(**kw):
    defaults = dict(tasks=("continuation",), temperatures=(0.0,),
                    prompts_per_task=3, max_new=12, warmup_prompts=1)
    defaults.update(kw)
    return B.BenchConfig(**defaults)


class TestBenchCell:
    def test_report_arithmetic(self, micro_run):
        tok, target, drafts = micro_run
        report = B.bench_cell(target, drafts["fspad"], tok, "continuation", 0.0,
                              B.DraftingConfig(depth=2, expand_k=2, select_m=2, budget=4),
                              small_bench(), seed=3)
        assert report.tau == pytest.approx(report.tokens_emitted / report.target_passes)
        assert report.tau >= 1.0
        assert report.prompts_run == 3

    def test_fairness_assertion_runs(self, micro_run):
        # the greedy arms must agree; reaching a report proves the check passed
        tok, target, drafts = micro_run
        report = B.bench_cell(target, drafts["no_fs"], tok, "copy", 0.0,
                              B.DraftingConfig(depth=2, expand_k=2, select_m=2, budget=4),
                              small_bench(tasks=("copy",)), seed=4)
        assert report.variant == "no_fs"

    def test_greedy_divergence_is_contract_error(self, micro_run, monkeypatch):
        tok, target, drafts = micro_run
        generate = E.SpeculativeEngine.generate

        def diverging(self, *args, **kwargs):
            out, stats = generate(self, *args, **kwargs)
            return [(out[0] + 1) % target.config.vocab_size] + out[1:], stats

        monkeypatch.setattr(E.SpeculativeEngine, "generate", diverging)
        with pytest.raises(ContractError, match="greedy fairness violated"):
            B.bench_cell(target, drafts["fspad"], tok, "continuation", 0.0,
                         B.DraftingConfig(depth=2, expand_k=2, select_m=2, budget=4),
                         small_bench(), seed=3)

    def test_stochastic_temperature_cell(self, micro_run):
        tok, target, drafts = micro_run
        report = B.bench_cell(target, drafts["fspad"], tok, "continuation", 1.0,
                              B.DraftingConfig(depth=2, expand_k=2, select_m=2, budget=4),
                              small_bench(temperatures=(1.0,)), seed=12)
        assert report.temperature == 1.0
        assert report.tau >= 1.0


class TestRunBench:
    def test_grid_shape_and_outputs(self, micro_run, tmp_path):
        tok, target, drafts = micro_run
        out = tmp_path / "report.json"
        reports = B.run_bench(target, {"fspad": drafts["fspad"]}, tok,
                              B.DraftingConfig(depth=2, expand_k=2, select_m=2, budget=4),
                              small_bench(tasks=("continuation", "arithmetic")),
                              seed=5, out_path=out)
        assert len(reports) == 2
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert (tmp_path / "report.csv").exists()

    def test_determinism_except_wall_fields(self, micro_run, tmp_path):
        tok, target, drafts = micro_run
        kw = dict(drafting=B.DraftingConfig(depth=2, expand_k=2, select_m=2, budget=4),
                  bench=small_bench(), seed=6)
        a = B.run_bench(target, {"fspad": drafts["fspad"]}, tok, **kw)
        b = B.run_bench(target, {"fspad": drafts["fspad"]}, tok, **kw)
        for ra, rb in zip(a, b):
            da, db = ra.to_dict(), rb.to_dict()
            for f in B.WALL_FIELDS:
                da.pop(f)
                db.pop(f)
            assert da == db

    def test_stats_recount_matches_tau(self, micro_run):
        # recompute tau from a per-step stats log and compare to the report
        tok, target, drafts = micro_run
        drafting = B.DraftingConfig(depth=2, expand_k=2, select_m=2, budget=4)
        bench = small_bench(warmup_prompts=0)
        report = B.bench_cell(target, drafts["fspad"], tok, "continuation", 0.0,
                              drafting, bench, seed=7)
        emitted = passes = 0
        drafter = E.ModelDrafter(drafts["fspad"], depth=2, expand_k=2, select_m=2, budget=4)
        engine = E.SpeculativeEngine(target, drafter)
        for i, prompt in enumerate(C.task_prompts("continuation", 3, seed=7)):
            ids = tok.encode(prompt, add_bos=True)
            seed = B._prompt_seed(7, "continuation", "gen", i)
            _, stats = engine.generate(ids, 12, temperature=0.0, seed=seed, eos_id=TK.EOS)
            log = json.loads(stats.to_json())
            emitted += log["emitted"]
            passes += log["target_passes"]
        assert report.tau == pytest.approx(emitted / passes)


class TestCeilingReports:
    def test_always_wrong_tau_one(self, micro_run):
        tok, target, _ = micro_run

        def disagree(committed, chain):
            want, _ = E.vanilla_generate(target, list(committed) + chain, 1,
                                         temperature=0.0)
            return (want[0] + 1) % target.config.vocab_size

        engine = E.SpeculativeEngine(target, E.ChainDrafter(disagree, depth=3))
        ids = tok.encode("the fox", add_bos=True)
        _, stats = engine.generate(ids, 10, temperature=0.0)
        assert stats.tau() == 1.0

    def test_oracle_chain_tau_six(self, micro_run):
        tok, target, _ = micro_run
        engine = E.SpeculativeEngine(target, E.OracleChainDrafter(target, depth=5))
        ids = tok.encode("the fox watches", add_bos=True)
        _, stats = engine.generate(ids, 30, temperature=0.0)
        assert stats.tau() == pytest.approx(6.0)


class TestAblation:
    def test_grid_and_summary(self, micro_run, tmp_path):
        tok, target, drafts = micro_run
        out = tmp_path / "ablation.json"
        reports, summary = B.run_ablation(
            target, drafts, tok,
            B.DraftingConfig(depth=2, expand_k=2, select_m=2, budget=4),
            small_bench(), seed=8, out_path=out)
        assert len(reports) == 4
        variants = [r.variant for r in reports]
        assert variants == list(M.VARIANTS)
        assert "ordering_regressions" in summary

    def test_missing_variant_named(self, micro_run):
        tok, target, drafts = micro_run
        partial = {k: v for k, v in drafts.items() if k != "no_pad"}
        with pytest.raises(ConfigError, match="no_pad"):
            B.run_ablation(target, partial, tok, B.DraftingConfig(),
                           small_bench(), seed=9)

    def test_prompts_identical_across_variants(self):
        a = C.task_prompts("arithmetic", 6, seed=11)
        b = C.task_prompts("arithmetic", 6, seed=11)
        assert a == b


class TestEmitPlots:
    def _fake_reports(self):
        rows = []
        for task in ("continuation", "copy"):
            for variant, emitted in (("fspad", 10), ("no_fs", 9)):
                rows.append(B.BenchReport(
                    task=task, temperature=0.0, variant=variant, tau=emitted / 4,
                    speedup=1.2, tokens_emitted=emitted, target_passes=4,
                    draft_passes=8, wall_ms_vanilla=5.0, wall_ms_spec=4.0,
                    prompts_run=2, prompts_skipped=0, seed=0, config_hash="abc"))
        return rows

    def test_one_row_per_task_variant_and_values(self, tmp_path):
        reports = self._fake_reports()
        path = tmp_path / "plot.csv"
        B.emit_plots(reports, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "task,variant,tau"
        assert len(lines) == 1 + 4
        assert any("continuation,fspad,2.5" in l for l in lines)

    def test_rerun_byte_identical(self, tmp_path):
        reports = self._fake_reports()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        B.emit_plots(reports, p1)
        B.emit_plots(reports, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_invariant_enforced(self):
        with pytest.raises(ConfigError):
            B.BenchReport(task="t", temperature=0.0, variant="v", tau=2.0,
                          speedup=1.0, tokens_emitted=10, target_passes=4,
                          draft_passes=0, wall_ms_vanilla=1.0, wall_ms_spec=1.0,
                          prompts_run=1, prompts_skipped=0, seed=0, config_hash="x")

    def test_tau_below_one_rejected(self):
        with pytest.raises(ConfigError):
            B.BenchReport(task="t", temperature=0.0, variant="v", tau=0.5,
                          speedup=1.0, tokens_emitted=2, target_passes=4,
                          draft_passes=0, wall_ms_vanilla=1.0, wall_ms_spec=1.0,
                          prompts_run=1, prompts_skipped=0, seed=0, config_hash="x")

    def test_round_trip_reports(self, tmp_path):
        reports = self._fake_reports()
        out = tmp_path / "r.json"
        B.write_reports(reports, out)
        back = B.load_reports(out)
        assert [r.to_dict() for r in back] == [r.to_dict() for r in reports]
