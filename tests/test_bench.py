"""Benchmark harness tests on micro models."""

import dataclasses
import json
import os

import numpy as np
import pytest

from specdec import bench as B
from specdec import corpus as C
from specdec import engine as E
from specdec import model as M
from specdec import tokenizer as TK
from specdec import training as TR
from specdec.errors import ConfigError, ContractError
from test_model import fail_writes_halfway


@pytest.fixture(scope="module")
def micro_run():
    text = "\n".join(doc.text for doc in C.synthesize_documents(120, seed=5))
    tok = TK.build_tokenizer(text, 300)
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

    def test_arm_order_alternates(self, micro_run, monkeypatch):
        tok, target, drafts = micro_run
        calls = []
        vanilla, generate = B.vanilla_generate, E.SpeculativeEngine.generate

        def recorded_vanilla(*args, **kwargs):
            calls.append("vanilla")
            return vanilla(*args, **kwargs)

        def recorded_generate(self, *args, **kwargs):
            calls.append("spec")
            return generate(self, *args, **kwargs)

        monkeypatch.setattr(B, "vanilla_generate", recorded_vanilla)
        monkeypatch.setattr(E.SpeculativeEngine, "generate", recorded_generate)
        report = B.bench_cell(target, drafts["fspad"], tok, "continuation", 0.0,
                              B.DraftingConfig(depth=2, expand_k=2, select_m=2, budget=4),
                              small_bench(prompts_per_task=4), seed=3)
        assert calls == ["vanilla", "spec", "spec", "vanilla"] * 2
        assert report.prompts_run == 4

    def test_stochastic_temperature_cell(self, micro_run):
        tok, target, drafts = micro_run
        report = B.bench_cell(target, drafts["fspad"], tok, "continuation", 1.0,
                              B.DraftingConfig(depth=2, expand_k=2, select_m=2, budget=4),
                              small_bench(temperatures=(1.0,)), seed=12)
        assert report.temperature == 1.0
        assert report.tau >= 1.0


class TestDraftingConfig:
    @pytest.mark.parametrize("cap", ["depth", "expand_k", "select_m", "budget"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_cap_below_one_rejected(self, cap, value):
        with pytest.raises(ConfigError, match=cap):
            B.DraftingConfig(**{cap: value})
        with pytest.raises(ConfigError, match=cap):
            B.DraftingConfig.from_dict({cap: value})
        with pytest.raises(ConfigError, match=cap):
            dataclasses.replace(B.DraftingConfig(), **{cap: value})

    def test_caps_of_one_accepted(self):
        B.DraftingConfig(depth=1, expand_k=1, select_m=1, budget=1)


class TestRunBench:
    def test_grid_shape_and_outputs(self, micro_run, tmp_path):
        tok, target, drafts = micro_run
        out = tmp_path / "report.json"
        reports = B.run_bench(target, {"fspad": drafts["fspad"]}, tok,
                              B.DraftingConfig(depth=2, expand_k=2, select_m=2, budget=4),
                              small_bench(tasks=("continuation", "arithmetic")), seed=5)
        B.write_reports(reports, out)
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
            for f in ("speedup", "wall_ms_vanilla", "wall_ms_spec"):
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
        reports = B.run_bench(
            target, drafts, tok,
            B.DraftingConfig(depth=2, expand_k=2, select_m=2, budget=4),
            small_bench(), seed=8)
        B.write_reports(reports, out)
        assert len(reports) == 4
        variants = [r.variant for r in reports]
        assert variants == list(M.VARIANTS)
        summary = json.loads((tmp_path / "ablation_summary.json").read_text())
        assert summary == {"cells": 4, "ordering_regressions": B.ordering_regressions(reports)}

    def test_prompts_identical_across_variants(self):
        a = C.task_prompts("arithmetic", 6, seed=11)
        b = C.task_prompts("arithmetic", 6, seed=11)
        assert a == b


def fake_report(task, temperature, variant, tau):
    return B.BenchReport(task=task, temperature=temperature, variant=variant, tau=tau,
                         speedup=1.0, tokens_emitted=int(tau * 4), target_passes=4,
                         draft_passes=8, wall_ms_vanilla=5.0, wall_ms_spec=5.0,
                         prompts_run=2, prompts_skipped=0, seed=0, config_hash="abc")


class TestOrderingRegressions:
    def test_cells_in_report_order_and_variants_in_variant_order(self):
        taus = {("copy", 0.0): (2.0, 2.0, 2.5, 3.0),
                ("arithmetic", 0.0): (3.0, 2.0, 2.0, 2.0),
                ("continuation", 0.0): (2.0, 2.25, 1.0, 2.0)}
        reports = [fake_report(task, t, v, tau) for (task, t), row in taus.items()
                   for v, tau in reversed(list(zip(M.VARIANTS, row)))]
        assert B.ordering_regressions(reports) == [
            {"task": "copy", "temperature": 0.0, "variant": "no_pad",
             "tau_fspad": 2.0, "tau_other": 2.5},
            {"task": "copy", "temperature": 0.0, "variant": "neither",
             "tau_fspad": 2.0, "tau_other": 3.0},
            {"task": "continuation", "temperature": 0.0, "variant": "no_fs",
             "tau_fspad": 2.0, "tau_other": 2.25}]

    def test_temperatures_kept_apart(self):
        reports = [fake_report("copy", 0.0, "fspad", 2.0), fake_report("copy", 0.0, "no_fs", 1.5),
                   fake_report("copy", 1.0, "fspad", 1.0), fake_report("copy", 1.0, "no_fs", 1.5)]
        assert B.ordering_regressions(reports) == [
            {"task": "copy", "temperature": 1.0, "variant": "no_fs",
             "tau_fspad": 1.0, "tau_other": 1.5}]

    def test_lead_within_the_slack_is_no_regression(self):
        def regressions(lead):
            return B.ordering_regressions([fake_report("copy", 0.0, "fspad", 2.0),
                                           fake_report("copy", 0.0, "no_pad", 2.0 + lead)])
        assert regressions(0.0) == regressions(5e-13) == []
        assert [r["variant"] for r in regressions(4e-12)] == ["no_pad"]

    def test_summary_only_when_every_variant_ran(self, tmp_path):
        reports = [fake_report("copy", 0.0, v, 2.0) for v in M.VARIANTS]
        assert B.write_reports(reports[:3], tmp_path / "r.json") is None
        assert not (tmp_path / "r_summary.json").exists()
        summary = B.write_reports(reports, tmp_path / "r.json")
        assert summary == {"cells": 4, "ordering_regressions": []}
        assert json.loads((tmp_path / "r_summary.json").read_text()) == summary


class TestBenchConfig:
    @pytest.mark.parametrize("bench,field", [
        ({"temperatures": ["hot"]}, "temperatures"), ({"temperatures": [True]}, "temperatures"),
        ({"temperatures": [2.5]}, "temperatures"), ({"temperatures": [-0.5]}, "temperatures"),
        ({"temperatures": [float("nan")]}, "temperatures"), ({"temperatures": []}, "temperatures"),
        ({"tasks": []}, "tasks"), ({"prompts_per_task": -3}, "prompts_per_task"),
        ({"prompts_per_task": 0}, "prompts_per_task"), ({"max_new": 0}, "max_new"),
        ({"warmup_prompts": -1}, "warmup_prompts"),
        ({"warmup_prompts": 3, "prompts_per_task": 3}, "warmup_prompts"),
        ({"tasks": ["copy", "copy"]}, "tasks"), ({"temperatures": [0, 0.0]}, "temperatures")])
    def test_setting_out_of_range_rejected(self, bench, field):
        with pytest.raises(ConfigError, match=f"bench.{field}"):
            B.BenchConfig.from_dict(bench)

    def test_least_settings_accepted(self):
        B.BenchConfig(tasks=["copy"], temperatures=[0, 2], prompts_per_task=1, max_new=1,
                      warmup_prompts=0)

    @pytest.mark.parametrize("section,field", [("model", "hidden_size"),
                                               ("training", "loss_weight"),
                                               ("training", "learning_rate"),
                                               ("drafting", "budget")])
    def test_nan_fails_every_lower_bound(self, section, field):
        cls = {"model": M.ModelConfig, "training": TR.TrainConfig,
               "drafting": B.DraftingConfig}[section]
        with pytest.raises(ConfigError, match=f"{section}.{field}"):
            cls(**{field: float("nan")})


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
        assert lines[0] == "task,temperature,variant,tau"
        assert len(lines) == 1 + 4
        assert any("continuation,0.0,fspad,2.5" in l for l in lines)

    def test_temperatures_kept_apart(self, tmp_path):
        reports = self._fake_reports()
        hot = [dataclasses.replace(r, temperature=1.0, tau=3.0, tokens_emitted=12)
               for r in reports if r.task == "copy" and r.variant == "fspad"]
        path = tmp_path / "plot.csv"
        B.emit_plots(reports + hot, path)
        lines = path.read_text().strip().splitlines()
        assert "copy,0.0,fspad,2.500000000" in lines
        assert "copy,1.0,fspad,3.000000000" in lines

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
        assert json.loads(out.read_text()) == [r.to_dict() for r in reports]

    def test_failed_write_keeps_earlier_report(self, tmp_path, monkeypatch):
        reports = self._fake_reports()
        out = tmp_path / "r.json"
        B.write_reports(reports, out)
        B.emit_plots(reports, tmp_path / "plot.csv")
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError):
            B.write_reports(reports[:1], out)
        with pytest.raises(OSError):
            B.emit_plots(reports[:1], tmp_path / "plot.csv")
        monkeypatch.undo()
        # no temp file left behind, every earlier file whole
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
        assert json.loads(out.read_text()) == [r.to_dict() for r in reports]
