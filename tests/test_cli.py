"""CLI tests: end-to-end tiny run, config drift protection, exit codes."""

import argparse
import json

import pytest

from specdec import cli
from specdec import tree as TR


TINY_CONFIG = {
    "model": {"vocab_size": 280, "hidden_size": 16, "intermediate_size": 24,
              "n_layers": 1, "n_heads": 2, "max_seq_len": 128},
    "training": {"learning_rate": 2e-3, "steps": 12, "draft_steps": 10,
                 "batch_size": 4, "seq_len": 32, "corpus_docs": 150},
    "drafting": {"depth": 2, "expand_k": 2, "select_m": 2, "budget": 4},
    "bench": {"tasks": ["continuation"], "temperatures": [0.0],
              "prompts_per_task": 3, "max_new": 8, "warmup_prompts": 1},
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    out = str(root / "artifacts")
    rc = cli.main(["train-target", "--config", str(cfg_path), "--out", out, "--seed", "0"])
    assert rc == 0
    for variant in ("fspad", "no_fs", "no_pad", "neither"):
        rc = cli.main(["train-draft", "--config", str(cfg_path), "--out", out,
                       "--variant", variant, "--seed", "0"])
        assert rc == 0
    return str(cfg_path), out


class TestEndToEnd:
    def test_artifacts_exist(self, tiny_run):
        import os
        _, out = tiny_run
        for name in ("tokenizer.json", "target.fspd", "draft_fspad.fspd",
                     "pretrain_log.jsonl", "draft_fspad_log.jsonl"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_generate(self, tiny_run, capsys):
        cfg, out = tiny_run
        rc = cli.main(["generate", "--config", cfg, "--out", out,
                       "--prompt", "the fox watches", "--max-new", "6"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.strip() != ""
        stats = json.loads(captured.err.split("stats ", 1)[1].splitlines()[0])
        assert stats["target_passes"] >= 1
        latency = json.loads(captured.err.split("latency ", 1)[1].splitlines()[0])
        assert latency == TR.FIXED_BUDGET.to_dict()   # the table the drafter used

    def test_bench_writes_reports(self, tiny_run):
        import os
        cfg, out = tiny_run
        report = os.path.join(out, "bench.json")
        rc = cli.main(["bench", "--config", cfg, "--out", out, "--seed", "0",
                       "--report", report])
        assert rc == 0
        rows = json.loads(open(report).read())
        assert len(rows) == 1
        assert rows[0]["tau"] >= 1.0
        assert os.path.exists(os.path.join(out, "bench.csv"))
        assert os.path.exists(os.path.join(out, "bench_plot.csv"))

    def test_ablate(self, tiny_run):
        import os
        cfg, out = tiny_run
        rc = cli.main(["ablate", "--config", cfg, "--out", out, "--seed", "0"])
        assert rc == 0
        rows = json.loads(open(os.path.join(out, "ablation_report.json")).read())
        assert sorted({r["variant"] for r in rows}) == ["fspad", "neither", "no_fs", "no_pad"]
        summary = json.loads(open(os.path.join(out, "ablation_report_summary.json")).read())
        assert "ordering_regressions" in summary

    def test_selftest(self):
        assert cli.main(["selftest"]) == 0

    def test_failing_selftest_check_exits_4_and_is_named(self, monkeypatch, capsys):
        def diverge(self, prompt, max_new, **kw):
            return [-1] * max_new, None  # no token id is negative

        monkeypatch.setattr(cli.E.SpeculativeEngine, "generate", diverge)
        assert cli.main(["selftest"]) == 4
        err = capsys.readouterr().err
        assert "selftest greedy-losslessness: FAIL (ContractError: speculative output" in err
        assert "selftest gradients: ok" in err and "selftest checkpoint-roundtrip: ok" in err
        assert "['greedy-losslessness']" in err


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        for section in ({"model": {"bogus_knob": 1}}, {"training": {"grad_clip": 1.0}}):
            cfg.write_text(json.dumps(section))
            assert cli.main(["train-target", "--config", str(cfg),
                             "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("section,flags", [({}, ["--seed", "-1"]),
                                               ({"training": {"seed": -1}}, []),
                                               ({"training": {"corpus_seed": -1}}, [])])
    def test_negative_seed_is_config_error(self, tmp_path, section, flags):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps(section))
        assert cli.main(["train-target", "--config", str(cfg),
                         "--out", str(tmp_path / "o")] + flags) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("training", [{"batch_size": 0}, {"seq_len": 0}, {"corpus_docs": 0},
                                          {"steps": -3}, {"draft_steps": -1}])
    def test_size_out_of_range_is_config_error(self, tmp_path, training):
        cfg = tmp_path / "size.json"
        cfg.write_text(json.dumps({"model": TINY_CONFIG["model"],
                                   "training": {**TINY_CONFIG["training"], **training}}))
        assert cli.main(["train-target", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    def test_unknown_section_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad2.json"
        cfg.write_text(json.dumps({"modle": {}}))
        assert cli.main(["train-target", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    def test_malformed_json_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad3.json"
        cfg.write_text("{not json")
        assert cli.main(["train-target", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("section", [{"model": 5}, {"drafting": []}])
    def test_section_not_an_object_is_config_error(self, tmp_path, section):
        cfg = tmp_path / "bad4.json"
        cfg.write_text(json.dumps(section))
        assert cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--prompt", "x"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("section", [{"model": {"hidden_size": "x"}},
                                         {"training": {"learning_rate": "0.001"}},
                                         {"model": {"n_layers": True}}])
    def test_value_of_wrong_type_is_config_error(self, tmp_path, section):
        cfg = tmp_path / "bad5.json"
        cfg.write_text(json.dumps(section))
        assert cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--prompt", "x"]) == cli.EXIT_CONFIG

    def test_unknown_bench_variant_is_config_error(self, tiny_run):
        cfg, out = tiny_run
        assert cli.main(["bench", "--config", cfg, "--out", out,
                         "--variants", "fspad,bogus"]) == cli.EXIT_CONFIG

    def test_missing_checkpoint_is_io_error(self, tmp_path):
        assert cli.main(["bench", "--out", str(tmp_path / "empty")]) == cli.EXIT_IO

    def test_missing_draft_variant_is_io_error(self, tiny_run, tmp_path):
        import os
        import shutil
        cfg, out = tiny_run
        clone = tmp_path / "partial"
        shutil.copytree(out, clone)
        os.remove(clone / "draft_no_pad.fspd")
        assert cli.main(["ablate", "--config", cfg, "--out", str(clone)]) == cli.EXIT_IO

    def test_corrupt_checkpoint_is_io_error(self, tiny_run, tmp_path):
        import shutil
        cfg, out = tiny_run
        clone = tmp_path / "corrupt"
        shutil.copytree(out, clone)
        raw = (clone / "target.fspd").read_bytes()
        (clone / "target.fspd").write_bytes(raw[:40])
        assert cli.main(["generate", "--out", str(clone), "--prompt", "x"]) == cli.EXIT_IO

    def test_bad_stored_config_is_io_error(self, tiny_run, tmp_path):
        import shutil
        _, out = tiny_run
        clone = tmp_path / "badcfg"
        shutil.copytree(out, clone)
        raw = (clone / "target.fspd").read_bytes()
        assert raw.count(b'"hidden_size": 16') == 1
        (clone / "target.fspd").write_bytes(raw.replace(b'"hidden_size": 16', b'"hidden_size": 15'))
        assert cli.main(["generate", "--out", str(clone), "--prompt", "x"]) == cli.EXIT_IO

    def test_malformed_tokenizer_is_io_error(self, tiny_run, tmp_path):
        import shutil
        _, out = tiny_run
        clone = tmp_path / "badtok"
        shutil.copytree(out, clone)
        (clone / "tokenizer.json").write_text('{"merges": [[999, 2]]}')
        assert cli.main(["generate", "--out", str(clone), "--prompt", "x"]) == cli.EXIT_IO


class TestFlagOverrides:
    def test_drafting_flags_override_config(self, tiny_run):
        cfg, out = tiny_run
        rc = cli.main(["generate", "--config", cfg, "--out", out, "--prompt",
                       "list of colors", "--max-new", "4",
                       "--budget", "2", "--topk", "1", "--depth", "1"])
        assert rc == 0


class TestFlagsPerCommand:
    RUN = {"--config", "--seed", "--out"}
    DECODE = RUN | {"--temperature", "--budget", "--topk", "--depth"}

    def test_each_command_takes_only_the_flags_it_reads(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                 for name, p in sub.choices.items()}
        assert flags == {
            "train-target": self.RUN,
            "train-draft": self.RUN | {"--variant"},
            "generate": self.DECODE | {"--prompt", "--max-new", "--variant"},
            "bench": self.DECODE | {"--variants", "--report"},
            "ablate": self.DECODE | {"--report"},
            "selftest": set(),
        }

    @pytest.mark.parametrize("argv", [["selftest", "--budget", "3"],
                                      ["train-target", "--temperature", "0.5"]])
    def test_flag_the_command_does_not_read_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
