"""CLI tests: end-to-end tiny run, config drift protection, exit codes."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from specdec import cli


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

    def test_ablate_is_bench_over_every_variant(self, tiny_run, tmp_path):
        cfg, out = tiny_run
        wall = ("speedup", "wall_ms_vanilla", "wall_ms_spec")

        def written(stem):
            rows = json.loads(open(stem + ".json").read())
            return ([{k: v for k, v in r.items() if k not in wall} for r in rows],
                    open(stem + "_summary.json").read())

        bench = str(tmp_path / "bench")
        assert cli.main(["bench", "--config", cfg, "--out", out, "--seed", "0",
                         "--variants", "fspad,no_fs,no_pad,neither", "--report", bench]) == 0
        assert cli.main(["ablate", "--config", cfg, "--out", out, "--seed", "0",
                         "--report", str(tmp_path / "ablate.json")]) == 0
        assert written(bench) == written(str(tmp_path / "ablate"))

    def test_report_files_share_one_stem(self, tiny_run, tmp_path):
        cfg, out = tiny_run
        (tmp_path / "res.d").mkdir()
        assert cli.main(["ablate", "--config", cfg, "--out", out, "--seed", "0",
                         "--report", str(tmp_path / "res.d" / "report")]) == 0
        assert os.listdir(tmp_path) == ["res.d"]
        assert sorted(os.listdir(tmp_path / "res.d")) == [
            "report.csv", "report.json", "report_plot.csv", "report_summary.json"]

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

    @pytest.mark.parametrize("model", [{"n_heads": 0}, {"hidden_size": -4}, {"n_layers": 0},
                                       {"max_seq_len": 0}, {"vocab_size": 0},
                                       {"intermediate_size": -1}, {"rope_base": 0.0},
                                       {"rope_base": -2.0}])
    def test_model_size_out_of_range_is_config_error(self, tmp_path, model):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"model": {**TINY_CONFIG["model"], **model}}))
        assert cli.main(["train-target", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("drafting", [{"depth": 0}, {"expand_k": 0}, {"select_m": -1},
                                          {"budget": 0}])
    def test_cap_below_one_in_config_is_config_error(self, tmp_path, drafting):
        cfg = tmp_path / "caps.json"
        cfg.write_text(json.dumps({"drafting": drafting}))
        assert cli.main(["train-target", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("flag", ["--budget", "--topk", "--depth"])
    def test_cap_below_one_by_flag_is_config_error_before_loading(self, tmp_path, flag):
        # exit 2 with no run on disk: the caps are checked before any model loads
        assert cli.main(["generate", "--out", str(tmp_path / "none"), "--prompt", "x",
                         flag, "0"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("flags", [["--temperature", "3"], ["--temperature", "nan"],
                                       ["--max-new", "-1"]])
    def test_bad_request_is_config_error_before_loading(self, tmp_path, flags):
        # exit 2 with no run on disk: the request is checked before any model loads
        assert cli.main(["generate", "--out", str(tmp_path / "none"), "--prompt", "x"]
                        + flags) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command", ["bench", "ablate"])
    @pytest.mark.parametrize("bench,flags", [({"temperatures": ["hot"]}, []),
                                             ({"tasks": []}, []),
                                             ({"prompts_per_task": -3}, []),
                                             ({}, ["--temperature", "3"]),
                                             ({}, ["--temperature", "nan"])])
    def test_bench_setting_out_of_range_is_config_error_before_loading(self, tmp_path, command,
                                                                        bench, flags):
        # exit 2 with no run on disk: the settings are checked before any model loads
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"bench": {**TINY_CONFIG["bench"], **bench}}))
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "none")]
                        + flags) == cli.EXIT_CONFIG

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

    def test_mislabelled_draft_is_io_error(self, tiny_run, tmp_path):
        import shutil
        cfg, out = tiny_run
        clone = tmp_path / "mislabelled"
        shutil.copytree(out, clone)
        shutil.copyfile(clone / "draft_no_fs.fspd", clone / "draft_fspad.fspd")
        assert cli.main(["bench", "--config", cfg, "--out", str(clone),
                         "--variants", "fspad"]) == cli.EXIT_IO
        assert cli.main(["generate", "--config", cfg, "--out", str(clone), "--variant", "fspad",
                         "--prompt", "x"]) == cli.EXIT_IO

    def test_corrupt_checkpoint_is_io_error(self, tiny_run, tmp_path):
        import shutil
        cfg, out = tiny_run
        clone = tmp_path / "corrupt"
        shutil.copytree(out, clone)
        raw = (clone / "target.fspd").read_bytes()
        (clone / "target.fspd").write_bytes(raw[:40])
        assert cli.main(["generate", "--out", str(clone), "--prompt", "x"]) == cli.EXIT_IO

    def test_tensor_name_not_utf8_is_io_error(self, tiny_run, tmp_path):
        import shutil
        import struct
        _, out = tiny_run
        clone = tmp_path / "badname"
        shutil.copytree(out, clone)
        raw = bytearray((clone / "target.fspd").read_bytes())
        (json_len,) = struct.unpack("<I", raw[8:12])
        raw[12 + json_len + 4 + 2] = 0xff   # after the tensor count and the name length
        (clone / "target.fspd").write_bytes(bytes(raw))
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

    def test_stored_model_size_out_of_range_is_io_error(self, tiny_run, tmp_path):
        import shutil
        _, out = tiny_run
        clone = tmp_path / "zeroheads"
        shutil.copytree(out, clone)
        raw = (clone / "target.fspd").read_bytes()
        assert raw.count(b'"n_heads": 2') == 1
        (clone / "target.fspd").write_bytes(raw.replace(b'"n_heads": 2', b'"n_heads": 0'))
        assert cli.main(["generate", "--out", str(clone), "--prompt", "x"]) == cli.EXIT_IO

    def test_malformed_tokenizer_is_io_error(self, tiny_run, tmp_path):
        import shutil
        _, out = tiny_run
        clone = tmp_path / "badtok"
        shutil.copytree(out, clone)
        (clone / "tokenizer.json").write_text('{"merges": [[999, 2]]}')
        assert cli.main(["generate", "--out", str(clone), "--prompt", "x"]) == cli.EXIT_IO


class TestPromptBytes:
    def test_a_byte_that_is_not_utf8_in_argv_is_encoded_as_that_byte(self, tiny_run):
        cfg, out = tiny_run
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-m", "specdec.cli", "generate", "--config", cfg,
                               "--out", out, "--prompt", b"the fox \xff", "--max-new", "4"],
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == cli.EXIT_OK, proc.stderr

    def test_a_lone_surrogate_is_config_error(self, tiny_run):
        cfg, out = tiny_run
        assert cli.main(["generate", "--config", cfg, "--out", out,
                         "--prompt", "the fox \ud800", "--max-new", "4"]) == cli.EXIT_CONFIG


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
