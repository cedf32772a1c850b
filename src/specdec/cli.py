"""Command-line harness.

Subcommands: train-target, train-draft, generate, bench, ablate,
selftest.  A run directory (--out) accumulates the tokenizer, model
checkpoints, training logs, and benchmark reports.

Exit codes: 0 ok, 2 config error, 3 checkpoint/IO error,
4 numeric/training error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench as B
from . import corpus as C
from . import engine as E
from . import model as M
from . import tokenizer as TK
from . import training as TR
from .errors import (CapacityError, CheckpointFormatError, ConfigError, ContractError,
                     NumericError, SpecDecError, TrainingError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

CONFIG_SECTIONS = {
    "model": M.ModelConfig.from_dict,
    "training": TR.TrainConfig.from_dict,
    "drafting": B.DraftingConfig.from_dict,
    "bench": B.BenchConfig.from_dict,
}


class AppConfig:
    def __init__(self, model=None, training=None, drafting=None, bench=None):
        self.model = model or M.ModelConfig()
        self.training = training or TR.TrainConfig()
        self.drafting = drafting or B.DraftingConfig()
        self.bench = bench or B.BenchConfig()

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as f:
                raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - set(CONFIG_SECTIONS)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        parsed = {name: CONFIG_SECTIONS[name](raw[name]) for name in raw}
        return cls(**parsed)


def load_config(args):
    cfg = AppConfig.from_file(args.config) if args.config else AppConfig()
    if getattr(args, "seed", None) is not None:
        cfg.training.seed = args.seed
    for flag, attr in (("budget", "budget"), ("topk", "expand_k"), ("depth", "depth")):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg.drafting, attr, value)
    return cfg


def _run_paths(out_dir):
    return {
        "tokenizer": os.path.join(out_dir, "tokenizer.json"),
        "target": os.path.join(out_dir, "target.fspd"),
        "draft": lambda v: os.path.join(out_dir, f"draft_{v}.fspd"),
        "pretrain_log": os.path.join(out_dir, "pretrain_log.jsonl"),
        "draft_log": lambda v: os.path.join(out_dir, f"draft_{v}_log.jsonl"),
    }


def _build_corpus(cfg, progress=None):
    if progress:
        progress("synthesizing corpus")
    docs = C.synthesize_documents(cfg.training.corpus_docs, seed=cfg.training.corpus_seed)
    text = "\n".join(d.text for d in docs)
    return docs, text


def _load_run(out_dir, need_target=True):
    paths = _run_paths(out_dir)
    if not os.path.exists(paths["tokenizer"]):
        raise CheckpointFormatError(f"no tokenizer at {paths['tokenizer']}; "
                                    f"run train-target first")
    tok = TK.Tokenizer.load(paths["tokenizer"])
    target = None
    if need_target:
        if not os.path.exists(paths["target"]):
            raise CheckpointFormatError(f"no target checkpoint at {paths['target']}")
        target = M.load_checkpoint(paths["target"])
    return tok, target


def _load_drafts(out_dir, target, variants):
    paths = _run_paths(out_dir)
    drafts = {}
    for variant in variants:
        p = paths["draft"](variant)
        if not os.path.exists(p):
            raise CheckpointFormatError(f"missing draft checkpoint for variant "
                                        f"{variant!r} at {p}")
        drafts[variant] = M.load_checkpoint(p, target=target)
    return drafts


def cmd_train_target(args):
    cfg = load_config(args)
    os.makedirs(args.out, exist_ok=True)
    paths = _run_paths(args.out)
    docs, text = _build_corpus(cfg, progress=_say)
    tok = TK.build_tokenizer(text, cfg.model.vocab_size)
    if tok.vocab_size != cfg.model.vocab_size:
        _say(f"note: corpus supports only {tok.vocab_size} of "
             f"{cfg.model.vocab_size} vocabulary entries")
        cfg.model.vocab_size = tok.vocab_size
    tok.save(paths["tokenizer"])
    corpus = TR.TokenizedCorpus.build(docs, tok, cfg.model.max_seq_len,
                                      eval_frac=cfg.training.eval_frac,
                                      seed=cfg.training.seed)
    target = TR.pretrain_target(corpus, cfg.training, cfg.model,
                                log_path=paths["pretrain_log"], progress=_say)
    M.save_checkpoint(target, paths["target"])
    final = TR.eval_stream_loss(target, corpus.stream, seq_len=cfg.training.seq_len)
    _say(f"saved {paths['target']}; eval loss {final:.3f} "
         f"(uniform {TR.uniform_loss(cfg.model.vocab_size):.3f})")
    return EXIT_OK


def cmd_train_draft(args):
    cfg = load_config(args)
    tok, target = _load_run(args.out)
    cfg.model = target.config
    docs, _ = _build_corpus(cfg)
    corpus = TR.TokenizedCorpus.build(docs, tok, cfg.model.max_seq_len,
                                      eval_frac=cfg.training.eval_frac,
                                      seed=cfg.training.seed)
    paths = _run_paths(args.out)
    draft = TR.train_draft(target, corpus, cfg.training, variant=args.variant,
                           log_path=paths["draft_log"](args.variant), progress=_say)
    M.save_checkpoint(draft, paths["draft"](args.variant))
    acc = TR.eval_draft_accuracy(target, draft, corpus.eval_docs, top_k=(1, 5),
                                 max_docs=60)
    _say(f"saved {paths['draft'](args.variant)}; eval top-1 {acc[1]:.3f} "
         f"top-5 {acc[5]:.3f}")
    return EXIT_OK


def cmd_generate(args):
    cfg = load_config(args)
    tok, target = _load_run(args.out)
    drafts = _load_drafts(args.out, target, [args.variant])
    drafter = E.ModelDrafter(drafts[args.variant], depth=cfg.drafting.depth,
                             expand_k=cfg.drafting.expand_k,
                             select_m=cfg.drafting.select_m,
                             budget=cfg.drafting.budget)
    engine = E.SpeculativeEngine(target, drafter)
    ids = tok.encode(args.prompt, add_bos=True)
    out, stats = engine.generate(ids, args.max_new, temperature=args.temperature,
                                 seed=cfg.training.seed, eos_id=TK.EOS)
    print(tok.decode(out))
    _say(f"tau {stats.tau():.2f} over {stats.target_passes} target passes; "
         f"stats {stats.to_json()}")
    _say(f"latency {json.dumps(drafter.latency.to_dict(), sort_keys=True)}")
    return EXIT_OK


def cmd_bench(args):
    cfg = load_config(args)
    tok, target = _load_run(args.out)
    if args.temperature is not None:
        cfg.bench.temperatures = (args.temperature,)
    variants = args.variants.split(",") if args.variants else ["fspad"]
    drafts = _load_drafts(args.out, target, variants)
    out_path = args.report or os.path.join(args.out, "bench_report.json")
    reports = B.run_bench(target, drafts, tok, cfg.drafting, cfg.bench,
                          cfg.training.seed, out_path=out_path, progress=_say)
    B.emit_plots(reports, os.path.splitext(out_path)[0] + "_plot.csv")
    for r in reports:
        _say(f"{r.task} T={r.temperature} {r.variant}: tau {r.tau:.2f} "
             f"speedup {r.speedup:.2f}x")
    _say(f"wrote {out_path}")
    return EXIT_OK


def cmd_ablate(args):
    cfg = load_config(args)
    tok, target = _load_run(args.out)
    if args.temperature is not None:
        cfg.bench.temperatures = (args.temperature,)
    drafts = _load_drafts(args.out, target, list(M.VARIANTS))
    out_path = args.report or os.path.join(args.out, "ablation_report.json")
    reports, summary = B.run_ablation(target, drafts, tok, cfg.drafting, cfg.bench,
                                      cfg.training.seed, out_path=out_path,
                                      progress=_say)
    B.emit_plots(reports, os.path.splitext(out_path)[0] + "_plot.csv")
    for r in reports:
        _say(f"{r.task} T={r.temperature} {r.variant}: tau {r.tau:.2f}")
    if summary["ordering_regressions"]:
        _say("=" * 66)
        _say("ABLATION ORDERING REGRESSION (toy-scale orderings are noisy):")
        for reg in summary["ordering_regressions"]:
            _say(f"  {reg['task']} T={reg['temperature']}: full config tau "
                 f"{reg['tau_fspad']:.2f} < {reg['variant']} tau {reg['tau_other']:.2f}")
        _say("=" * 66)
    else:
        _say("ablation ordering holds: full configuration leads every cell")
    M.write_atomic(os.path.splitext(out_path)[0] + "_summary.json",
                   json.dumps(summary, indent=2, sort_keys=True).encode("utf-8"))
    return EXIT_OK


def cmd_selftest(args):
    failures = []

    def check(name, fn):
        try:
            fn()
            _say(f"selftest {name}: ok")
        except SpecDecError as e:  # report and continue
            failures.append(name)
            _say(f"selftest {name}: FAIL ({type(e).__name__}: {e})")

    def gradients():
        rng = np.random.default_rng(0)
        from . import tensor as T
        w = T.Tensor(rng.normal(size=(6, 4)), dtype=np.float64, requires_grad=True)
        x = T.Tensor(rng.normal(size=(3, 6)), dtype=np.float64)
        T.clear_tape()
        loss = T.mean_all(T.silu(T.matmul(x, w)))
        T.backward(loss)
        flat = w.data.reshape(-1)
        g = w.grad.reshape(-1)
        for i in (0, 5, 17):
            orig = flat[i]
            h = 1e-5
            flat[i] = orig + h
            T.clear_tape()
            up = T.mean_all(T.silu(T.matmul(x, w))).item()
            flat[i] = orig - h
            T.clear_tape()
            down = T.mean_all(T.silu(T.matmul(x, w))).item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            if abs(g[i] - fd) > 1e-3 * max(1.0, abs(fd)):
                raise NumericError(f"gradient mismatch at {i}: {g[i]} vs {fd}")

    def greedy_lossless():
        cfg = M.ModelConfig(vocab_size=32, hidden_size=16, intermediate_size=24,
                            n_layers=2, n_heads=2, max_seq_len=96)
        target = M.TargetModel(cfg, seed=1)
        draft = M.DraftModel(cfg, target, seed=2)
        engine = E.SpeculativeEngine(target, E.ModelDrafter(draft, depth=3, expand_k=3,
                                                            select_m=3, budget=6))
        rng = np.random.default_rng(3)
        for _ in range(5):
            prompt = rng.integers(0, 32, size=5).tolist()
            want, _ = E.vanilla_generate(target, prompt, 16, temperature=0.0)
            got, _ = engine.generate(prompt, 16, temperature=0.0)
            if got != want:
                raise ContractError("speculative output diverged from vanilla")

    def checkpoint_roundtrip():
        import tempfile
        cfg = M.ModelConfig(vocab_size=16, hidden_size=8, intermediate_size=12,
                            n_layers=1, n_heads=2, max_seq_len=32)
        target = M.TargetModel(cfg, seed=4)
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "t.fspd")
            M.save_checkpoint(target, p)
            back = M.load_checkpoint(p)
            for name, t in target.named_tensors().items():
                if not np.array_equal(back.named_tensors()[name].data, t.data):
                    raise CheckpointFormatError(f"tensor {name} not bit-equal")

    check("gradients", gradients)
    check("greedy-losslessness", greedy_lossless)
    check("checkpoint-roundtrip", checkpoint_roundtrip)
    if failures:
        raise NumericError(f"selftest failures: {failures}")
    return EXIT_OK


def _say(msg):
    print(msg, file=sys.stderr)


def build_parser():
    parser = argparse.ArgumentParser(prog="specdec",
                                     description="speculative decoding harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default="specdec_run"):
        p.add_argument("--config", help="JSON config file (model/training/drafting/bench)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=out_default, help="run directory")
        p.add_argument("--temperature", type=float, default=None)
        p.add_argument("--budget", type=int, default=None, help="tree node budget")
        p.add_argument("--topk", type=int, default=None, help="children per expansion")
        p.add_argument("--depth", type=int, default=None, help="tree depth")

    p = sub.add_parser("train-target", help="build corpus+tokenizer, pretrain the target")
    common(p)
    p.set_defaults(fn=cmd_train_target)

    p = sub.add_parser("train-draft", help="distill a draft model variant")
    common(p)
    p.add_argument("--variant", choices=list(M.VARIANTS), default="fspad")
    p.set_defaults(fn=cmd_train_draft)

    p = sub.add_parser("generate", help="speculative generation from a prompt")
    common(p)
    p.add_argument("--prompt", required=True)
    p.add_argument("--max-new", type=int, default=48)
    p.add_argument("--variant", choices=list(M.VARIANTS), default="fspad")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("bench", help="vanilla vs speculative over task prompts")
    common(p)
    p.add_argument("--variants", help="comma-separated draft variants (default fspad)")
    p.add_argument("--report", help="report JSON path")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("ablate", help="4-variant ablation grid")
    common(p)
    p.add_argument("--report", help="report JSON path")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("selftest", help="fast built-in correctness checks")
    common(p)
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # temperature default differs per command; generate/bench want explicit control
    if getattr(args, "temperature", None) is None and args.command == "generate":
        args.temperature = 0.0
    try:
        return args.fn(args)
    except (ConfigError, ContractError) as e:
        _say(f"config error: {e}")
        return EXIT_CONFIG
    except (CheckpointFormatError, OSError) as e:
        _say(f"checkpoint/io error: {e}")
        return EXIT_IO
    except (NumericError, TrainingError, CapacityError) as e:
        _say(f"numeric/training error: {e}")
        return EXIT_NUMERIC
    except SpecDecError as e:
        _say(f"error: {e}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
