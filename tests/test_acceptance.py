"""Acceptance suite: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  The toy-scale stack (target + four draft variants)
trains once per session and is cached under tests/.acceptance_cache; the
first run takes roughly 10-20 minutes on one core, later runs seconds.
"""

import itertools
import json
import os
import shutil

import numpy as np
import pytest

import oracles
from specdec import bench as B
from specdec import corpus as C
from specdec import engine as E
from specdec import model as M
from specdec import tensor as T
from specdec import tokenizer as TK
from specdec import training as TR
from specdec.errors import CheckpointFormatError
from specdec.tree import build_draft_tree, tree_attention_mask

# Toy recipe: bump RECIPE_VERSION to invalidate the cache after changes.
RECIPE_VERSION = "v2"
PRETRAIN_STEPS = 400
DRAFT_STEPS = 500
TOY_LR = 1e-3   # desk-scale override; the shipped default mirrors the reference recipe
CACHE_DIR = os.path.join(os.path.dirname(__file__), ".acceptance_cache", RECIPE_VERSION)


def _announce(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f" — {detail}"
    print("\n" + line)
    assert ok, line


class ToyStack:
    def __init__(self, tokenizer, target, drafts, corpus, logs):
        self.tokenizer = tokenizer
        self.target = target
        self.drafts = drafts
        self.corpus = corpus
        self.logs = logs  # variant -> path to the draft training log


def _train_toy_stack():
    os.makedirs(CACHE_DIR, exist_ok=True)
    docs = C.synthesize_documents(4000, seed=1234)
    text = "\n".join(d.text for d in docs)
    tok = TK.build_tokenizer(text, 512)
    tok.save(os.path.join(CACHE_DIR, "tokenizer.json"))
    cfg = M.ModelConfig(vocab_size=tok.vocab_size)
    corpus = TR.TokenizedCorpus.build(docs, tok, cfg.max_seq_len, seed=0)

    tc = TR.TrainConfig(learning_rate=TOY_LR, steps=PRETRAIN_STEPS,
                        draft_steps=DRAFT_STEPS, batch_size=16, seq_len=96, seed=0)
    target = TR.pretrain_target(corpus, tc, cfg,
                                log_path=os.path.join(CACHE_DIR, "pretrain_log.jsonl"))
    M.save_checkpoint(target, os.path.join(CACHE_DIR, "target.fspd"))

    drafts, logs = {}, {}
    for variant in M.VARIANTS:
        log_path = os.path.join(CACHE_DIR, f"draft_{variant}_log.jsonl")
        drafts[variant] = TR.train_draft(target, corpus, tc, variant=variant,
                                         log_path=log_path)
        M.save_checkpoint(drafts[variant], os.path.join(CACHE_DIR, f"draft_{variant}.fspd"))
        logs[variant] = log_path
    with open(os.path.join(CACHE_DIR, "meta.json"), "w") as f:
        json.dump({"recipe": RECIPE_VERSION, "pretrain_steps": PRETRAIN_STEPS,
                   "draft_steps": DRAFT_STEPS}, f)
    return ToyStack(tok, target, drafts, corpus, logs)


def _load_toy_stack():
    tok = TK.Tokenizer.load(os.path.join(CACHE_DIR, "tokenizer.json"))
    target = M.load_checkpoint(os.path.join(CACHE_DIR, "target.fspd"))
    drafts = {v: M.load_checkpoint(os.path.join(CACHE_DIR, f"draft_{v}.fspd"), target=target)
              for v in M.VARIANTS}
    logs = {v: os.path.join(CACHE_DIR, f"draft_{v}_log.jsonl") for v in M.VARIANTS}
    docs = C.synthesize_documents(4000, seed=1234)
    corpus = TR.TokenizedCorpus.build(docs, tok, target.config.max_seq_len, seed=0)
    return ToyStack(tok, target, drafts, corpus, logs)


@pytest.fixture(scope="session")
def toy():
    meta = os.path.join(CACHE_DIR, "meta.json")
    if os.path.exists(meta):
        try:
            with open(meta) as f:
                cached = json.load(f)
            if (cached.get("recipe") == RECIPE_VERSION
                    and cached.get("pretrain_steps") == PRETRAIN_STEPS
                    and cached.get("draft_steps") == DRAFT_STEPS):
                return _load_toy_stack()
        except (OSError, json.JSONDecodeError, CheckpointFormatError):
            pass
        shutil.rmtree(CACHE_DIR, ignore_errors=True)
    return _train_toy_stack()


def _mixed_prompts(n, seed):
    per = {"continuation": (n + 1) // 2, "copy": n // 4, "arithmetic": n - (n + 1) // 2 - n // 4}
    prompts = []
    for task, count in per.items():
        prompts.extend(C.task_prompts(task, count, seed=seed))
    return prompts[:n]


class TestCriterion1GreedyLosslessness:
    def test_speculative_equals_vanilla(self, toy):
        drafter = E.ModelDrafter(toy.drafts["fspad"], depth=5, expand_k=8,
                                 select_m=8, budget=60)
        engine = E.SpeculativeEngine(toy.target, drafter)
        mismatches = 0
        for i, prompt in enumerate(_mixed_prompts(50, seed=101)):
            ids = toy.tokenizer.encode(prompt, add_bos=True)
            want, _ = E.vanilla_generate(toy.target, ids, 64, temperature=0.0,
                                         eos_id=TK.EOS)
            got, _ = engine.generate(ids, 64, temperature=0.0, eos_id=TK.EOS)
            mismatches += int(got != want)
        _announce(1, "greedy losslessness over 50 prompts x 64 tokens",
                  mismatches == 0, f"{mismatches} mismatching prompts")


class TestCriterion2StochasticLosslessness:
    def test_monte_carlo_marginals(self):
        cfg = M.ModelConfig(vocab_size=8, hidden_size=8, intermediate_size=12,
                            n_layers=1, n_heads=2, max_seq_len=64)
        target = M.TargetModel(cfg, seed=21)
        draft = M.DraftModel(cfg, target, seed=22)
        drafter = E.ModelDrafter(draft, depth=2, expand_k=2, select_m=2, budget=3)
        committed = [1, 5, 2]
        worst = 0.0
        with T.no_grad():
            cache = target.new_cache()
            _, feats = target.forward(np.array(committed[:-1]), cache=cache)
            features = [feats.data[i] for i in range(len(committed) - 1)]
            drafter.reset()
            for pos in range(5):
                tree = drafter.propose(committed, features)
                prefix = len(cache)
                tokens, positions, _ = E.flatten(tree, prefix)
                bias = M.allowed_to_bias(tree_attention_mask(tree, prefix))
                logits, node_feats = target.forward(tokens, positions=positions,
                                                    attn_bias=bias, cache=cache)
                probs = E._temperature_probs(logits.data, 1.0)

                rng = E.step_rng(404, pos)
                counts = np.zeros(cfg.vocab_size)
                for _ in range(200_000):
                    res = E.verify_stochastic(tree, probs, rng)
                    first = res.accepted_tokens[0] if res.accepted_tokens else res.bonus_token
                    counts[first] += 1
                tv = 0.5 * np.abs(counts / 200_000 - probs[0]).sum()
                worst = max(worst, tv)

                # advance one committed token (greedy) for the next position
                res = E.verify_greedy(tree, logits.data)
                keep = np.concatenate([np.arange(prefix),
                                       prefix + np.array([0] + res.accepted_path, dtype=int)])
                cache.keep(keep)
                for idx in [0] + res.accepted_path:
                    features.append(node_feats.data[idx])
                committed.extend(res.accepted_tokens + [res.bonus_token])
        _announce(2, "stochastic losslessness (200k trials x 5 positions)",
                  worst <= 0.01, f"worst TV distance {worst:.4f}")


class TestCriterion3GradientCorrectness:
    def test_all_parameter_groups(self):
        rng = np.random.default_rng(31)
        failures = []
        checked = 0
        for case in range(20):
            heads = int(rng.choice([1, 2]))
            hidden = int(rng.choice([8, 16]))
            cfg = M.ModelConfig(vocab_size=int(rng.integers(8, 17)), hidden_size=hidden,
                                intermediate_size=hidden + int(rng.integers(4, 17)),
                                n_layers=1, n_heads=heads, max_seq_len=32)
            target = M.TargetModel(cfg, seed=100 + case)
            draft = M.DraftModel(cfg, target, variant="fspad", seed=200 + case)
            for p in list(target.parameters()) + list(draft.parameters()):
                p.data = p.data.astype(np.float64)
            tokens = rng.integers(0, cfg.vocab_size, size=(2, 9))
            valid = np.ones_like(tokens, dtype=bool)
            response = np.zeros_like(tokens, dtype=bool)
            response[:, 3:] = True

            def target_loss():
                T.clear_tape()
                logits, _ = target.forward(tokens)
                return T.cross_entropy_labels(logits, np.roll(tokens, -1, axis=1))

            def draft_loss():
                T.clear_tape()
                loss, *_ = TR.draft_batch_losses(target, draft, tokens, valid,
                                                 response, loss_weight=0.1)
                return loss

            groups = {
                "embeddings": (target_loss, [target.embed]),
                "attention": (target_loss, [target.layers[0].attn.wq.weight,
                                            target.layers[0].attn.wo.weight]),
                "mlp": (target_loss, [target.layers[0].mlp.gate.weight,
                                      target.layers[0].mlp.down.weight]),
                "connector-projectors": (draft_loss, [draft.connector.up.weight,
                                                      draft.connector.gate.weight,
                                                      draft.connector.down.weight]),
                "doubled-mlp": (draft_loss, [draft.layer.mlp.down.weight]),
            }
            for name, (loss_fn, params) in groups.items():
                if name in ("connector-projectors", "doubled-mlp"):
                    target.set_trainable(False)
                    draft.set_trainable(True)
                else:
                    target.set_trainable(True)
                for p in list(target.parameters()) + list(draft.parameters()):
                    p.grad = None
                loss = loss_fn()
                T.backward(loss)
                analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                            for p in params]
                for p, a in zip(params, analytic):
                    flat = p.data.reshape(-1)
                    for idx in rng.choice(flat.size, size=2, replace=False):
                        h = 1e-4
                        orig = flat[idx]
                        flat[idx] = orig + h
                        up = loss_fn().item()
                        flat[idx] = orig - h
                        down = loss_fn().item()
                        flat[idx] = orig
                        fd = (up - down) / (2 * h)
                        err = abs(a.reshape(-1)[idx] - fd) / max(1.0, abs(fd))
                        checked += 1
                        if err > 1e-3:
                            failures.append((case, name, int(idx), err))
        _announce(3, "finite-difference gradient checks on 20 micro-configurations",
                  not failures, f"{checked} coordinates checked, {len(failures)} failures")


class TestCriterion4TreeOracle:
    def test_dynamic_tree_matches_exhaustive_oracle(self):
        mismatches = []
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            vocab = int(rng.integers(6, 17))
            hidden = 8
            cfg = M.ModelConfig(vocab_size=vocab, hidden_size=hidden,
                                intermediate_size=12, n_layers=1, n_heads=2,
                                max_seq_len=64)
            target = M.TargetModel(cfg, seed=2000 + seed)
            draft = M.DraftModel(cfg, target, seed=3000 + seed)
            depth = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            budget = int(rng.integers(1, 7))
            feat = rng.normal(size=hidden).astype(np.float32)
            root_token = int(rng.integers(0, vocab))
            with T.no_grad():
                tree, _ = build_draft_tree(draft, feat, root_token, depth=depth,
                                           expand_k=k, select_m=m, budget=budget)
                pool = oracles.enumerate_beam_pool(draft, feat, root_token,
                                                   depth=depth, expand_k=k, select_m=m)
            best = oracles.best_closed_subset(pool, budget)
            if oracles.tree_signature(tree) != oracles.node_signature(pool, best):
                mismatches.append(seed)
        _announce(4, "dynamic tree equals exhaustive subset oracle on 100 micro models",
                  not mismatches, f"mismatching seeds: {mismatches}")


class TestCriterion5MaskOracle:
    def test_masks_match_parent_walk(self):
        rng = np.random.default_rng(51)
        bad = 0
        from test_tree import random_tree
        for _ in range(1000):
            n = int(rng.integers(1, 31))
            prefix = int(rng.integers(0, 8))
            tree = random_tree(rng, n)
            got = tree_attention_mask(tree, prefix)
            want = oracles.mask_by_parent_walk(tree, prefix)[prefix:]  # the tree rows
            bad += int(not np.array_equal(got, want))
        _announce(5, "attention masks equal parent-chain oracle on 1000 trees",
                  bad == 0, f"{bad} mismatching trees")


class TestCriterion6DraftCeilings:
    def test_perfect_and_wrong_drafts(self):
        cfg = M.ModelConfig(vocab_size=32, hidden_size=16, intermediate_size=24,
                            n_layers=2, n_heads=2, max_seq_len=128)
        target = M.TargetModel(cfg, seed=61)
        oracle_engine = E.SpeculativeEngine(target, E.OracleChainDrafter(target, depth=5))
        _, stats = oracle_engine.generate([1, 2, 3], 30, temperature=0.0)
        tau_perfect = stats.tau()

        def disagree(committed, chain):
            want, _ = E.vanilla_generate(target, list(committed) + chain, 1,
                                         temperature=0.0)
            return (want[0] + 1) % cfg.vocab_size

        wrong_engine = E.SpeculativeEngine(target, E.ChainDrafter(disagree, depth=5))
        _, stats = wrong_engine.generate([1, 2, 3], 12, temperature=0.0)
        tau_wrong = stats.tau()
        _announce(6, "acceptance-length ceilings (perfect draft 6.0, hostile draft 1.0)",
                  tau_perfect == 6.0 and tau_wrong == 1.0,
                  f"perfect {tau_perfect:.2f}, hostile {tau_wrong:.2f}")


class TestCriterion7TrainingEffectiveness:
    def test_tau_after_toy_training(self, toy):
        full = B.DraftingConfig(depth=5, expand_k=8, select_m=8, budget=60)
        bench = B.BenchConfig(tasks=("continuation",), temperatures=(0.0,),
                              prompts_per_task=8, max_new=48, warmup_prompts=0)
        r_full = B.bench_cell(toy.target, toy.drafts["fspad"], toy.tokenizer,
                              "continuation", 0.0, full, bench, seed=71)
        r_half = B.bench_cell(toy.target, toy.drafts["fspad"], toy.tokenizer,
                              "continuation", 0.0, full.halved(), bench, seed=71)
        acc = TR.eval_draft_accuracy(toy.target, toy.drafts["fspad"],
                                     toy.corpus.eval_docs, top_k=(1,), max_docs=40)
        chance = 1.0 / toy.target.config.vocab_size
        ok = (r_full.tau >= 2.0 and r_half.tau >= 0.75 * r_full.tau
              and acc[1] >= 10 * chance)
        _announce(7, "trained draft reaches tau >= 2.0; halved preset drops < 25%",
                  ok, f"full tau {r_full.tau:.2f}, halved tau {r_half.tau:.2f}, "
                      f"eval top-1 {acc[1]:.3f} (chance {chance:.4f})")


class TestCriterion8AblationDirection:
    def test_ordering_reported_not_gated(self, toy):
        drafting = B.DraftingConfig(depth=5, expand_k=8, select_m=8, budget=60)
        bench = B.BenchConfig(tasks=C.TASKS, temperatures=(0.0,),
                              prompts_per_task=6, max_new=48, warmup_prompts=0)
        reports, summary = B.run_ablation(toy.target, toy.drafts, toy.tokenizer,
                                          drafting, bench, seed=81)
        wins = 0
        lines = []
        for task in C.TASKS:
            cell = {r.variant: r.tau for r in reports if r.task == task}
            lead = cell["fspad"] >= cell["no_fs"] and cell["fspad"] >= cell["no_pad"]
            wins += int(lead)
            lines.append(f"{task}: " + " ".join(f"{v}={cell[v]:.2f}" for v in M.VARIANTS))
        detail = "; ".join(lines)
        if wins >= 2:
            detail += f" — full configuration leads on {wins}/3 tasks"
        else:
            detail += (f" — ORDERING REGRESSION: full configuration leads on only "
                       f"{wins}/3 tasks (toy-scale orderings are noisy; reported, not gated)")
        structural_ok = len(reports) == len(C.TASKS) * len(M.VARIANTS)
        _announce(8, "ablation grid computed; direction reported", structural_ok, detail)


class TestCriterion9LossDecompositionAndDiagnostics:
    def test_logs(self, toy):
        path = toy.logs["fspad"]
        records = [json.loads(line) for line in open(path)]
        worst = max(abs(r["L"] - (0.1 * r["L_t"] + r["L_f"])) for r in records)
        has_series = all({"L_f", "top1_acc", "step"} <= set(r) for r in records)
        ok = worst <= 1e-6 and has_series and len(records) == DRAFT_STEPS
        _announce(9, "loss decomposition exact; feature-loss and accuracy series logged",
                  ok, f"max |L - (w*L_t + L_f)| = {worst:.2e} over {len(records)} steps")


class TestCriterion10CheckpointRoundTrip:
    def test_round_trip_and_rejection(self, toy, tmp_path):
        path = tmp_path / "target.fspd"
        M.save_checkpoint(toy.target, path)
        loaded = M.load_checkpoint(path)
        bit_exact = all(np.array_equal(loaded.named_tensors()[n].data, t.data)
                        for n, t in toy.target.named_tensors().items())

        draft_path = tmp_path / "draft.fspd"
        M.save_checkpoint(toy.drafts["fspad"], draft_path)
        loaded_draft = M.load_checkpoint(draft_path, target=toy.target)
        bit_exact &= all(np.array_equal(loaded_draft.named_tensors()[n].data, t.data)
                         for n, t in toy.drafts["fspad"].named_tensors().items())

        rejected = 0
        raw = path.read_bytes()
        for corruption in (raw[:30], b"XXXX" + raw[4:], raw + b"\x00"):
            bad = tmp_path / "bad.fspd"
            bad.write_bytes(corruption)
            try:
                M.load_checkpoint(bad)
            except CheckpointFormatError:
                rejected += 1
        _announce(10, "checkpoints round-trip bit-exactly; corruption rejected",
                  bit_exact and rejected == 3,
                  f"bit_exact={bit_exact}, {rejected}/3 corruptions rejected")
