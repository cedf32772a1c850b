"""Training-path tests: corpus handling, shift alignment, losses, freezing."""

import dataclasses

import numpy as np
import pytest

from specdec import corpus as C
from specdec import model as M
from specdec import tensor as T
from specdec import training as TR
from specdec import tokenizer as TK
from specdec.errors import ConfigError, ContractError, NumericError, TrainingError


def tiny_setup(seed=0, n_docs=60, vocab=300):
    docs = C.synthesize_documents(n_docs, seed=seed)
    text = "\n".join(d.text for d in docs)
    tok = TK.build_tokenizer(text, vocab)
    cfg = M.ModelConfig(vocab_size=tok.vocab_size, hidden_size=16, intermediate_size=24,
                        n_layers=2, n_heads=2, max_seq_len=128)
    corpus = TR.TokenizedCorpus.build(docs, tok, cfg.max_seq_len, eval_frac=0.2, seed=seed)
    return docs, tok, cfg, corpus


class TestTrainConfig:
    def test_negative_loss_weight_rejected(self):
        with pytest.raises(ConfigError):
            TR.TrainConfig(loss_weight=-0.1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ConfigError):
            TR.TrainConfig(learning_rate=0.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            TR.TrainConfig.from_dict({"learning_rate": 1e-3, "momentum": 0.9})


class TestCorpusBuild:
    def test_splits_nonempty_and_responses_supervisable(self):
        _, _, _, corpus = tiny_setup()
        for tokens, prompt_len in corpus.train_docs + corpus.eval_docs:
            assert len(tokens) > prompt_len + 1
            assert tokens[0] == TK.BOS

    def test_documents_have_nonempty_responses(self):
        for doc in C.synthesize_documents(200, seed=3):
            assert doc.response_text
            assert 1 <= doc.split < len(doc.sentences)

    def test_synthesis_deterministic(self):
        a = C.corpus_text(n_docs=50, seed=9)
        b = C.corpus_text(n_docs=50, seed=9)
        assert a == b

    def test_task_prompts(self):
        for task in C.TASKS:
            prompts = C.task_prompts(task, 5, seed=1)
            assert len(prompts) == 5
            assert all(isinstance(p, str) and p for p in prompts)
        with pytest.raises(ValueError):
            C.task_prompts("bogus", 3)


class TestShiftMask:
    def test_all_prompt_contributes_nothing(self):
        values = np.arange(12, dtype=np.float32).reshape(1, 6, 2)
        mask = np.zeros((1, 6), dtype=bool)
        with pytest.warns(UserWarning):
            _, m = TR.shift_mask(values, mask)
        assert not m.any()

    def test_single_response_token_single_pair(self):
        mask = np.zeros((1, 6), dtype=bool)
        mask[0, 3] = True
        values = np.arange(6, dtype=np.float32).reshape(1, 6)
        shifted, m = TR.shift_mask(values, mask)
        assert m.sum() == 1
        # draft row 2 is supervised by teacher position 3
        assert m[0, 2]
        assert shifted[0, 2] == values[0, 3]

    def test_hand_enumerated_pairs(self):
        # 5 tokens, response region = positions {2, 3, 4}
        mask = np.array([[False, False, True, True, True]])
        values = np.array([[10.0, 11.0, 12.0, 13.0, 14.0]])
        shifted, m = TR.shift_mask(values, mask)
        pairs = [(i, i + 1) for i in range(4) if m[0, i]]
        assert pairs == [(1, 2), (2, 3), (3, 4)]
        np.testing.assert_array_equal(shifted[0, m[0]], [12.0, 13.0, 14.0])


class TestPretraining:
    def test_initial_loss_is_uniform(self):
        _, tok, cfg, corpus = tiny_setup()
        target = M.TargetModel(cfg, seed=0)
        loss = TR.eval_stream_loss(target, corpus.stream, seq_len=32)
        assert loss == pytest.approx(TR.uniform_loss(cfg.vocab_size), abs=0.05)

    def test_loss_decreases(self):
        _, tok, cfg, corpus = tiny_setup()
        tc = TR.TrainConfig(learning_rate=3e-3, steps=30, batch_size=8, seq_len=32)
        target = TR.pretrain_target(corpus, tc, cfg)
        final = TR.eval_stream_loss(target, corpus.stream, seq_len=32)
        assert final < TR.uniform_loss(cfg.vocab_size) * 0.9

    def test_log_written(self, tmp_path):
        _, tok, cfg, corpus = tiny_setup()
        tc = TR.TrainConfig(steps=3, batch_size=4, seq_len=16)
        path = tmp_path / "log.jsonl"
        TR.pretrain_target(corpus, tc, cfg, log_path=path)
        import json
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 3
        assert {"step", "loss", "lr", "wall_ms"} <= set(lines[0])

    def test_curve_non_increasing_under_moving_average(self, tmp_path):
        import json
        _, tok, cfg, corpus = tiny_setup()
        tc = TR.TrainConfig(learning_rate=3e-3, steps=60, batch_size=8, seq_len=32)
        path = tmp_path / "log.jsonl"
        TR.pretrain_target(corpus, tc, cfg, log_path=path)
        losses = [json.loads(l)["loss"] for l in path.read_text().splitlines()]
        smoothed = np.convolve(losses, np.ones(10) / 10, mode="valid")
        assert smoothed[-1] < 0.8 * smoothed[0]
        assert (smoothed <= smoothed[0] * 1.05).all()

    def test_trained_samples_repeat_trigrams_more_than_random(self):
        from specdec import engine as E

        def trigram_repeat_rate(target, tok):
            prompt = tok.encode("the fox", add_bos=True)
            out, _ = E.vanilla_generate(target, prompt, 120, temperature=0.0)
            data = tok.decode_bytes(out)
            if len(data) < 10:
                return 0.0
            trigrams = [data[i: i + 3] for i in range(len(data) - 2)]
            return 1.0 - len(set(trigrams)) / len(trigrams)

        _, tok, cfg, corpus = tiny_setup()
        random_model = M.TargetModel(cfg, seed=42)
        tc = TR.TrainConfig(learning_rate=3e-3, steps=60, batch_size=8, seq_len=32)
        trained = TR.pretrain_target(corpus, tc, cfg)
        assert (trigram_repeat_rate(trained, tok)
                > trigram_repeat_rate(random_model, tok))


class TestTeacherTrace:
    def test_features_reproduce_logits(self):
        _, tok, cfg, corpus = tiny_setup()
        target = M.TargetModel(cfg, seed=1)
        tokens = corpus.train_docs[0][0][None, :20]
        feats, logits = TR.extract_teacher_trace(target, tokens)
        with T.no_grad():
            again = target.logits_from_features(T.Tensor(feats))
        np.testing.assert_allclose(again.data, logits, atol=1e-6)

    def test_deterministic(self):
        _, tok, cfg, corpus = tiny_setup()
        target = M.TargetModel(cfg, seed=2)
        tokens = corpus.train_docs[0][0][None, :16]
        a = TR.extract_teacher_trace(target, tokens)
        b = TR.extract_teacher_trace(target, tokens)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_prefix_consistency(self):
        _, tok, cfg, corpus = tiny_setup()
        target = M.TargetModel(cfg, seed=3)
        tokens = corpus.train_docs[0][0][None, :20]
        feats_full, _ = TR.extract_teacher_trace(target, tokens)
        feats_short, _ = TR.extract_teacher_trace(target, tokens[:, :10])
        np.testing.assert_allclose(feats_short, feats_full[:, :10], atol=1e-5)


class TestDraftTraining:
    def test_loss_weight_zero_reduces_to_feature_loss(self):
        _, tok, cfg, corpus = tiny_setup()
        target = M.TargetModel(cfg, seed=4)
        target.set_trainable(False)
        draft = M.DraftModel(cfg, target, seed=5)
        tokens, valid, response = TR._pad_batch(corpus.train_docs[:4])
        loss, token_loss, feature_loss, _ = TR.draft_batch_losses(
            target, draft, tokens, valid, response, loss_weight=0.0)
        assert loss.item() == pytest.approx(feature_loss.item(), rel=1e-6)

    def test_perfect_draft_limit(self):
        # with outputs set to teacher values, feature loss is 0 and token
        # loss equals the teacher distribution's self cross-entropy
        _, tok, cfg, corpus = tiny_setup()
        target = M.TargetModel(cfg, seed=6)
        tokens, valid, response = TR._pad_batch(corpus.train_docs[:2])
        feats, logits = TR.extract_teacher_trace(target, tokens)
        probs = T.KERNELS.softmax(logits.astype(np.float64)).astype(np.float32)
        probs_s, pair_mask = TR.shift_mask(probs, response & valid)
        pair_mask = pair_mask & valid[:, :-1]
        feats_s = feats[:, 1:]
        ideal_logits = T.Tensor(logits[:, 1:])
        token_loss = T.cross_entropy(ideal_logits, T.Tensor(probs_s), pair_mask)
        feature_loss = T.smooth_l1(T.Tensor(feats_s), T.Tensor(feats_s), pair_mask)
        assert feature_loss.item() == 0.0
        z = logits[:, 1:].astype(np.float64)
        z -= z.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        self_entropy = -(np.exp(logp) * logp).sum(axis=-1)
        expected = self_entropy[pair_mask].mean()
        assert token_loss.item() == pytest.approx(expected, rel=1e-4)

    def test_composite_gradient_matches_finite_differences(self):
        _, tok, cfg, corpus = tiny_setup(n_docs=30)
        target = M.TargetModel(cfg, seed=7)
        target.set_trainable(False)
        draft = M.DraftModel(cfg, target, seed=8)
        for p in draft.parameters():
            p.data = p.data.astype(np.float64)
        tokens, valid, response = TR._pad_batch(corpus.train_docs[:2])
        tokens = tokens[:, :12]
        valid = valid[:, :12]
        response = response[:, :12]

        def forward_loss():
            T.clear_tape()
            loss, *_ = TR.draft_batch_losses(target, draft, tokens, valid, response, 0.1)
            return loss

        loss = forward_loss()
        T.backward(loss)
        probe = draft.connector.up.weight
        analytic = probe.grad.copy()
        flat = probe.data.reshape(-1)
        h = 1e-4
        for i in (0, 7, 23):
            orig = flat[i]
            flat[i] = orig + h
            up = forward_loss().item()
            flat[i] = orig - h
            down = forward_loss().item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            assert analytic.reshape(-1)[i] == pytest.approx(fd, rel=1e-3, abs=1e-7)

    def test_target_bit_frozen_during_draft_training(self):
        _, tok, cfg, corpus = tiny_setup(n_docs=40)
        target = M.TargetModel(cfg, seed=9)
        before = TR.target_param_hash(target)
        tc = TR.TrainConfig(draft_steps=5, batch_size=4, seq_len=32, learning_rate=1e-3)
        TR.train_draft(target, corpus, tc, variant="fspad")
        assert TR.target_param_hash(target) == before

    def test_loss_decomposition_logged(self, tmp_path):
        import json
        _, tok, cfg, corpus = tiny_setup(n_docs=40)
        target = M.TargetModel(cfg, seed=10)
        tc = TR.TrainConfig(draft_steps=4, batch_size=4, seq_len=32)
        path = tmp_path / "draft.jsonl"
        TR.train_draft(target, corpus, tc, variant="fspad", log_path=path)
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            assert abs(rec["L"] - (0.1 * rec["L_t"] + rec["L_f"])) <= 1e-6
            assert {"step", "L", "L_t", "L_f", "top1_acc", "lr", "wall_ms"} <= set(rec)

    def test_all_variants_train(self):
        _, tok, cfg, corpus = tiny_setup(n_docs=40)
        target = M.TargetModel(cfg, seed=11)
        tc = TR.TrainConfig(draft_steps=2, batch_size=4, seq_len=24)
        for variant in M.VARIANTS:
            draft = TR.train_draft(target, corpus, tc, variant=variant)
            assert draft.variant == variant

    # seq_len 8 keeps rows 0..8: the response of GOOD starts inside that
    # window, the one of BAD after it
    GOOD, BAD = (np.arange(2, 16), 3), (np.arange(2, 30), 20)

    @staticmethod
    def _target(seed):
        return M.TargetModel(M.ModelConfig(vocab_size=32, hidden_size=16, intermediate_size=24,
                                           n_layers=2, n_heads=2, max_seq_len=64), seed=seed)

    @pytest.mark.filterwarnings("error")  # no all-masked loss is computed either
    def test_batch_with_nothing_supervised_moves_nothing(self, tmp_path):
        target = self._target(13)
        tc = TR.TrainConfig(draft_steps=4, batch_size=2, seq_len=8, learning_rate=1e-2)
        path = tmp_path / "draft.jsonl"
        draft = TR.train_draft(target, TR.TokenizedCorpus([self.BAD], [self.BAD]), tc,
                               log_path=path)
        fresh = M.DraftModel(target.config, target, seed=tc.seed + 1)
        for name, t in fresh.named_tensors().items():
            np.testing.assert_array_equal(draft.named_tensors()[name].data, t.data)
        assert len(path.read_text().splitlines()) == 4

    def test_unsupervised_batches_leave_the_optimiser_alone(self):
        # interleaved unsupervised batches give the draft that the supervised
        # batches alone give: no moment, step count or parameter moves
        target = self._target(14)
        tc = TR.TrainConfig(draft_steps=8, batch_size=1, seq_len=8, learning_rate=1e-2)
        # the documented stream rule: one draw of batch_size indices per step
        rng = np.random.default_rng(np.random.SeedSequence(entropy=tc.seed, spawn_key=(4,)))
        picks = [int(rng.integers(0, 2, size=1)[0]) for _ in range(tc.draft_steps)]
        assert "01" in "".join(map(str, picks))  # a skipped batch follows a supervised one
        mixed = TR.train_draft(target, TR.TokenizedCorpus([self.GOOD, self.BAD], [self.GOOD]), tc)
        alone = TR.train_draft(target, TR.TokenizedCorpus([self.GOOD], [self.GOOD]),
                               dataclasses.replace(tc, draft_steps=picks.count(0)))
        for name, t in alone.named_tensors().items():
            np.testing.assert_array_equal(mixed.named_tensors()[name].data, t.data)

    def test_unknown_variant_rejected(self):
        _, tok, cfg, corpus = tiny_setup(n_docs=30)
        target = M.TargetModel(cfg, seed=12)
        with pytest.raises(ConfigError):
            TR.train_draft(target, corpus, TR.TrainConfig(draft_steps=1), variant="nope")


class TestDivergence:
    @pytest.mark.parametrize("trainer", ["pretrain", "draft"])
    def test_names_the_step_and_keeps_the_log(self, trainer, tmp_path, monkeypatch):
        # NaN written into a parameter after the third AdamW step makes
        # step 3 (0-based) diverge; the log keeps the three steps before it
        _, tok, cfg, corpus = tiny_setup(n_docs=40)
        tc = TR.TrainConfig(steps=6, draft_steps=6, batch_size=4, seq_len=32)
        step = T.AdamW.step

        def poisoned_step(opt):
            step(opt)
            if opt.t == 3:
                opt.params[0].data[...] = np.nan

        monkeypatch.setattr(T.AdamW, "step", poisoned_step)
        path = tmp_path / "log.jsonl"
        with pytest.raises(TrainingError, match="at step 3") as info:
            if trainer == "pretrain":
                TR.pretrain_target(corpus, tc, cfg, log_path=path)
            else:
                TR.train_draft(M.TargetModel(cfg, seed=20), corpus, tc, log_path=path)
        assert isinstance(info.value.__cause__, NumericError)
        assert len(path.read_text().splitlines()) == 3


class TestEvalAccuracy:
    def test_untrained_draft_near_chance(self):
        _, tok, cfg, corpus = tiny_setup(n_docs=80)
        target = M.TargetModel(cfg, seed=13)
        draft = M.DraftModel(cfg, target, seed=14)
        acc = TR.eval_draft_accuracy(target, draft, corpus.eval_docs, top_k=(1,))
        # untrained agreement is roughly 1/vocab, allow generous binomial slack
        assert acc[1] < 0.15

    def test_teacher_features_as_draft_output_agree_perfectly(self):
        # a draft that emitted the teacher's own shifted features would
        # reproduce the teacher's argmax at every supervised position
        _, tok, cfg, corpus = tiny_setup(n_docs=40)
        target = M.TargetModel(cfg, seed=15)
        tokens, valid, response = TR._pad_batch(corpus.eval_docs)
        feats, logits = TR.extract_teacher_trace(target, tokens)
        pair_mask = (response & valid)[:, 1:] & valid[:, :-1]
        with T.no_grad():
            ideal = target.logits_from_features(T.Tensor(feats[:, 1:]))
        agree = np.argmax(ideal.data, -1) == np.argmax(logits[:, 1:], -1)
        assert agree[pair_mask].all()

    def test_empty_split_rejected(self):
        _, tok, cfg, corpus = tiny_setup(n_docs=30)
        target = M.TargetModel(cfg, seed=16)
        draft = M.DraftModel(cfg, target, seed=17)
        with pytest.raises(ContractError):
            TR.eval_draft_accuracy(target, draft, [], top_k=(1,))

    def test_matches_per_position_recompute(self):
        _, tok, cfg, corpus = tiny_setup(n_docs=40)
        target = M.TargetModel(cfg, seed=18)
        draft = M.DraftModel(cfg, target, seed=19)
        docs = corpus.eval_docs[:4]
        acc = TR.eval_draft_accuracy(target, draft, docs, top_k=(1, 3))

        hits1 = hits3 = total = 0
        with T.no_grad():
            for tokens, prompt_len in docs:
                feats, logits = TR.extract_teacher_trace(target, tokens[None])
                for i in range(len(tokens) - 1):
                    if i + 1 < prompt_len:
                        continue
                    out = draft.forward(feats[:, : i + 1], tokens[None, 1: i + 2])
                    row = out.logits.data[0, -1]
                    want = int(np.argmax(logits[0, i + 1]))
                    order = np.argsort(-row, kind="stable")
                    hits1 += int(order[0] == want)
                    hits3 += int(want in order[:3])
                    total += 1
        assert acc[1] == pytest.approx(hits1 / total, abs=1e-9)
        assert acc[3] == pytest.approx(hits3 / total, abs=1e-9)
