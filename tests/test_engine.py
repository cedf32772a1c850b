"""Verification and generation-loop tests: losslessness, commit integrity,
acceptance ceilings."""

import numpy as np
import pytest

from specdec import engine as E
from specdec import model as M
from specdec import tensor as T
from specdec.errors import CapacityError, ContractError
from specdec.tree import TokenTree, TreeNode


def micro_stack(seed, vocab=32, hidden=16, intermediate=24, layers=2, max_seq=128):
    cfg = M.ModelConfig(vocab_size=vocab, hidden_size=hidden, intermediate_size=intermediate,
                        n_layers=layers, n_heads=2, max_seq_len=max_seq)
    target = M.TargetModel(cfg, seed=seed)
    draft = M.DraftModel(cfg, target, variant="fspad", seed=seed + 1)
    return cfg, target, draft


def two_level_tree(root, children, grandchildren=()):
    """root -> children; optional grandchildren under the first child."""
    nodes = [TreeNode(root, None, 0, 1.0, 1.0)]
    for tok, q in children:
        nodes.append(TreeNode(tok, 0, 1, q, q))
    for tok, q in grandchildren:
        nodes.append(TreeNode(tok, 1, 2, q, children[0][1] * q))
    return TokenTree(nodes, budget=len(nodes) - 1, expand_k=8, select_m=8, max_depth=2)


class TestVerifyGreedy:
    def test_matching_child_accepted(self):
        tree = two_level_tree(1, [(4, 0.9), (5, 0.1)])
        logits = np.zeros((3, 8), dtype=np.float32)
        logits[0, 4] = 5.0   # root context: argmax 4 -> child accepted
        logits[1, 7] = 5.0   # at child 4: argmax 7, no grandchild -> bonus
        res = E.verify_greedy(tree, logits)
        assert res.accepted_tokens == [4]
        assert res.bonus_token == 7
        assert res.target_forward_passes == 1

    def test_no_match_emits_bonus_only(self):
        tree = two_level_tree(1, [(4, 0.9), (5, 0.1)])
        logits = np.zeros((3, 8), dtype=np.float32)
        logits[0, 6] = 5.0
        res = E.verify_greedy(tree, logits)
        assert res.accepted_tokens == []
        assert res.bonus_token == 6

    def test_argmax_tie_breaks_to_smallest_id(self):
        tree = two_level_tree(1, [(2, 0.5), (3, 0.5)])
        logits = np.zeros((3, 8), dtype=np.float32)  # all tied -> token 0
        res = E.verify_greedy(tree, logits)
        assert res.accepted_tokens == []
        assert res.bonus_token == 0


class TestVerifyStochastic:
    def test_certain_agreement_always_accepted(self):
        tree = two_level_tree(1, [(4, 1.0)])
        probs = np.zeros((2, 8))
        probs[0, 4] = 1.0
        probs[1, 2] = 1.0
        rng = np.random.default_rng(0)
        for _ in range(50):
            res = E.verify_stochastic(tree, probs, rng)
            assert res.accepted_tokens == [4]
            assert res.bonus_token == 2

    def test_zero_mass_child_always_rejected_residual_restricted(self):
        tree = two_level_tree(1, [(4, 0.7)])
        probs = np.full((2, 8), 1 / 8)
        probs[0] = np.array([0.3, 0.3, 0.2, 0.2, 0.0, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(1)
        counts = np.zeros(8)
        trials = 40000
        for _ in range(trials):
            res = E.verify_stochastic(tree, probs, rng)
            assert res.accepted_tokens == []
            counts[res.bonus_token] += 1
        np.testing.assert_allclose(counts / trials, probs[0], atol=0.01)

    def test_zero_draft_prob_is_contract_error(self):
        tree = two_level_tree(1, [(4, 0.0)])
        probs = np.full((2, 8), 1 / 8)
        with pytest.raises(ContractError):
            E.verify_stochastic(tree, probs, np.random.default_rng(2))

    def test_first_emitted_marginal_matches_target(self):
        # two children plus a grandchild; the first emitted token must be
        # distributed exactly as the root-context target distribution
        tree = two_level_tree(1, [(2, 0.55), (5, 0.30)], grandchildren=[(1, 0.9)])
        rng_p = np.random.default_rng(3)
        p0 = rng_p.dirichlet(np.ones(8))
        probs = np.vstack([p0] + [rng_p.dirichlet(np.ones(8)) for _ in range(3)])
        rng = np.random.default_rng(4)
        counts = np.zeros(8)
        trials = 200_000
        for _ in range(trials):
            res = E.verify_stochastic(tree, probs, rng)
            first = res.accepted_tokens[0] if res.accepted_tokens else res.bonus_token
            counts[first] += 1
        tv = 0.5 * np.abs(counts / trials - p0).sum()
        assert tv <= 0.01

    def test_order_invariance_of_emitted_law(self):
        # trying children in either order leaves the first-token law unchanged
        p0 = np.array([0.5, 0.2, 0.3, 0.0])
        probs = np.vstack([p0, np.full(4, 0.25), np.full(4, 0.25)])
        fwd = two_level_tree(9, [(0, 0.6), (2, 0.4)])
        rev = two_level_tree(9, [(0, 0.4), (2, 0.6)])  # flipped trial order
        results = {}
        for name, tree in (("fwd", fwd), ("rev", rev)):
            rng = np.random.default_rng(5)
            counts = np.zeros(4)
            for _ in range(60000):
                res = E.verify_stochastic(tree, probs, rng)
                first = res.accepted_tokens[0] if res.accepted_tokens else res.bonus_token
                counts[first] += 1
            results[name] = counts / 60000
        np.testing.assert_allclose(results["fwd"], p0, atol=0.01)
        np.testing.assert_allclose(results["rev"], p0, atol=0.01)


class TestGenerateGreedyLossless:
    def test_matches_vanilla_over_seeded_prompts(self):
        cfg, target, draft = micro_stack(7)
        drafter = E.ModelDrafter(draft, depth=3, expand_k=3, select_m=3, budget=8)
        engine = E.SpeculativeEngine(target, drafter)
        rng = np.random.default_rng(11)
        for _ in range(8):
            prompt = rng.integers(0, cfg.vocab_size, size=int(rng.integers(2, 9))).tolist()
            want, _ = E.vanilla_generate(target, prompt, 24, temperature=0.0)
            got, stats = engine.generate(prompt, 24, temperature=0.0)
            assert got == want
            assert stats.emitted == len(got)

    def test_tau_is_emitted_over_passes(self):
        cfg, target, draft = micro_stack(8)
        drafter = E.ModelDrafter(draft, depth=3, expand_k=3, select_m=3, budget=8)
        engine = E.SpeculativeEngine(target, drafter)
        _, stats = engine.generate([1, 2, 3], 16, temperature=0.0)
        assert stats.tau() == pytest.approx(stats.emitted / stats.target_passes)
        assert stats.tau() >= 1.0

    def test_single_step(self):
        cfg, target, draft = micro_stack(9)
        drafter = E.ModelDrafter(draft, depth=3, expand_k=3, select_m=3, budget=8)
        engine = E.SpeculativeEngine(target, drafter)
        out, stats = engine.generate([4, 5], 1, temperature=0.0)
        assert stats.target_passes == 1
        assert len(out) == 1


class TestGenerateStochastic:
    def test_matches_vanilla_marginal_at_first_position(self):
        cfg, target, draft = micro_stack(10, vocab=8, hidden=8, intermediate=12, layers=1)
        drafter = E.ModelDrafter(draft, depth=2, expand_k=2, select_m=2, budget=3)
        engine = E.SpeculativeEngine(target, drafter)
        prompt = [1, 2, 3]

        with T.no_grad():
            logits, _ = target.forward(np.array(prompt))
        p0 = E._temperature_probs(logits.data[-1][None], 1.0)[0]

        counts = np.zeros(8)
        trials = 6000
        for i in range(trials):
            out, _ = engine.generate(prompt, 1, temperature=1.0, seed=i)
            counts[out[0]] += 1
        tv = 0.5 * np.abs(counts / trials - p0).sum()
        assert tv <= 0.03

    def test_temperature_validation(self):
        cfg, target, draft = micro_stack(11)
        engine = E.SpeculativeEngine(target, E.ModelDrafter(draft, depth=2, expand_k=2,
                                                            select_m=2, budget=4))
        with pytest.raises(ContractError):
            engine.generate([1, 2], 4, temperature=3.0)
        with pytest.raises(ContractError):
            engine.generate([1, 2], 4, temperature=-0.5)


class TestCommit:
    def test_cache_length_tracks_committed(self):
        cfg, target, draft = micro_stack(12)
        drafter = E.ModelDrafter(draft, depth=3, expand_k=3, select_m=3, budget=8)
        engine = E.SpeculativeEngine(target, drafter)
        prompt = [3, 1, 4, 1, 5]
        out, stats = engine.generate(prompt, 12, temperature=0.0)
        # after the loop the target has processed everything except the newest token
        assert len(out) >= 12

    def test_recompute_from_scratch_matches_cached_path(self):
        # after several commits, logits at the rolling last position must
        # equal a fresh full forward over the committed prefix
        cfg, target, draft = micro_stack(13)
        drafter = E.ModelDrafter(draft, depth=3, expand_k=3, select_m=3, budget=6)
        prompt = [2, 7, 1]
        committed = list(prompt)
        with T.no_grad():
            cache = target.new_cache()
            _, feats = target.forward(np.array(committed[:-1]), cache=cache)
            features = [feats.data[i] for i in range(len(committed) - 1)]
            drafter.reset()
            from specdec.model import allowed_to_bias
            from specdec.tree import flatten, tree_attention_mask
            for _ in range(4):
                tree = drafter.propose(committed, features)
                prefix = len(cache)
                tokens, positions, _ = flatten(tree, prefix)
                bias = allowed_to_bias(tree_attention_mask(tree, prefix))
                logits, node_feats = target.forward(tokens, positions=positions,
                                                    attn_bias=bias, cache=cache)
                res = E.verify_greedy(tree, logits.data)
                keep = np.concatenate([np.arange(prefix),
                                       prefix + np.array([0] + res.accepted_path, dtype=int)])
                cache.keep(keep)
                for idx in [0] + res.accepted_path:
                    features.append(node_feats.data[idx])
                committed.extend(res.accepted_tokens + [res.bonus_token])

                _, fresh_feats = target.forward(np.array(committed[:-1]))
                cached_last = features[-1]
                with T.no_grad():
                    want_logits = target.logits_from_features(
                        T.Tensor(fresh_feats.data[-1][None]))
                    got_logits = target.logits_from_features(T.Tensor(cached_last[None]))
                # features at the last committed-and-processed position agree
                np.testing.assert_allclose(got_logits.data, want_logits.data, atol=1e-4)
                assert len(cache) == len(committed) - 1

    def test_bonus_only_commits_still_lossless(self):
        cfg, target, _ = micro_stack(14)

        def disagree(committed, chain):
            want, _ = E.vanilla_generate(target, list(committed) + chain, 1, temperature=0.0)
            return (want[0] + 1) % cfg.vocab_size

        engine = E.SpeculativeEngine(target, E.ChainDrafter(disagree, depth=3))
        prompt = [3, 4, 5]
        out, stats = engine.generate(prompt, 6, temperature=0.0)
        assert stats.accepted_lengths == [0] * stats.target_passes
        want, _ = E.vanilla_generate(target, prompt, 6, temperature=0.0)
        assert out == want


class TestCeilings:
    def test_perfect_draft_tau_is_depth_plus_one(self):
        cfg, target, _ = micro_stack(15)
        oracle = E.OracleChainDrafter(target, depth=5)
        engine = E.SpeculativeEngine(target, oracle)
        out, stats = engine.generate([1, 2, 3], 30, temperature=0.0)
        assert stats.tau() == pytest.approx(6.0)
        want, _ = E.vanilla_generate(target, [1, 2, 3], 30, temperature=0.0)
        assert out == want

    def test_always_wrong_draft_tau_is_one(self):
        cfg, target, _ = micro_stack(16)

        def disagree(committed, chain):
            want, _ = E.vanilla_generate(target, list(committed) + chain, 1, temperature=0.0)
            return (want[0] + 1) % cfg.vocab_size

        wrong = E.ChainDrafter(disagree, depth=5)
        engine = E.SpeculativeEngine(target, wrong)
        out, stats = engine.generate([1, 2, 3], 10, temperature=0.0)
        assert stats.tau() == pytest.approx(1.0)
        assert stats.emitted == 10
        assert stats.accepted_lengths == [0] * 10


class TestProgressAndCapacity:
    def test_every_step_emits_at_least_one(self):
        cfg, target, draft = micro_stack(17)
        drafter = E.ModelDrafter(draft, depth=2, expand_k=2, select_m=2, budget=4)
        engine = E.SpeculativeEngine(target, drafter)
        _, stats = engine.generate([9, 8], 15, temperature=0.0)
        assert all(a >= 0 for a in stats.accepted_lengths)
        assert stats.emitted >= 15

    def test_prompt_overflow_raises_capacity(self):
        cfg, target, draft = micro_stack(18, max_seq=16)
        drafter = E.ModelDrafter(draft, depth=3, expand_k=3, select_m=3, budget=10)
        engine = E.SpeculativeEngine(target, drafter)
        # a prompt that leaves no room for a whole tree still decodes like vanilla
        prompt = list(range(1, 15))
        out, _ = engine.generate(prompt, 8, temperature=0.0)
        want, _ = E.vanilla_generate(target, prompt, 8, temperature=0.0)
        assert out == want
        # a prompt that fills the context is refused by both
        with pytest.raises(CapacityError):
            E.vanilla_generate(target, list(range(1, 17)), 8, temperature=0.0)
        with pytest.raises(CapacityError):
            engine.generate(list(range(1, 17)), 8, temperature=0.0)

    def test_context_filling_truncates_gracefully(self):
        cfg, target, draft = micro_stack(19, max_seq=32)
        drafter = E.ModelDrafter(draft, depth=2, expand_k=2, select_m=2, budget=4)
        engine = E.SpeculativeEngine(target, drafter)
        out, stats = engine.generate([1, 2, 3], 200, temperature=0.0)
        assert stats.truncated
        assert len(out) < 200
        want, _ = E.vanilla_generate(target, [1, 2, 3], 200, temperature=0.0)
        assert out == want

    def test_eos_stops_generation(self):
        cfg, target, draft = micro_stack(20)
        want, _ = E.vanilla_generate(target, [1, 2], 20, temperature=0.0)
        eos = want[5]  # force a mid-sequence stop
        drafter = E.ModelDrafter(draft, depth=3, expand_k=3, select_m=3, budget=8)
        engine = E.SpeculativeEngine(target, drafter)
        got, stats = engine.generate([1, 2], 20, temperature=0.0, eos_id=eos)
        want_eos, _ = E.vanilla_generate(target, [1, 2], 20, temperature=0.0, eos_id=eos)
        assert got == want_eos
        assert got[-1] == eos
        assert stats.emitted == len(got)


class TestContextEdge:
    """Against vanilla at every prompt length up to a full context."""

    PRESETS = (dict(depth=1, expand_k=1, select_m=1, budget=1),
               dict(depth=3, expand_k=3, select_m=2, budget=6),
               dict(depth=5, expand_k=2, select_m=2, budget=12))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_vanilla_at_every_prompt_length(self, seed):
        rng = np.random.default_rng(300 + seed)
        max_seq = int(rng.integers(10, 20))
        cfg, target, draft = micro_stack(300 + seed, vocab=int(rng.integers(12, 40)),
                                         layers=int(rng.integers(1, 3)), max_seq=max_seq)
        for preset in self.PRESETS:
            engine = E.SpeculativeEngine(target, E.ModelDrafter(draft, **preset))
            for length in range(2, max_seq + 1):
                prompt = rng.integers(0, cfg.vocab_size, size=length).tolist()
                if length == max_seq:
                    with pytest.raises(CapacityError):
                        E.vanilla_generate(target, prompt, 4)
                    with pytest.raises(CapacityError):
                        engine.generate(prompt, 4)
                    continue
                for max_new in (3, 2 * max_seq):
                    room = min(max_new, max_seq - length)
                    greedy, _ = E.vanilla_generate(target, prompt, max_new)
                    for eos in (None, greedy[len(greedy) // 2]):
                        want, want_stats = E.vanilla_generate(target, prompt, max_new, eos_id=eos)
                        got, stats = engine.generate(prompt, max_new, eos_id=eos)
                        assert got == want
                        assert (stats.emitted, stats.truncated) == (len(got), want_stats.truncated)

                        kw = dict(temperature=0.8, seed=length, eos_id=eos)
                        want, _ = E.vanilla_generate(target, prompt, max_new, **kw)
                        got, _ = engine.generate(prompt, max_new, **kw)
                        if eos is None:
                            assert len(got) == len(want) == room
                        else:
                            assert len(got) == room or (len(got) < room and got[-1] == eos)


class TestStepRng:
    def test_streams_are_stable_and_distinct(self):
        a1 = E.step_rng(123, 0).random(4)
        a2 = E.step_rng(123, 0).random(4)
        b = E.step_rng(123, 1).random(4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)
