"""Token-tree construction, child order and masks against oracles."""

import json
import os

import numpy as np
import pytest

import oracles
from specdec import model as M
from specdec import tensor as T
from specdec import tree as TR
from specdec.errors import ContractError, NumericError


def micro_draft(seed, vocab=16, hidden=8, intermediate=12):
    cfg = M.ModelConfig(vocab_size=vocab, hidden_size=hidden, intermediate_size=intermediate,
                        n_layers=1, n_heads=2, max_seq_len=64)
    target = M.TargetModel(cfg, seed=seed)
    draft = M.DraftModel(cfg, target, variant="fspad", seed=seed + 1)
    return cfg, target, draft


class OneHotStubDraft:
    """Drop-in draft whose distribution is exactly one-hot every step."""

    def __init__(self, vocab, tok):
        self.vocab = vocab
        self.tok = tok

    def new_cache(self):
        return M.KvCache(1)

    def forward(self, feats, tokens, positions=None, mask=None, cache=None):
        n = feats.shape[1]
        if cache is not None:
            cache.append(0, np.zeros((1, n, 1), np.float32), np.zeros((1, n, 1), np.float32))
        logits = np.full((1, n, self.vocab), -100.0, dtype=np.float32)
        logits[..., self.tok] = 100.0
        return M.DraftStepOutput(T.Tensor(feats), T.Tensor(feats), T.Tensor(logits))


def build(draft, feat, token, **kw):
    with T.no_grad():
        tree, _ = TR.build_draft_tree(draft, feat, token, **kw)
    return tree


GOLDEN = os.path.join(os.path.dirname(__file__), "golden_trees.json")
GOLDEN_PRESETS = {"default": dict(depth=5, expand_k=8, select_m=8, budget=60),
                  "chain": dict(depth=4, expand_k=1, select_m=1, budget=4),
                  "wide": dict(depth=2, expand_k=20, select_m=3, budget=30)}


def golden_drafts():
    """A micro draft with a sharpened head (deep trees), one whose head
    repeats three columns (exact logit ties, straddling every cut), and the
    same ties scaled until most draft probabilities underflow to zero."""
    cfg, target, draft = micro_draft(30, vocab=32, hidden=16, intermediate=24)
    target.head.weight.data *= 60.0
    yield "sharp", cfg, draft
    for name, vocab, scale in (("tied", 16, 1.0), ("tied_zeros", 24, 4000.0)):
        cfg, target, draft = micro_draft(31, vocab=vocab)
        w = target.head.weight.data
        w[:] = w[:, np.arange(vocab) % 3] * scale
        yield name, cfg, draft


def golden_trees(**extra):
    """``TokenTree.to_json`` of every golden case, keyed draft/preset/root."""
    out = {}
    for name, cfg, draft in golden_drafts():
        rng = np.random.default_rng(len(name))
        for preset, kw in GOLDEN_PRESETS.items():
            for r in range(2):
                feat = rng.normal(size=cfg.hidden_size).astype(np.float32)
                token = int(rng.integers(cfg.vocab_size))
                out[f"{name}/{preset}/{r}"] = build(draft, feat, token, **kw, **extra).to_json()
    return out


class TestBuildDraftTree:
    def test_single_level_is_top_k(self):
        cfg, _, draft = micro_draft(0)
        rng = np.random.default_rng(0)
        feat = rng.normal(size=cfg.hidden_size).astype(np.float32)
        tree = build(draft, feat, 3, depth=1, expand_k=3, select_m=3, budget=3)
        assert len(tree) == 4
        dists = oracles.linear_draft_probs(draft, feat, [3])
        expected = set(np.argsort(-dists[0], kind="stable")[:3].tolist())
        assert set(tree.tokens[1:].tolist()) == expected
        np.testing.assert_allclose(tree.joint_probs, tree.cond_probs)

    def test_deterministic_draft_yields_chain(self):
        draft = OneHotStubDraft(vocab=16, tok=5)
        feat = np.zeros(8, dtype=np.float32)
        tree = build(draft, feat, 2, depth=4, expand_k=2, select_m=2, budget=4)
        assert len(tree) == 5
        assert tree.depths.tolist() == [0, 1, 2, 3, 4]
        assert (tree.tokens[1:] == 5).all()
        assert (tree.joint_probs[1:] == 1.0).all()

    def test_matches_exhaustive_subset_oracle(self):
        mismatches = []
        for seed in range(25):
            cfg, _, draft = micro_draft(seed + 10)
            rng = np.random.default_rng(seed)
            feat = rng.normal(size=cfg.hidden_size).astype(np.float32)
            root_token = int(rng.integers(0, cfg.vocab_size))
            tree = build(draft, feat, root_token,
                         depth=2, expand_k=2, select_m=2, budget=4)
            pool = oracles.enumerate_beam_pool(draft, feat, root_token,
                                               depth=2, expand_k=2, select_m=2)
            best = oracles.best_closed_subset(pool, budget=4)
            if oracles.tree_signature(tree) != oracles.node_signature(pool, best):
                mismatches.append(seed)
        assert not mismatches

    def test_budget_and_closure(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            cfg, _, draft = micro_draft(seed + 50)
            feat = rng.normal(size=cfg.hidden_size).astype(np.float32)
            budget = int(rng.integers(1, 9))
            tree = build(draft, feat, 1, depth=3, expand_k=3, select_m=2, budget=budget)
            assert len(tree) - 1 <= budget
            for i in range(1, len(tree)):
                parent_joint = tree.joint_probs[tree.parents[i]]
                assert tree.joint_probs[i] <= parent_joint + 1e-12
                assert tree.joint_probs[i] == pytest.approx(parent_joint * tree.cond_probs[i])

    def test_determinism_bitwise(self):
        cfg, _, draft = micro_draft(3)
        feat = np.random.default_rng(3).normal(size=cfg.hidden_size).astype(np.float32)
        a = build(draft, feat, 4, depth=3, expand_k=3, select_m=3, budget=8)
        b = build(draft, feat, 4, depth=3, expand_k=3, select_m=3, budget=8)
        assert a.to_json() == b.to_json()

    def test_nan_logits_rejected(self):
        cfg, target, draft = micro_draft(5)
        target.head.weight.data[0, 0] = np.nan
        feat = np.zeros(cfg.hidden_size, dtype=np.float32)
        with pytest.raises(NumericError):
            build(draft, feat, 0, depth=1, expand_k=2, select_m=2, budget=2)

    def test_bad_budget_rejected(self):
        cfg, _, draft = micro_draft(6)
        feat = np.zeros(cfg.hidden_size, dtype=np.float32)
        with pytest.raises(ContractError):
            build(draft, feat, 0, depth=1, expand_k=2, select_m=2, budget=0)


class TestGoldenTrees:
    def test_builder_matches_recorded_trees(self):
        # recorded from the earlier, per-node builder: the array pool must reproduce it
        with open(GOLDEN, encoding="utf-8") as f:
            want = json.load(f)
        got = golden_trees()
        assert sorted(got) == sorted(want)
        for key in want:
            assert got[key] == want[key], key


class RowRecorder:
    """A draft that records how many rows each forward pass takes."""

    def __init__(self, draft):
        self.draft = draft
        self.rows = []

    def new_cache(self):
        return self.draft.new_cache()

    def forward(self, feats, tokens, **kw):
        self.rows.append(np.shape(tokens)[1])
        return self.draft.forward(feats, tokens, **kw)


class TestCostAwareCut:
    """Trees sized by a latency table: the verified tree is the subset of
    the expanded pool with the most expected tokens per millisecond."""

    @staticmethod
    def random_table(rng):
        verify = np.cumsum(rng.uniform(0.05, 2.0, size=3))   # monotone in rows
        drafted = np.cumsum(rng.uniform(0.0, 2.0, size=3))
        return TR.LatencyTable([1, 8, 64], verify, drafted)

    def test_matches_rate_maximising_subset_oracle(self):
        mismatches, cut, stopped = [], 0, 0
        for seed in range(100):
            rng = np.random.default_rng(700 + seed)
            cfg, target, draft = micro_draft(800 + seed, vocab=int(rng.integers(6, 17)))
            target.head.weight.data *= rng.uniform(1.0, 80.0)   # from flat to peaked drafts
            depth, k, m = (int(x) for x in rng.integers(1, 4, size=3))
            budget = int(rng.integers(1, 7))
            table = self.random_table(rng)
            feat = rng.normal(size=cfg.hidden_size).astype(np.float32)
            root_token = int(rng.integers(0, cfg.vocab_size))
            recorder = RowRecorder(draft)
            tree = build(recorder, feat, root_token, depth=depth, expand_k=k, select_m=m,
                         budget=budget, latency=table)
            with T.no_grad():
                pool, best, widths = oracles.cost_aware_pool(draft, feat, root_token, depth, k,
                                                             m, budget, table)
            if (recorder.rows != [1] + widths
                    or oracles.tree_signature(tree) != oracles.node_signature(pool, best)):
                mismatches.append(seed)
            cut += len(tree) - 1 < min(budget, len(pool))
            stopped += len(recorder.rows) < depth
        assert not mismatches
        assert cut and stopped   # the table did shrink some trees and stop some drafts

    def test_ties_go_to_the_larger_tree(self):
        # certain draft tokens and a verify cost of one per row: every cut and
        # every expansion yields exactly the same rate, one token per ms
        linear = TR.LatencyTable([1, 64], [1.0, 64.0], [0.0, 0.0])
        tree = build(OneHotStubDraft(vocab=16, tok=5), np.zeros(8, dtype=np.float32), 2,
                     depth=4, expand_k=2, select_m=2, budget=3, latency=linear)
        assert tree.depths.tolist() == [0, 1, 2, 3]

    def test_constant_verify_table_reproduces_recorded_trees(self):
        # a constant verify cost and free draft passes: today's fixed-budget trees
        constant = TR.LatencyTable([1, 8, 64], [2.5, 2.5, 2.5], [0.0, 0.0, 0.0])
        with open(GOLDEN, encoding="utf-8") as f:
            want = json.load(f)
        assert golden_trees(latency=constant) == want

    def test_table_interpolates(self):
        table = TR.LatencyTable([1, 8, 64], [1.0, 2.4, 13.6], [0.5, 0.5, 1.9])
        rows = np.arange(1, 65)
        assert len(table.verify_ms) == len(table.draft_ms) == 65
        np.testing.assert_allclose(table.verify_ms[rows], 0.8 + 0.2 * rows)
        np.testing.assert_allclose(table.draft_ms[8:], 0.5 + 0.025 * (np.arange(8, 65) - 8))
        assert table.to_dict() == {"rows": [1, 8, 64], "verify_ms": [1.0, 2.4, 13.6],
                                   "draft_ms": [0.5, 0.5, 1.9]}


class TestTopK:
    @staticmethod
    def check(probs, k):
        got, values = TR._top_k(probs, k)
        want = np.argsort(-probs, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(values, np.take_along_axis(probs, want, axis=1))

    def test_random_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            m, v = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            probs = rng.dirichlet(np.ones(v), size=m).astype(np.float32)
            self.check(probs, int(rng.integers(1, v + 3)))

    def test_forced_ties_and_zeros(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            m, v = int(rng.integers(1, 9)), int(rng.integers(2, 40))
            levels = rng.choice([0.0, 0.05, 0.1, 0.25], size=int(rng.integers(1, 4)))
            probs = rng.choice(levels, size=(m, v)).astype(np.float32)
            self.check(probs, int(rng.integers(1, v + 3)))

    def test_k_at_and_past_vocab(self):
        probs = np.array([[0.2, 0.0, 0.5, 0.2, 0.1]], dtype=np.float32)
        for k in (4, 5, 6, 50):
            self.check(probs, k)


class TestSyncRows:
    def test_sync_rows_share_the_root_pass(self):
        cfg, _, draft = micro_draft(14)
        rng = np.random.default_rng(14)
        feats = rng.normal(size=(5, cfg.hidden_size)).astype(np.float32)
        toks = rng.integers(0, cfg.vocab_size, size=6)
        kw = dict(depth=3, expand_k=3, select_m=2, budget=8)
        with T.no_grad():
            apart = draft.new_cache()
            draft.forward(feats[None, :4], [toks[1:5]], cache=apart)
            want, want_passes = TR.build_draft_tree(draft, feats[4], int(toks[5]), cache=apart, **kw)
            folded = draft.new_cache()
            got, passes = TR.build_draft_tree(draft, feats[4], int(toks[5]), cache=folded,
                                              sync=(feats[:4], toks[1:5]), **kw)
        assert passes == want_passes == 3
        np.testing.assert_array_equal(got.tokens, want.tokens)
        np.testing.assert_array_equal(got.parents, want.parents)
        np.testing.assert_allclose(got.joint_probs, want.joint_probs, rtol=1e-4)
        assert len(folded) == len(apart)
        np.testing.assert_allclose(folded.keys[0], apart.keys[0], atol=1e-5)


def random_tree(rng, n_nodes, vocab=32):
    tokens, parents, depths = [int(rng.integers(vocab))], [-1], [0]
    cond, joint = [1.0], [1.0]
    for _ in range(n_nodes - 1):
        parent = int(rng.integers(0, len(tokens)))
        c = float(rng.uniform(0.05, 1.0))
        tokens.append(int(rng.integers(vocab)))
        parents.append(parent)
        depths.append(depths[parent] + 1)
        cond.append(c)
        joint.append(joint[parent] * c)
    order = sorted(range(len(tokens)), key=lambda i: (depths[i], i))
    remap = {old: new for new, old in enumerate(order)}
    remap[-1] = -1
    return TR.TokenTree([tokens[i] for i in order], [remap[parents[i]] for i in order],
                        [depths[i] for i in order], [cond[i] for i in order],
                        [joint[i] for i in order])


class TestAttentionMask:
    def test_chain_is_lower_triangular(self):
        tree = TR.chain_tree([1, 2, 3])
        mask = TR.tree_attention_mask(tree, prefix_len=0)
        np.testing.assert_array_equal(mask, np.tril(np.ones((3, 3), dtype=bool)))

    def test_siblings_invisible(self):
        tree = TR.TokenTree([1, 2, 3], [-1, 0, 0], [0, 1, 1])
        mask = TR.tree_attention_mask(tree, prefix_len=2)
        assert mask.shape == (3, 5)             # tree rows only, over prefix + tree keys
        for row in (1, 2):
            assert mask[row, :2].all()          # full prefix
            assert mask[row, 2]                 # root
            assert mask[row, 2 + row]           # self
        assert not mask[1, 4] and not mask[2, 3]

    def test_matches_parent_walk_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            prefix = int(rng.integers(0, 5))
            tree = random_tree(rng, n)
            got = TR.tree_attention_mask(tree, prefix)
            want = oracles.mask_by_parent_walk(tree, prefix)[prefix:]
            np.testing.assert_array_equal(got, want)

    def test_non_topological_order_rejected(self):
        with pytest.raises(ContractError):
            TR.TokenTree([1, 2, 3], [-1, 2, 0], [0, 1, 1])


class TestChildOrder:
    def test_builder_creates_children_by_cond_then_token(self):
        # verification tries a node's children in index order: the builder
        # creates them in descending draft probability, then ascending token id
        for name, cfg, draft in golden_drafts():
            rng = np.random.default_rng(len(name))
            for kw in GOLDEN_PRESETS.values():
                for _ in range(2):
                    feat = rng.normal(size=cfg.hidden_size).astype(np.float32)
                    tree = build(draft, feat, int(rng.integers(cfg.vocab_size)), **kw)
                    for node in range(len(tree)):
                        kids = np.flatnonzero(tree.parents == node)
                        order = np.lexsort((tree.tokens[kids], -tree.cond_probs[kids]))
                        np.testing.assert_array_equal(order, np.arange(len(kids)))


class TestFlatten:
    """The rows the target scores: ``tree.tokens`` at positions
    ``prefix + tree.depths``, in parents-first order."""

    def test_chain_positions(self):
        tree = TR.chain_tree([7, 8, 9])
        np.testing.assert_array_equal(tree.tokens, [7, 8, 9])
        np.testing.assert_array_equal(10 + tree.depths, [10, 11, 12])
        np.testing.assert_array_equal(tree.parents, [-1, 0, 1])

    def test_sibling_positions_equal(self):
        tree = TR.TokenTree([1, 5, 6], [-1, 0, 0], [0, 1, 1])
        np.testing.assert_array_equal(4 + tree.depths, [4, 5, 5])
        with pytest.raises(ContractError):
            TR.TokenTree([1, 5, 6], [-1, 0, 0], [0, 1, 2])

    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            tree = random_tree(rng, 12)
            rebuilt_depth = np.zeros(len(tree), dtype=int)
            for i in range(1, len(tree)):
                rebuilt_depth[i] = rebuilt_depth[tree.parents[i]] + 1
            np.testing.assert_array_equal(rebuilt_depth, tree.depths)


class TestJsonDump:
    def test_inconsistent_depth_rejected(self):
        with pytest.raises(ContractError):
            TR.TokenTree([1, 2, 3], [-1, 0, 1], [0, 1, 5])

    def test_golden_document(self):
        # pins the debug-dump schema; the one-hot stub makes probs exact
        draft = OneHotStubDraft(vocab=8, tok=3)
        tree = build(draft, np.zeros(4, dtype=np.float32), 1,
                     depth=2, expand_k=1, select_m=1, budget=2)
        expected = ('{"nodes": ['
                    '{"cond_prob": 1.0, "depth": 0, "joint_prob": 1.0, "parent": null, "token": 1}, '
                    '{"cond_prob": 1.0, "depth": 1, "joint_prob": 1.0, "parent": 0, "token": 3}, '
                    '{"cond_prob": 1.0, "depth": 2, "joint_prob": 1.0, "parent": 1, "token": 3}]}')
        assert tree.to_json() == expected
