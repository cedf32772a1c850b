"""Token-tree construction, masks, and flattening against oracles."""

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

    def __init__(self, vocab, hidden, tok):
        self.vocab = vocab
        self.tok = tok
        self.embed = T.Tensor(np.zeros((vocab, hidden), dtype=np.float32))

    def new_cache(self):
        return M.KvCache(1)

    def fuse(self, feats, embeds):
        return feats

    def forward(self, fused, positions=None, attn_bias=None, cache=None):
        n = fused.data.shape[-2]
        if cache is not None:
            cache.append(0, np.zeros((1, n, 1), np.float32), np.zeros((1, n, 1), np.float32))
        logits = np.full((1, n, self.vocab), -100.0, dtype=np.float32)
        logits[..., self.tok] = 100.0
        feats3 = fused.data if fused.data.ndim == 3 else fused.data[None]
        return M.DraftStepOutput(T.Tensor(feats3), T.Tensor(feats3), T.Tensor(logits))


def build(draft, feat, token, **kw):
    with T.no_grad():
        tree, _ = TR.build_draft_tree(draft, feat, token, **kw)
    return tree


class TestBuildDraftTree:
    def test_single_level_is_top_k(self):
        cfg, _, draft = micro_draft(0)
        rng = np.random.default_rng(0)
        feat = rng.normal(size=cfg.hidden_size).astype(np.float32)
        tree = build(draft, feat, 3, depth=1, expand_k=3, select_m=3, budget=3)
        assert len(tree) == 4
        dists = oracles.linear_draft_probs(draft, feat, [3])
        expected = set(np.argsort(-dists[0], kind="stable")[:3].tolist())
        assert {n.token for n in tree.nodes[1:]} == expected
        for n in tree.nodes[1:]:
            assert n.joint_prob == pytest.approx(n.cond_prob)

    def test_deterministic_draft_yields_chain(self):
        draft = OneHotStubDraft(vocab=16, hidden=8, tok=5)
        feat = np.zeros(8, dtype=np.float32)
        tree = build(draft, feat, 2, depth=4, expand_k=2, select_m=2, budget=4)
        assert len(tree) == 5
        depths = [n.depth for n in tree.nodes]
        assert depths == [0, 1, 2, 3, 4]
        for n in tree.nodes[1:]:
            assert n.token == 5
            assert n.joint_prob == 1.0

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
            assert tree.num_candidates <= budget
            for i, n in enumerate(tree.nodes[1:], start=1):
                parent = tree.nodes[n.parent]
                assert n.joint_prob <= parent.joint_prob + 1e-12
                assert n.joint_prob == pytest.approx(parent.joint_prob * n.cond_prob)

    def test_determinism_bitwise(self):
        cfg, _, draft = micro_draft(3)
        feat = np.random.default_rng(3).normal(size=cfg.hidden_size).astype(np.float32)
        a = build(draft, feat, 4, depth=3, expand_k=3, select_m=3, budget=8)
        b = build(draft, feat, 4, depth=3, expand_k=3, select_m=3, budget=8)
        assert a.to_json() == b.to_json()

    def test_stored_features_match_recomputation(self):
        cfg, _, draft = micro_draft(4)
        feat = np.random.default_rng(4).normal(size=cfg.hidden_size).astype(np.float32)
        tree = build(draft, feat, 2, depth=2, expand_k=2, select_m=2, budget=4)
        for i, node in enumerate(tree.nodes):
            if node.feature is None:
                continue
            chain = [tree.nodes[j].token for j in tree.ancestors(i)] + [node.token]
            cache = draft.new_cache()
            cur = feat
            with T.no_grad():
                for tok in chain:
                    embeds = T.embedding(draft.embed, np.array([tok]))
                    fused = draft.fuse(T.Tensor(cur[None]), embeds)
                    out = draft.forward(fused, cache=cache)
                    cur = out.next_feature.data[0]
            np.testing.assert_allclose(node.feature, cur, atol=1e-5)

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


def random_tree(rng, n_nodes, vocab=32):
    nodes = [TR.TreeNode(int(rng.integers(vocab)), None, 0, 1.0, 1.0)]
    for _ in range(n_nodes - 1):
        parent = int(rng.integers(0, len(nodes)))
        cond = float(rng.uniform(0.05, 1.0))
        nodes.append(TR.TreeNode(int(rng.integers(vocab)), parent,
                                 nodes[parent].depth + 1, cond,
                                 nodes[parent].joint_prob * cond))
    order = sorted(range(len(nodes)), key=lambda i: (nodes[i].depth, i))
    remap = {old: new for new, old in enumerate(order)}
    rebuilt = [TR.TreeNode(nodes[i].token,
                           None if nodes[i].parent is None else remap[nodes[i].parent],
                           nodes[i].depth, nodes[i].cond_prob, nodes[i].joint_prob)
               for i in order]
    return TR.TokenTree(rebuilt, budget=n_nodes - 1, expand_k=8, select_m=8, max_depth=32)


class TestAttentionMask:
    def test_chain_is_lower_triangular(self):
        tree = TR.chain_tree([1, 2, 3])
        mask = TR.tree_attention_mask(tree, prefix_len=0)
        np.testing.assert_array_equal(mask, np.tril(np.ones((3, 3), dtype=bool)))

    def test_siblings_invisible(self):
        nodes = [TR.TreeNode(1, None, 0, 1.0, 1.0),
                 TR.TreeNode(2, 0, 1, 0.5, 0.5),
                 TR.TreeNode(3, 0, 1, 0.5, 0.5)]
        tree = TR.TokenTree(nodes, budget=2, expand_k=2, select_m=1, max_depth=1)
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
        nodes = [TR.TreeNode(1, None, 0, 1.0, 1.0),
                 TR.TreeNode(2, 2, 1, 0.5, 0.5),
                 TR.TreeNode(3, 0, 1, 0.5, 0.5)]
        with pytest.raises(ContractError):
            TR.TokenTree(nodes, budget=2, expand_k=2, select_m=1, max_depth=1)


class TestFlatten:
    def test_chain_positions(self):
        tree = TR.chain_tree([7, 8, 9])
        tokens, positions, parents = TR.flatten(tree, prefix_len=10)
        np.testing.assert_array_equal(tokens, [7, 8, 9])
        np.testing.assert_array_equal(positions, [10, 11, 12])
        np.testing.assert_array_equal(parents, [-1, 0, 1])

    def test_sibling_positions_equal(self):
        nodes = [TR.TreeNode(1, None, 0, 1.0, 1.0),
                 TR.TreeNode(5, 0, 1, 0.5, 0.5),
                 TR.TreeNode(6, 0, 1, 0.5, 0.5)]
        tree = TR.TokenTree(nodes, budget=2, expand_k=2, select_m=1, max_depth=1)
        _, positions, _ = TR.flatten(tree, prefix_len=4)
        np.testing.assert_array_equal(positions, [4, 5, 5])

    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            tree = random_tree(rng, 12)
            tokens, positions, parents = TR.flatten(tree, prefix_len=3)
            rebuilt_depth = np.zeros(len(tokens), dtype=int)
            for i in range(1, len(tokens)):
                rebuilt_depth[i] = rebuilt_depth[parents[i]] + 1
            np.testing.assert_array_equal(rebuilt_depth + 3, positions)
            for i, node in enumerate(tree.nodes):
                assert node.token == tokens[i]
                assert (node.parent if node.parent is not None else -1) == parents[i]


class TestJsonDump:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        tree = random_tree(rng, 9)
        text = tree.to_json()
        back = TR.TokenTree.from_json(text)
        assert back.to_json() == text

    def test_golden_document(self):
        # pins the debug-dump schema; the one-hot stub makes probs exact
        draft = OneHotStubDraft(vocab=8, hidden=4, tok=3)
        tree = build(draft, np.zeros(4, dtype=np.float32), 1,
                     depth=2, expand_k=1, select_m=1, budget=2)
        expected = ('{"nodes": ['
                    '{"cond_prob": 1.0, "depth": 0, "joint_prob": 1.0, "parent": null, "token": 1}, '
                    '{"cond_prob": 1.0, "depth": 1, "joint_prob": 1.0, "parent": 0, "token": 3}, '
                    '{"cond_prob": 1.0, "depth": 2, "joint_prob": 1.0, "parent": 1, "token": 3}]}')
        assert tree.to_json() == expected
