"""The tape-free inference path: forwards under ``no_grad``, and every
forward given a KV cache, run the tape ops' own kernels on bare arrays,
bit-identical to the tape, build Tensors only for what they return, and
keep keys and values in growable KV-cache buffers."""

import contextlib
import os

import numpy as np
import pytest

import oracles
from specdec import model as M
from specdec import tensor as T
from specdec import tree as TR
from specdec.errors import ContractError
from specdec.tree import TokenTree, tree_attention_mask
from test_tree import random_tree

WEIGHTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "weights")


def micro_config(**kw):
    defaults = dict(vocab_size=32, hidden_size=16, intermediate_size=24,
                    n_layers=2, n_heads=2, max_seq_len=64)
    defaults.update(kw)
    return M.ModelConfig(**defaults)


@pytest.fixture(autouse=True)
def empty_tape():
    T.clear_tape()
    yield
    T.clear_tape()


def both_arms(fn):
    """``fn()`` with the tape recording, then under ``no_grad``."""
    taped = fn()
    assert len(T._TAPE) > 0
    T.clear_tape()
    with T.no_grad():
        free = fn()
    assert len(T._TAPE) == 0
    return taped, free


def small_tree():
    return TokenTree([4, 5, 6, 7], [-1, 0, 0, 1], [0, 1, 1, 2], [1.0, 0.6, 0.3, 0.5],
                     [1.0, 0.6, 0.3, 0.3])


def wide_mask(tree, prefix):
    """The tree rows over the prefix keys too, every one visible: the
    full-width mask, from the parent-walk oracle."""
    return oracles.mask_by_parent_walk(tree, prefix)[prefix:]


class TestSameValuesOnBothArms:
    def test_target_batch(self):
        target = M.TargetModel(micro_config(), seed=1)
        tokens = np.random.default_rng(1).integers(0, 32, size=(3, 7))
        (lt, ft), (lf, ff) = both_arms(lambda: target.forward(tokens))
        np.testing.assert_array_equal(lt.data, lf.data)
        np.testing.assert_array_equal(ft.data, ff.data)

    def test_target_prefill_and_tree_verify(self):
        """A forward given a cache is an inference forward in either grad
        mode: with gradients on it records nothing, equals the ``no_grad``
        forward bit for bit, and no gradient flows back through it."""
        target = M.TargetModel(micro_config(), seed=2)
        prefix = np.random.default_rng(2).integers(0, 32, size=9)
        tree = small_tree()

        def run():
            cache = target.new_cache()
            prefill = target.forward(prefix, cache=cache)
            verify = target.forward(tree.tokens, mask=wide_mask(tree, len(prefix)),
                                    cache=cache)
            return prefill + verify, cache.keys[1].copy()

        taped, keys_t = run()
        assert len(T._TAPE) == 0
        with T.no_grad():
            free, keys_f = run()
        for a, b in zip(taped, free):
            np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(keys_t, keys_f)
        for out in taped:
            with pytest.raises(ContractError, match="not on the tape"):
                T.backward(T.sum_all(out))

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_draft(self, variant):
        cfg = micro_config()
        draft = M.DraftModel(cfg, M.TargetModel(cfg, seed=3), variant=variant, seed=4)
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(2, 5, 16)).astype(np.float32)
        tokens = rng.integers(0, 32, size=(2, 5))
        taped, free = both_arms(lambda: draft.forward(feats, tokens))
        assert len(taped) == len(free) == 2   # (logits, features)
        for a, b in zip(taped, free):
            np.testing.assert_array_equal(a.data, b.data)

    def test_logits_from_features(self):
        target = M.TargetModel(micro_config(), seed=6)
        feats = T.Tensor(np.random.default_rng(6).normal(size=(4, 16)).astype(np.float32))
        taped, free = both_arms(lambda: oracles.logits_from_features(target, feats))
        assert isinstance(free, T.Tensor)
        np.testing.assert_array_equal(taped.data, free.data)


@pytest.fixture(scope="module")
def committed():
    target = M.load_checkpoint(os.path.join(WEIGHTS, "target.fspd"))
    return target, M.load_checkpoint(os.path.join(WEIGHTS, "draft_fspad.fspd"), target=target)


def assert_same_as_three_matmuls(monkeypatch, run):
    """The arrays ``run()`` returns from the stacked Q/K/V projection equal,
    bit for bit, those from three separate ones
    (``oracles.three_matmul_attention``)."""
    fused = [np.array(a) for a in run()]
    with monkeypatch.context() as m:
        m.setattr(M.Attention, "__call__", oracles.three_matmul_attention)
        apart = [np.array(a) for a in run()]
    assert len(fused) == len(apart)
    for a, b in zip(fused, apart):
        np.testing.assert_array_equal(a, b)


class TestStackedQkvEqualsThreeMatmuls:
    """Logits and features of the committed weights, bit for bit.  A 1-row
    decode runs with no bias and the reference with an all-zero one, so
    the 1-row cases also show the two agree."""

    @pytest.mark.parametrize("prefix,rows", [(40, 1), (40, 7), (380, 7), (100, 61), (319, 1)])
    def test_target_against_a_cache(self, monkeypatch, committed, prefix, rows):
        target, _ = committed
        rng = np.random.default_rng(prefix + rows)
        tokens = rng.integers(0, 512, size=prefix)
        tree = random_tree(rng, rows, vocab=512)

        def run():
            cache = target.new_cache()
            with T.no_grad():
                out = target.forward(tokens, cache=cache)
                if rows == 1:
                    out += target.forward(tree.tokens, cache=cache)
                else:
                    out += target.forward(tree.tokens, mask=wide_mask(tree, prefix),
                                          cache=cache)
            return [t.data for t in out] + [cache.keys[-1], cache.values[-1]]

        assert_same_as_three_matmuls(monkeypatch, run)

    def test_target_batch_16x96(self, monkeypatch, committed):
        target, _ = committed
        tokens = np.random.default_rng(96).integers(0, 512, size=(16, 96))

        def run():
            with T.no_grad():
                return [t.data for t in target.forward(tokens)]

        assert_same_as_three_matmuls(monkeypatch, run)

    def test_draft_logits_and_next_feature(self, monkeypatch, committed):
        target, draft = committed
        rng = np.random.default_rng(41)
        tokens = rng.integers(0, 512, size=41)
        with T.no_grad():
            _, feats = target.forward(tokens)
        feats = feats.data[None]
        tree = random_tree(rng, 7, vocab=512)

        def run():
            cache = draft.new_cache()
            with T.no_grad():
                outs = [draft.forward(feats[:, :-1], tokens[None, 1:], cache=cache),
                        draft.forward(feats[:, -1:], tokens[None, -1:], cache=cache),
                        draft.forward(np.repeat(feats[:, -1:], 7, axis=1), tree.tokens[None],
                                      mask=wide_mask(tree, 41), cache=cache)]
            return [t.data for out in outs for t in out]

        assert_same_as_three_matmuls(monkeypatch, run)

    def test_tape_batch_4x33(self, monkeypatch, committed):
        target, draft = committed
        rng = np.random.default_rng(33)
        tokens = rng.integers(0, 512, size=(4, 33))
        feats = rng.normal(size=(4, 33, 128)).astype(np.float32)

        def run():
            T.clear_tape()
            logits, features = target.forward(tokens)
            draft_logits, draft_features = draft.forward(feats, tokens)
            assert len(T._TAPE) > 0
            return logits.data, features.data, draft_logits.data, draft_features.data

        assert_same_as_three_matmuls(monkeypatch, run)

    def test_one_row_decode_builds_no_bias(self, committed):
        target, _ = committed
        cache = target.new_cache()
        with T.no_grad():
            target.forward(np.arange(40), cache=cache)
        row = np.zeros((1, 1, 128), dtype=np.float32)
        assert M._preamble(target.config, row, None, cache)[1] is None
        tree = random_tree(np.random.default_rng(7), 7, vocab=512)
        _, bias = M._preamble(target.config, np.zeros((1, 7, 128), np.float32),
                              wide_mask(tree, 40), cache)
        assert bias.shape == (7, 47) and (bias == M.MASK_OFF).any()
        _, narrow = M._preamble(target.config, np.zeros((1, 7, 128), np.float32),
                                tree_attention_mask(tree), cache)
        np.testing.assert_array_equal(narrow, bias[:, 40:])


class TestScaleBias:
    def test_tape_leaves_its_input_alone_and_equals_the_kernel(self):
        # the kernel writes into the fresh score array it is handed
        x = np.random.default_rng(7).normal(size=(1, 2, 4, 6)).astype(np.float32)
        sees = np.arange(6)[None, :] <= np.arange(4)[:, None] + 2  # causal after 2 keys
        bias = np.where(sees, 0.0, M.MASK_OFF).astype(np.float32)
        kept = x.copy()
        taped = T.scale_bias(T.Tensor(x), 0.25, bias)
        np.testing.assert_array_equal(x, kept)
        np.testing.assert_array_equal(T.KERNELS.scale_bias(x, 0.25, bias), taped.data)

    def test_a_narrow_bias_fills_the_last_columns(self):
        x = np.random.default_rng(9).normal(size=(1, 2, 4, 9)).astype(np.float32)
        sees = np.arange(5)[None, :] <= np.arange(4)[:, None] + 1  # causal after 1 key
        narrow = np.where(sees, 0.0, M.MASK_OFF).astype(np.float32)
        wide = np.zeros((4, 9), np.float32)
        wide[:, 4:] = narrow
        want = T.KERNELS.scale_bias(x.copy(), 0.25, wide)
        np.testing.assert_array_equal(T.KERNELS.scale_bias(x.copy(), 0.25, narrow), want)
        np.testing.assert_array_equal(T.scale_bias(T.Tensor(x), 0.25, narrow).data, want)

    def test_no_bias_equals_a_zero_bias(self):
        x = np.random.default_rng(8).normal(size=(1, 2, 1, 6)).astype(np.float32)
        zero = T.KERNELS.scale_bias(x.copy(), 0.25, np.zeros((1, 6), np.float32))
        np.testing.assert_array_equal(T.KERNELS.scale_bias(x.copy(), 0.25, None), zero)
        np.testing.assert_array_equal(T.scale_bias(T.Tensor(x), 0.25, None).data, zero)


def arms():
    """The tape, then ``no_grad``."""
    return contextlib.nullcontext(), T.no_grad()


def prefilled(model, tokens, feats=None):
    """A cache of ``model`` holding the rows of ``tokens`` (and, for the
    draft, of ``feats``)."""
    cache = model.new_cache()
    if feats is None:
        model.forward(tokens, cache=cache)
    else:
        model.forward(feats, tokens[None], cache=cache)
    return cache


def assert_same_outputs(a, b):
    assert len(a) == len(b) == 2
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.data, y.data)


class TestMaskOverTheLastKeys:
    """A (T, K) mask over the last K keys gives the logits and features,
    bit for bit, of the full-width mask whose earlier columns are True."""

    @pytest.mark.parametrize("prefix,rows", [(40, 1), (40, 7), (380, 7)])
    def test_target_and_draft(self, committed, prefix, rows):
        target, draft = committed
        rng = np.random.default_rng(prefix + rows)
        tokens = rng.integers(0, 512, size=prefix + 1)
        tree = random_tree(rng, rows, vocab=512)
        narrow, wide = tree_attention_mask(tree), wide_mask(tree, prefix)
        with T.no_grad():
            _, feats = target.forward(tokens)
        feats = feats.data[None]
        tree_feats = np.repeat(feats[:, -1:], rows, axis=1)
        for arm in arms():
            with arm:
                outs = [target.forward(tree.tokens, mask=mask,
                                       cache=prefilled(target, tokens[:prefix]))
                        for mask in (narrow, wide)]
                assert_same_outputs(*outs)
                outs = [draft.forward(tree_feats, tree.tokens[None], mask=mask,
                                      cache=prefilled(draft, tokens[1:prefix + 1], feats[:, :-1]))
                        for mask in (narrow, wide)]
                assert_same_outputs(*outs)
            T.clear_tape()

    def test_builder_levels(self, committed):
        """Each level of ``build_draft_tree`` against 40 committed draft rows
        passes a mask over the keys from the root on; widened to every key,
        it gives the same outputs and the same tree."""
        target, draft = committed
        rng = np.random.default_rng(40)
        tokens = rng.integers(0, 512, size=42)
        with T.no_grad():
            _, feats = target.forward(tokens)
        feats = feats.data
        widths = []

        class Widened:
            """The draft, its masks widened to every key of the cache."""

            def __init__(self, widen):
                self.widen = widen
                self.outputs = []

            def forward(self, feats, tokens, mask=None, cache=None):
                if mask is not None and self.widen:
                    full = np.ones((len(mask), len(cache) + len(mask)), dtype=bool)
                    full[:, -mask.shape[1]:] = mask
                    mask = full
                elif mask is not None:
                    widths.append((mask.shape[1], len(cache) + len(mask)))
                out = draft.forward(feats, tokens, mask, cache)
                self.outputs.append(out)
                return out

        for arm in arms():
            with arm:
                built = []
                for widen in (False, True):
                    drafter = Widened(widen)
                    tree, _ = TR.build_draft_tree(
                        drafter, feats[:41], tokens[1:42], depth=5, expand_k=8, select_m=8,
                        budget=60, cache=prefilled(draft, tokens[1:41], feats[None, :40]))
                    built.append((tree.to_json(), drafter.outputs))
            (narrow_tree, narrow_out), (wide_tree, wide_out) = built
            assert narrow_tree == wide_tree
            assert len(narrow_out) == len(wide_out) > 2
            for a, b in zip(narrow_out, wide_out):
                assert_same_outputs(a, b)
            T.clear_tape()
        assert widths and all(k < full for k, full in widths)

    @pytest.mark.parametrize("width", [6, 48])
    def test_a_mask_outside_the_rows_and_keys_is_refused(self, committed, width):
        # 7 rows against 40 cached: K must lie in [7, 47]
        target, draft = committed
        mask = np.ones((7, width), dtype=bool)
        rows = np.arange(7)
        with T.no_grad():
            with pytest.raises(ContractError, match="attention mask"):
                target.forward(rows, mask=mask, cache=prefilled(target, np.arange(40)))
            feats = np.zeros((1, 40, 128), dtype=np.float32)
            with pytest.raises(ContractError, match="attention mask"):
                draft.forward(feats[:, :7], rows[None], mask=mask,
                              cache=prefilled(draft, np.arange(40), feats))


class TestPositionsFollowTheMask:
    def test_tree_rows_sit_at_prefix_plus_depth(self):
        """A tree row sees the prefix, its ancestors and itself, so the
        rotary rows ``_preamble`` picks are those of ``prefix + depths``,
        under a narrow mask and a full-width one alike."""
        cfg = micro_config(max_seq_len=128)
        rng = np.random.default_rng(20)
        for _ in range(200):
            tree = random_tree(rng, int(rng.integers(1, 24)))
            prefix = int(rng.integers(0, 100))
            cache = M.KvCache(1)
            cache.append(0, *[np.zeros((1, prefix, 1), np.float32)] * 2)
            rows = np.zeros((1, len(tree), cfg.hidden_size), np.float32)
            want = M.rotary_rows(cfg, prefix + tree.depths)
            for mask in (tree_attention_mask(tree), wide_mask(tree, prefix)):
                rope, _ = M._preamble(cfg, rows, mask, cache)
                np.testing.assert_array_equal(rope[0], want[0])
                np.testing.assert_array_equal(rope[1], want[1])


class TestTensorsBuilt:
    @staticmethod
    def count_tensors(monkeypatch):
        built = [0]
        init = T.Tensor.__init__

        def counted(obj, *args, **kwargs):
            built[0] += 1
            init(obj, *args, **kwargs)

        monkeypatch.setattr(T.Tensor, "__init__", counted)
        return built

    def test_cached_decode_builds_only_its_outputs(self, monkeypatch):
        target = M.TargetModel(micro_config(), seed=7)
        with T.no_grad():
            cache = target.new_cache()
            target.forward(np.arange(6), cache=cache)
            built = self.count_tensors(monkeypatch)
            logits, feats = target.forward(np.array([3]), cache=cache)
        assert isinstance(logits, T.Tensor) and isinstance(feats, T.Tensor)
        assert built[0] <= 2

    def test_draft_forward_builds_only_its_outputs(self, monkeypatch):
        cfg = micro_config()
        draft = M.DraftModel(cfg, M.TargetModel(cfg, seed=8), seed=9)
        feats = np.zeros((1, 3, 16), dtype=np.float32)
        with T.no_grad():
            cache = draft.new_cache()
            built = self.count_tensors(monkeypatch)
            draft.forward(feats, [[1, 2, 3]], cache=cache)
        assert built[0] <= 2


class TestKvCache:
    @staticmethod
    def chunk(rng, rows, heads=2, head_dim=3):
        return rng.normal(size=(heads, rows, head_dim)).astype(np.float32)

    def test_appends_past_the_first_capacity(self):
        rng = np.random.default_rng(10)
        cache = M.KvCache(2)
        want_k, want_v = [], []
        for rows in (4, 1, 1, 3, 7, 1, 20, 2):
            k, v = self.chunk(rng, rows), self.chunk(rng, rows)
            want_k.append(k)
            want_v.append(v)
            for layer in range(2):
                got_k, got_v = cache.append(layer, k + layer, v - layer)
                np.testing.assert_array_equal(got_k, np.concatenate(want_k, axis=1) + layer)
                np.testing.assert_array_equal(got_v, np.concatenate(want_v, axis=1) - layer)
        assert len(cache) == 39
        for layer in range(2):
            assert cache.keys[layer].shape == cache.values[layer].shape == (2, 39, 3)
            np.testing.assert_array_equal(cache.keys[layer], np.concatenate(want_k, axis=1) + layer)
            np.testing.assert_array_equal(cache.values[layer],
                                          np.concatenate(want_v, axis=1) - layer)

    def test_keep_matches_a_plain_gather(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            cache = M.KvCache(2)
            n = int(rng.integers(1, 30))
            k, v = self.chunk(rng, n), self.chunk(rng, n)
            for layer in range(2):
                cache.append(layer, k, v)
            prefix = int(rng.integers(0, n + 1))
            tail = rng.integers(0, n, size=int(rng.integers(0, n - prefix + 1)))
            if trial % 2:
                tail = rng.permutation(n)[: int(rng.integers(0, n - prefix + 1))]
            idx = np.concatenate([np.arange(prefix), tail]).astype(int)
            cache.keep(prefix, tail.tolist())
            assert len(cache) == len(idx)
            for layer in range(2):
                np.testing.assert_array_equal(cache.keys[layer], k[:, idx])
                np.testing.assert_array_equal(cache.values[layer], v[:, idx])

    def test_keep_rejects_rows_outside_the_cache(self):
        cache = M.KvCache(1)
        cache.append(0, np.zeros((1, 4, 2)), np.zeros((1, 4, 2)))
        cache.append(0, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))  # capacity 8, length 5
        with pytest.raises(ContractError):
            cache.keep(1, [5])
        with pytest.raises(ContractError):
            cache.keep(1, [-1])

    def test_keep_then_append(self):
        rng = np.random.default_rng(12)
        cache = M.KvCache(1)
        k, v = self.chunk(rng, 9), self.chunk(rng, 9)
        cache.append(0, k, v)
        cache.keep(4)
        assert len(cache) == 4
        k2, v2 = self.chunk(rng, 3), self.chunk(rng, 3)
        got_k, got_v = cache.append(0, k2, v2)
        np.testing.assert_array_equal(got_k, np.concatenate([k[:, :4], k2], axis=1))
        np.testing.assert_array_equal(cache.values[0], np.concatenate([v[:, :4], v2], axis=1))
        for length, rows in ((10, ()), (6, [0, 1]), (-1, [0])):  # never lengthens
            with pytest.raises(ContractError):
                cache.keep(length, rows)
        assert len(cache) == 7

    def test_empty_layers_read_as_none(self):
        cache = M.KvCache(3)
        assert len(cache) == 0
        assert cache.keys == cache.values == [None, None, None]
