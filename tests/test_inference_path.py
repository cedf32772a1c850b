"""The tape-free inference path: forwards under ``no_grad`` run the tape
ops' own kernels on bare arrays, bit-identical to the tape, build Tensors
only for what they return, and keep keys and values in growable KV-cache
buffers."""

import numpy as np
import pytest

from specdec import model as M
from specdec import tensor as T
from specdec.errors import ContractError
from specdec.tree import TokenTree, tree_attention_mask


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
    assert T.tape_size() > 0
    T.clear_tape()
    with T.no_grad():
        free = fn()
    assert T.tape_size() == 0
    return taped, free


def small_tree():
    return TokenTree([4, 5, 6, 7], [-1, 0, 0, 1], [0, 1, 1, 2], [1.0, 0.6, 0.3, 0.5],
                     [1.0, 0.6, 0.3, 0.3])


class TestSameValuesOnBothArms:
    def test_target_batch(self):
        target = M.TargetModel(micro_config(), seed=1)
        tokens = np.random.default_rng(1).integers(0, 32, size=(3, 7))
        (lt, ft), (lf, ff) = both_arms(lambda: target.forward(tokens))
        np.testing.assert_array_equal(lt.data, lf.data)
        np.testing.assert_array_equal(ft.data, ff.data)

    def test_target_prefill_and_tree_verify(self):
        target = M.TargetModel(micro_config(), seed=2)
        prefix = np.random.default_rng(2).integers(0, 32, size=9)
        tree = small_tree()
        tokens, positions = tree.tokens, len(prefix) + tree.depths

        def run():
            cache = target.new_cache()
            prefill = target.forward(prefix, cache=cache)
            verify = target.forward(tokens, positions=positions,
                                    mask=tree_attention_mask(tree, len(prefix)), cache=cache)
            return prefill + verify, cache.keys[1].copy()

        (taped, keys_t), (free, keys_f) = both_arms(run)
        for a, b in zip(taped, free):
            np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(keys_t, keys_f)

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_draft(self, variant):
        cfg = micro_config()
        draft = M.DraftModel(cfg, M.TargetModel(cfg, seed=3), variant=variant, seed=4)
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(2, 5, 16)).astype(np.float32)
        tokens = rng.integers(0, 32, size=(2, 5))
        taped, free = both_arms(lambda: draft.forward(feats, tokens))
        for name in ("logit_feature", "next_feature", "logits"):
            np.testing.assert_array_equal(getattr(taped, name).data, getattr(free, name).data)
        assert (free.logit_feature is free.next_feature) == (variant in ("no_pad", "neither"))

    def test_logits_from_features(self):
        target = M.TargetModel(micro_config(), seed=6)
        feats = T.Tensor(np.random.default_rng(6).normal(size=(4, 16)).astype(np.float32))
        taped, free = both_arms(lambda: target.logits_from_features(feats))
        assert isinstance(free, T.Tensor)
        np.testing.assert_array_equal(taped.data, free.data)


class TestScaleBias:
    def test_tape_leaves_its_input_alone_and_equals_the_kernel(self):
        # the kernel writes into the fresh score array it is handed
        x = np.random.default_rng(7).normal(size=(1, 2, 4, 6)).astype(np.float32)
        bias = np.where(M.causal_mask(4, 6), 0.0, M.MASK_OFF).astype(np.float32)
        kept = x.copy()
        taped = T.scale_bias(T.Tensor(x), 0.25, bias)
        np.testing.assert_array_equal(x, kept)
        np.testing.assert_array_equal(T.KERNELS.scale_bias(x, 0.25, bias), taped.data)


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
        assert built[0] <= 3


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
            tail = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))
            if trial % 2:
                tail = rng.permutation(n)[: int(rng.integers(0, n + 1))]
            idx = np.concatenate([np.arange(prefix), tail]).astype(int)
            cache.keep(idx.tolist())
            assert len(cache) == len(idx)
            for layer in range(2):
                np.testing.assert_array_equal(cache.keys[layer], k[:, idx])
                np.testing.assert_array_equal(cache.values[layer], v[:, idx])

    def test_keep_rejects_rows_outside_the_cache(self):
        cache = M.KvCache(1)
        cache.append(0, np.zeros((1, 4, 2)), np.zeros((1, 4, 2)))
        cache.append(0, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))  # capacity 8, length 5
        with pytest.raises(ContractError):
            cache.keep([0, 5])

    def test_truncate_then_append(self):
        rng = np.random.default_rng(12)
        cache = M.KvCache(1)
        k, v = self.chunk(rng, 9), self.chunk(rng, 9)
        cache.append(0, k, v)
        cache.truncate(4)
        assert len(cache) == 4
        k2, v2 = self.chunk(rng, 3), self.chunk(rng, 3)
        got_k, got_v = cache.append(0, k2, v2)
        np.testing.assert_array_equal(got_k, np.concatenate([k[:, :4], k2], axis=1))
        np.testing.assert_array_equal(cache.values[0], np.concatenate([v[:, :4], v2], axis=1))
        cache.truncate(10)  # never lengthens
        assert len(cache) == 7

    def test_empty_layers_read_as_none(self):
        cache = M.KvCache(3)
        assert len(cache) == 0
        assert cache.keys == cache.values == [None, None, None]
