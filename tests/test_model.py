"""Model tests: forward contracts, connector math, draft path separation,
checkpoint round-trips."""

import builtins
import json
import os
import struct

import numpy as np
import pytest

from specdec import model as M
from specdec import tensor as T
from specdec.errors import CapacityError, CheckpointFormatError, ConfigError, ContractError, DimensionError


def micro_config(**kw):
    defaults = dict(vocab_size=32, hidden_size=16, intermediate_size=24,
                    n_layers=2, n_heads=2, max_seq_len=64)
    defaults.update(kw)
    return M.ModelConfig(**defaults)


def fail_writes_halfway(monkeypatch):
    """Every file opened for writing from now on fails halfway through its first write."""
    real_open = builtins.open

    class HalfWriter:
        def __init__(self, f):
            self.f = f

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            self.f.flush()
            raise OSError("no space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def __getattr__(self, name):
            return getattr(self.f, name)

    def half_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return HalfWriter(f) if set(mode) & set("wax") else f

    monkeypatch.setattr(builtins, "open", half_open)


@pytest.fixture(autouse=True)
def inference_mode():
    T.clear_tape()
    with T.no_grad():
        yield
    T.clear_tape()


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            micro_config(hidden_size=18, n_heads=4)

    def test_intermediate_must_expand(self):
        with pytest.raises(ConfigError):
            micro_config(intermediate_size=8)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            M.ModelConfig.from_dict({"vocab_size": 8, "bogus": 1})


class TestTargetForward:
    def test_single_token_shapes_and_cache(self):
        target = M.TargetModel(micro_config(), seed=3)
        cache = target.new_cache()
        logits, feats = target.forward(np.array([5]), cache=cache)
        assert logits.data.shape == (1, 32)
        assert feats.data.shape == (1, 16)
        assert len(cache) == 1

    def test_incremental_matches_batch(self):
        target = M.TargetModel(micro_config(), seed=4)
        tokens = np.array([3, 7, 1, 2, 9, 4])
        logits_all, feats_all = target.forward(tokens)
        cache = target.new_cache()
        last = None
        for i, tok in enumerate(tokens):
            last, _ = target.forward(np.array([tok]), cache=cache)
        np.testing.assert_allclose(last.data[0], logits_all.data[-1], atol=1e-5)
        assert len(cache) == len(tokens)

    def test_prefix_consistency(self):
        target = M.TargetModel(micro_config(), seed=5)
        tokens = np.array([3, 7, 1, 2, 9, 4, 8, 6])
        logits_short, _ = target.forward(tokens[:5])
        logits_long, _ = target.forward(tokens)
        np.testing.assert_allclose(logits_short.data, logits_long.data[:5], atol=1e-5)

    def test_tree_children_match_linear_paths(self):
        # root + 2 children verified in one pass vs each child decoded alone
        target = M.TargetModel(micro_config(), seed=6)
        prefix = np.array([1, 2, 3])
        root, child_a, child_b = 4, 5, 6

        cache = target.new_cache()
        target.forward(prefix, cache=cache)
        allowed = np.zeros((3, len(prefix) + 3), dtype=bool)
        allowed[:, :3] = True          # prefix visible to all
        allowed[0, 3] = True           # root sees itself
        allowed[1, [3, 4]] = True      # child a: root + itself
        allowed[2, [3, 5]] = True      # child b: root + itself
        positions = np.array([3, 4, 4])
        tree_logits, _ = target.forward(np.array([root, child_a, child_b]),
                                        positions=positions, mask=allowed, cache=cache)

        for child, row in ((child_a, 1), (child_b, 2)):
            lin, _ = target.forward(np.concatenate([prefix, [root, child]]))
            np.testing.assert_allclose(tree_logits.data[row], lin.data[-1], atol=1e-5)

    def test_position_overflow(self):
        target = M.TargetModel(micro_config(max_seq_len=4), seed=7)
        with pytest.raises(CapacityError):
            target.forward(np.array([1, 2, 3, 4, 5]))

    def test_negative_position_is_contract_error(self):
        target = M.TargetModel(micro_config(), seed=7)
        with pytest.raises(ContractError, match="negative position"):
            target.forward(np.array([1, 2]), positions=np.array([-1, 0]))

    def test_empty_input_is_contract_error(self):
        cfg = micro_config()
        target = M.TargetModel(cfg, seed=7)
        draft = M.DraftModel(cfg, target, seed=8)
        empty = np.array([], dtype=np.int64)
        calls = (lambda: target.forward(empty),
                 lambda: target.forward(empty, cache=target.new_cache()),
                 lambda: target.forward(empty[None]),
                 lambda: draft.forward(np.zeros((1, 0, 16), np.float32), empty[None]),
                 lambda: draft.forward(np.zeros((1, 0, 16), np.float32), empty[None],
                                       cache=draft.new_cache()))
        for call in calls:
            with pytest.raises(ContractError, match="at least one row"):
                call()


class TestRotaryTables:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_equal_tables_built_for_the_positions(self, dtype):
        cfg = micro_config(max_seq_len=200, rope_base=500.0)
        half = cfg.head_dim // 2
        positions = np.array([199, 0, 7, 7, 123, 1, 198])
        c, s = M.rotary_rows(cfg, positions, dtype)
        cos, sin = M.rope_tables(positions, cfg.head_dim, cfg.rope_base, dtype)
        assert c.dtype == s.dtype == dtype and c.shape == (len(positions), cfg.head_dim)
        for got, want in ((c[:, :half], cos), (c[:, half:], cos),
                          (s[:, :half], -sin), (s[:, half:], sin)):
            np.testing.assert_array_equal(got, want)

    def test_built_once_per_model_config(self):
        cfg = micro_config(max_seq_len=48)
        target = M.TargetModel(cfg, seed=3)
        target.forward(np.arange(5))
        built = M._rotary.cache_info().misses
        target.forward(np.arange(9))
        target.forward(np.arange(3), cache=target.new_cache())
        M.DraftModel(cfg, target, seed=4).forward(np.zeros((1, 2, 16), np.float32),
                                                  np.array([[1, 2]]))
        assert M._rotary.cache_info().misses == built

    def test_rotation_matches_the_split_formula(self):
        # x * [cos, cos] + [x2, x1] * [-sin, sin] == [x1 cos - x2 sin, x2 cos + x1 sin]
        cfg = micro_config()
        x = np.random.default_rng(9).normal(size=(2, 2, 6, cfg.head_dim)).astype(np.float32)
        positions = np.arange(10, 16)
        cos, sin = M.rope_tables(positions, cfg.head_dim, cfg.rope_base)
        x1, x2 = np.split(x, 2, axis=-1)
        want = np.concatenate([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)
        rope = M.rotary_rows(cfg, positions)
        np.testing.assert_array_equal(M._apply_rope(x, rope, T.KERNELS), want)
        np.testing.assert_array_equal(M._apply_rope(T.Tensor(x), rope, T.TAPE).data, want)


class TestFeatureSampler:
    def test_zero_down_projection_is_identity(self):
        cfg = micro_config()
        fs = M.FeatureSampler(np.random.default_rng(0), cfg)
        fs.down.weight.data[:] = 0.0
        rng = np.random.default_rng(1)
        f = T.Tensor(rng.normal(size=(2, 3, 16)).astype(np.float32))
        e = T.Tensor(rng.normal(size=(2, 3, 16)).astype(np.float32))
        np.testing.assert_array_equal(fs(f, e).data, f.data)

    def test_zero_gate_preactivation(self):
        cfg = M.ModelConfig(vocab_size=8, hidden_size=2, intermediate_size=3,
                            n_layers=1, n_heads=1, max_seq_len=8)
        fs = M.FeatureSampler(np.random.default_rng(0), cfg)
        for lin in (fs.up, fs.gate, fs.down):
            lin.weight.data[:] = 1.0
        f = T.Tensor(np.array([[[1.0, 0.0]]], dtype=np.float32))
        e = T.Tensor(np.zeros((1, 1, 2), dtype=np.float32))
        np.testing.assert_allclose(fs(f, e).data, f.data, atol=1e-7)

    def test_matches_formula_oracle(self):
        cfg = M.ModelConfig(vocab_size=8, hidden_size=2, intermediate_size=4,
                            n_layers=1, n_heads=1, max_seq_len=8)
        fs = M.FeatureSampler(np.random.default_rng(2), cfg)
        rng = np.random.default_rng(3)
        f = rng.normal(size=(1, 2, 2)).astype(np.float32)
        e = rng.normal(size=(1, 2, 2)).astype(np.float32)

        f64, e64 = f.astype(np.float64), e.astype(np.float64)
        up = f64 @ fs.up.weight.data.astype(np.float64)
        gate_pre = e64 @ fs.gate.weight.data.astype(np.float64)
        gated = gate_pre / (1.0 + np.exp(-gate_pre)) * up
        expected = f64 + gated @ fs.down.weight.data.astype(np.float64)

        got = fs(T.Tensor(f), T.Tensor(e)).data
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_shape_contract(self):
        cfg = micro_config()
        fs = M.FeatureSampler(np.random.default_rng(4), cfg)
        for b, s in ((1, 1), (2, 5), (3, 2)):
            f = T.Tensor(np.zeros((b, s, 16), dtype=np.float32))
            e = T.Tensor(np.ones((b, s, 16), dtype=np.float32))
            assert fs(f, e).data.shape == (b, s, 16)
        draft = M.DraftModel(cfg, M.TargetModel(cfg, seed=4), variant="fspad", seed=5)
        with pytest.raises(DimensionError):
            draft.forward(np.zeros((1, 2, 16)), np.zeros((1, 3), dtype=int))


class TestDraftModel:
    def _stack(self, variant="fspad", seed=8):
        cfg = micro_config()
        target = M.TargetModel(cfg, seed=seed)
        return cfg, target, M.DraftModel(cfg, target, variant=variant, seed=seed + 1)

    @staticmethod
    def _inputs(seed, n):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(1, n, 16)).astype(np.float32), rng.integers(0, 32, size=(1, n))

    def test_zero_mlp_shares_residual(self):
        _, _, draft = self._stack()
        draft.layer.mlp.down.weight.data[:] = 0.0
        out = draft.forward(*self._inputs(0, 3))
        np.testing.assert_array_equal(out.logit_feature.data, out.next_feature.data)

    def test_path_separation(self):
        # perturbing the autoregression half of the MLP leaves logits untouched
        cfg, _, draft = self._stack()
        feats, tokens = self._inputs(1, 4)
        before = draft.forward(feats, tokens)
        draft.layer.mlp.down.weight.data[:, cfg.hidden_size:] += 0.37
        after = draft.forward(feats, tokens)
        np.testing.assert_array_equal(after.logits.data, before.logits.data)
        np.testing.assert_array_equal(after.logit_feature.data, before.logit_feature.data)
        assert np.abs(after.next_feature.data - before.next_feature.data).max() > 0

    def test_single_path_variant_ties_outputs(self):
        _, _, draft = self._stack(variant="no_pad")
        out = draft.forward(*self._inputs(2, 3))
        assert out.logit_feature is out.next_feature

    def test_matches_manual_layer_oracle(self):
        cfg, target, draft = self._stack(seed=11)
        feats, tokens = self._inputs(3, 3)
        out = draft.forward(feats, tokens)

        # manual recomputation of the wide-MLP layer with explicit split
        x = draft.connector(T.Tensor(feats), T.embedding(target.embed, tokens))
        rope = M.rotary_rows(cfg, np.arange(3))
        bias = np.where(M.causal_mask(3, 3), 0.0, M.MASK_OFF)
        r = T.add(x, draft.layer.attn(draft.layer.attn_norm(x), rope, bias))
        h = draft.layer.mlp_norm(r)
        wide = T.matmul(T.mul(T.silu(T.matmul(h, draft.layer.mlp.gate.weight)),
                              T.matmul(h, draft.layer.mlp.up.weight)),
                        draft.layer.mlp.down.weight)
        m_logit = wide.data[..., :16]
        m_auto = wide.data[..., 16:]
        np.testing.assert_allclose(out.logit_feature.data, r.data + m_logit, atol=1e-6)
        np.testing.assert_allclose(out.next_feature.data, r.data + m_auto, atol=1e-6)
        head_in = T.rms_norm(T.Tensor(r.data + m_logit), target.final_norm.weight)
        np.testing.assert_allclose(out.logits.data,
                                   T.matmul(head_in, target.head.weight).data, atol=1e-6)

    def test_shared_head_is_observed(self):
        _, target, draft = self._stack(seed=12)
        feats, tokens = self._inputs(4, 2)
        before = draft.forward(feats, tokens).logits.data.copy()
        target.head.weight.data[:] += 0.25
        after = draft.forward(feats, tokens).logits.data
        assert np.abs(after - before).max() > 0

    def test_unknown_variant(self):
        cfg = micro_config()
        target = M.TargetModel(cfg, seed=0)
        with pytest.raises(ConfigError):
            M.DraftModel(cfg, target, variant="bogus")


class TestEmbedding:
    def test_row_lookup_and_order(self):
        target = M.TargetModel(micro_config(), seed=13)
        ids = np.array([0, 7, 3])
        rows = T.embedding(target.embed, ids).data
        np.testing.assert_array_equal(rows[0], target.embed.data[0])
        np.testing.assert_array_equal(rows, target.embed.data[ids])

    def test_out_of_range(self):
        target = M.TargetModel(micro_config(), seed=14)
        with pytest.raises(IndexError):
            T.embedding(target.embed, np.array([32]))


class TestCheckpoint:
    def test_target_round_trip_bit_exact(self, tmp_path):
        target = M.TargetModel(micro_config(), seed=15)
        path = tmp_path / "target.fspd"
        M.save_checkpoint(target, path)
        loaded = M.load_checkpoint(path)
        for name, t in target.named_tensors().items():
            np.testing.assert_array_equal(loaded.named_tensors()[name].data, t.data)

    def test_draft_round_trip_bit_exact(self, tmp_path):
        cfg = micro_config()
        target = M.TargetModel(cfg, seed=16)
        draft = M.DraftModel(cfg, target, variant="no_fs", seed=17)
        path = tmp_path / "draft.fspd"
        M.save_checkpoint(draft, path)
        loaded = M.load_checkpoint(path, target=target)
        assert loaded.variant == "no_fs"
        for name, t in draft.named_tensors().items():
            np.testing.assert_array_equal(loaded.named_tensors()[name].data, t.data)

    def test_failed_save_keeps_earlier_file(self, tmp_path, monkeypatch):
        target = M.TargetModel(micro_config(), seed=15)
        path = tmp_path / "target.fspd"
        M.save_checkpoint(target, path)
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError):
            M.save_checkpoint(M.TargetModel(micro_config(), seed=16), path)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["target.fspd"]  # no temp file left behind
        loaded = M.load_checkpoint(path)
        for name, t in target.named_tensors().items():
            np.testing.assert_array_equal(loaded.named_tensors()[name].data, t.data)

    def test_truncated_file_rejected(self, tmp_path):
        target = M.TargetModel(micro_config(), seed=18)
        path = tmp_path / "t.fspd"
        M.save_checkpoint(target, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 20])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            M.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.fspd"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointFormatError, match="magic"):
            M.load_checkpoint(path)

    def test_unknown_tensor_name(self, tmp_path):
        target = M.TargetModel(micro_config(), seed=19)
        path = tmp_path / "t.fspd"
        M.save_checkpoint(target, path)
        raw = bytearray(path.read_bytes())
        idx = raw.find(b"embed.weight")
        raw[idx: idx + 5] = b"embzz"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="embzz"):
            M.load_checkpoint(path)

    def test_config_shape_mismatch(self, tmp_path):
        target = M.TargetModel(micro_config(), seed=20)
        path = tmp_path / "t.fspd"
        M.save_checkpoint(target, path)
        raw = bytearray(path.read_bytes())
        # shrink vocab in the config JSON so tensor shapes no longer match
        idx = raw.find(b'"vocab_size": 32')
        raw[idx: idx + len(b'"vocab_size": 32')] = b'"vocab_size": 16'
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="shape"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("meta", [b"[]", b'{"config": 5, "kind": "target"}'])
    def test_metadata_not_an_object(self, tmp_path, meta):
        path = tmp_path / "t.fspd"
        M.save_checkpoint(M.TargetModel(micro_config(), seed=23), path)
        raw = path.read_bytes()
        (json_len,) = struct.unpack("<I", raw[8:12])
        path.write_bytes(raw[:8] + struct.pack("<I", len(meta)) + meta + raw[12 + json_len:])
        with pytest.raises(CheckpointFormatError, match="JSON objects"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("kind,edit", [
        ("target", {"config": {"hidden_size": 15}}),   # not divisible by n_heads
        ("target", {"config": {"bogus": 1}}),
        ("draft", {"variant": "nope"}),
    ])
    def test_bad_stored_config(self, tmp_path, kind, edit):
        cfg = micro_config()
        target = M.TargetModel(cfg, seed=24)
        path = tmp_path / "m.fspd"
        M.save_checkpoint(target if kind == "target" else M.DraftModel(cfg, target, seed=25), path)
        raw = path.read_bytes()
        (json_len,) = struct.unpack("<I", raw[8:12])
        meta = json.loads(raw[12: 12 + json_len])
        for key, value in edit.items():
            meta[key] = {**meta[key], **value} if isinstance(value, dict) else value
        blob = json.dumps(meta).encode()
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + json_len:])
        with pytest.raises(CheckpointFormatError, match="config is invalid") as info:
            M.load_checkpoint(path, target=target)
        assert isinstance(info.value.__cause__, ConfigError)

    def test_draft_requires_target(self, tmp_path):
        cfg = micro_config()
        target = M.TargetModel(cfg, seed=21)
        draft = M.DraftModel(cfg, target, seed=22)
        path = tmp_path / "d.fspd"
        M.save_checkpoint(draft, path)
        with pytest.raises(ContractError):
            M.load_checkpoint(path)
