"""Model tests: forward contracts, connector math, draft path separation,
checkpoint round-trips."""

import builtins
import contextlib
import json
import os
import struct

import numpy as np
import pytest

import oracles
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
        tree_logits, _ = target.forward(np.array([root, child_a, child_b]),
                                        mask=allowed, cache=cache)

        for child, row in ((child_a, 1), (child_b, 2)):
            lin, _ = target.forward(np.concatenate([prefix, [root, child]]))
            np.testing.assert_allclose(tree_logits.data[row], lin.data[-1], atol=1e-5)

    def test_position_overflow(self):
        target = M.TargetModel(micro_config(max_seq_len=4), seed=7)
        with pytest.raises(CapacityError):
            target.forward(np.array([1, 2, 3, 4, 5]))

    def test_a_row_that_does_not_see_its_own_key_is_contract_error(self):
        cfg = micro_config()
        target = M.TargetModel(cfg, seed=7)
        draft = M.DraftModel(cfg, target, seed=8)
        feats = np.zeros((1, 5, cfg.hidden_size), dtype=np.float32)
        target_cache, draft_cache = target.new_cache(), draft.new_cache()
        target.forward(np.array([1, 2, 3]), cache=target_cache)
        draft.forward(feats[:, :3], [[1, 2, 3]], cache=draft_cache)
        # row 1 sees the key of row 0 and not its own, over the 2 new keys or all 5
        narrow = np.array([[True, False], [True, False]])
        wide = np.concatenate([np.ones((2, 3), dtype=bool), narrow], axis=1)
        for blind in (narrow, wide):
            with pytest.raises(ContractError, match="row 1 does not see its own key"):
                target.forward(np.array([4, 5]), mask=blind, cache=target_cache)
            with pytest.raises(ContractError, match="row 1 does not see its own key"):
                draft.forward(feats[:, 3:], [[4, 5]], mask=blind, cache=draft_cache)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_a_mask_that_is_not_boolean_is_contract_error(self, dtype):
        # an int 0/1 mask used as an index would pick rows, not mask keys
        cfg = micro_config()
        target = M.TargetModel(cfg, seed=7)
        draft = M.DraftModel(cfg, target, seed=8)
        mask = M.causal_mask(2).astype(dtype)
        feats = np.zeros((1, 2, cfg.hidden_size), dtype=np.float32)
        for call in (lambda: target.forward(np.array([4, 5]), mask=mask),
                     lambda: target.forward(np.array([4, 5]), mask=mask,
                                            cache=target.new_cache()),
                     lambda: draft.forward(feats, [[4, 5]], mask=mask),
                     lambda: draft.forward(feats, [[4, 5]], mask=mask, cache=draft.new_cache())):
            with pytest.raises(ContractError, match="must be boolean"):
                call()

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
        np.testing.assert_array_equal(T.KERNELS.rope(x.copy(), *rope), want)
        np.testing.assert_array_equal(T.rope(T.Tensor(x), *rope).data, want)


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
        # both MLP halves zero: the head reads the returned feature, r itself
        _, target, draft = self._stack()
        draft.layer.mlp.down.weight.data[:] = 0.0
        logits, feats = draft.forward(*self._inputs(0, 3))
        np.testing.assert_array_equal(logits.data,
                                      oracles.logits_from_features(target, feats).data)

    def test_path_separation(self):
        # perturbing the autoregression half of the MLP leaves logits untouched,
        # and perturbing the logit half leaves the features untouched
        cfg, _, draft = self._stack()
        inputs = self._inputs(1, 4)
        logits, feats = draft.forward(*inputs)
        draft.layer.mlp.down.weight.data[:, cfg.hidden_size:] += 0.37
        logits_auto, feats_auto = draft.forward(*inputs)
        np.testing.assert_array_equal(logits_auto.data, logits.data)
        assert np.abs(feats_auto.data - feats.data).max() > 0
        draft.layer.mlp.down.weight.data[:, :cfg.hidden_size] += 0.37
        logits_both, feats_both = draft.forward(*inputs)
        np.testing.assert_array_equal(feats_both.data, feats_auto.data)
        assert np.abs(logits_both.data - logits_auto.data).max() > 0

    def test_single_path_variant_ties_outputs(self):
        # a single-path draft's head reads the very features it returns
        inputs = self._inputs(2, 3)
        for variant in ("no_pad", "neither"):
            _, target, draft = self._stack(variant=variant)
            for arm in (contextlib.nullcontext(), T.no_grad()):  # the tape, then the kernels
                with arm:
                    logits, feats = draft.forward(*inputs)
                    head = oracles.logits_from_features(target, feats)
                np.testing.assert_array_equal(logits.data, head.data)

    def test_matches_manual_layer_oracle(self):
        cfg, target, draft = self._stack(seed=11)
        feats, tokens = self._inputs(3, 3)
        logits, next_feats = draft.forward(feats, tokens)

        # manual recomputation of the wide-MLP layer with explicit split
        x = draft.connector(T.Tensor(feats), T.embedding(target.embed, tokens))
        rope = M.rotary_rows(cfg, np.arange(3))
        bias = np.where(M.causal_mask(3), 0.0, M.MASK_OFF)
        r = T.add(x, draft.layer.attn(draft.layer.attn_norm(x), rope, bias))
        h = draft.layer.mlp_norm(r)
        wide = T.matmul(T.mul(T.silu(T.matmul(h, draft.layer.mlp.gate.weight)),
                              T.matmul(h, draft.layer.mlp.up.weight)),
                        draft.layer.mlp.down.weight)
        m_logit = wide.data[..., :16]
        m_auto = wide.data[..., 16:]
        np.testing.assert_allclose(next_feats.data, r.data + m_auto, atol=1e-6)
        head_in = T.rms_norm(T.Tensor(r.data + m_logit), target.final_norm.weight)
        np.testing.assert_allclose(logits.data,
                                   T.matmul(head_in, target.head.weight).data, atol=1e-6)

    def test_shared_head_is_observed(self):
        _, target, draft = self._stack(seed=12)
        feats, tokens = self._inputs(4, 2)
        before = draft.forward(feats, tokens)[0].data.copy()
        target.head.weight.data[:] += 0.25
        after = draft.forward(feats, tokens)[0].data
        assert np.abs(after - before).max() > 0

    def test_unknown_variant(self):
        cfg = micro_config()
        target = M.TargetModel(cfg, seed=0)
        with pytest.raises(ConfigError):
            M.DraftModel(cfg, target, variant="bogus")

    @pytest.mark.parametrize("theirs", [dict(max_seq_len=32), dict(vocab_size=40)])
    def test_a_config_other_than_the_targets_is_refused(self, tmp_path, theirs):
        # a draft sized for another target, in memory and on disk
        mine = M.TargetModel(micro_config(n_layers=1), seed=0)
        other = M.TargetModel(micro_config(n_layers=1, **theirs), seed=0)
        with pytest.raises(ConfigError, match="is not its target's"):
            M.DraftModel(other.config, mine, seed=1)
        path = tmp_path / "d.fspd"
        M.save_checkpoint(M.DraftModel(other.config, other, seed=1), path)
        with pytest.raises(CheckpointFormatError, match="config is invalid") as info:
            M.load_checkpoint(path, target=mine)
        assert isinstance(info.value.__cause__, ConfigError)


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
    def test_load_draws_no_initialisation(self, tmp_path, monkeypatch):
        target = M.TargetModel(micro_config(), seed=15)
        M.save_checkpoint(target, tmp_path / "target.fspd")
        M.save_checkpoint(M.DraftModel(target.config, target, seed=16), tmp_path / "draft.fspd")

        def no_draws(seed=None):
            raise AssertionError("a load drew a random initialisation")

        monkeypatch.setattr(M.np.random, "default_rng", no_draws)
        loaded = M.load_checkpoint(tmp_path / "target.fspd")
        M.load_checkpoint(tmp_path / "draft.fspd", target=loaded)
        zeros = M.TargetModel(target.config, seed=None)  # the norms' weights start at 1
        assert not any(p.data.any() for p in zeros.parameters() if p.data.ndim > 1)

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


WEIGHTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "weights")
LAYER_NAMES = ("attn_norm", "attn.wq", "attn.wk", "attn.wv", "attn.wo", "mlp_norm",
               "mlp.gate", "mlp.up", "mlp.down")


class TestStackedQkv:
    """Q, K and V live in one (3, hidden, hidden) parameter per layer;
    ``attn.wq`` / ``.wk`` / ``.wv`` are live views of its slabs."""

    @pytest.fixture(autouse=True)
    def inference_mode(self):  # these tests record gradients
        T.clear_tape()
        yield
        T.clear_tape()

    def test_names_order_and_shapes(self):
        cfg = micro_config(n_layers=3)
        target = M.TargetModel(cfg, seed=30)
        named = target.named_tensors()
        assert list(named) == ["embed.weight", "final_norm.weight", "head.weight"] + [
            f"layers.{i}.{n}.weight" for i in range(3) for n in LAYER_NAMES]
        for i in range(3):
            for n in ("wq", "wk", "wv", "wo"):
                assert named[f"layers.{i}.attn.{n}.weight"].data.shape == (16, 16)
        draft = M.DraftModel(cfg, target, seed=31)
        assert list(draft.named_tensors()) == [
            "connector.up.weight", "connector.gate.weight", "connector.down.weight"] + [
            f"layer.{n}.weight" for n in LAYER_NAMES]

    def test_parameters_hold_each_stack_once(self):
        target = M.TargetModel(micro_config(), seed=32)
        params = target.parameters()
        stacks = [layer.attn.wqkv for layer in target.layers]
        # the three views of each of the two layers stand for one stack
        assert len({id(p) for p in params}) == len(params) == len(target.named_tensors()) - 2 * 2
        assert all(isinstance(p, T.Tensor) for p in params)
        assert [p for p in params if p.data.shape == (3, 16, 16)] == stacks

    def test_init_matches_three_separate_draws(self):
        cfg = micro_config()
        attn = M.Attention(np.random.default_rng(5), cfg)
        rng = np.random.default_rng(5)
        for view in (attn.wq, attn.wk, attn.wv, attn.wo):
            np.testing.assert_array_equal(view.weight.data, M._init(rng, (16, 16)).data)

    @pytest.mark.parametrize("name", ["target.fspd", "draft_fspad.fspd"])
    def test_committed_checkpoints_resave_byte_for_byte(self, tmp_path, name):
        target = M.load_checkpoint(os.path.join(WEIGHTS, "target.fspd"))
        model = target if name == "target.fspd" else M.load_checkpoint(
            os.path.join(WEIGHTS, name), target=target)
        M.save_checkpoint(model, tmp_path / name)
        with open(os.path.join(WEIGHTS, name), "rb") as f:
            assert (tmp_path / name).read_bytes() == f.read()

    def test_writes_through_a_view_and_a_rebind_reach_the_forward(self):
        target = M.TargetModel(micro_config(), seed=33)
        tokens = np.arange(7)
        with T.no_grad():
            before = target.forward(tokens)[0].data
            flat = target.layers[0].attn.wk.weight.data.reshape(-1)
            flat[5] += 0.5
            after_write = target.forward(tokens)[0].data
            stack = target.layers[1].attn.wqkv
            stack.data = stack.data * 2.0
            after_rebind = target.forward(tokens)[0].data
        assert np.abs(after_write - before).max() > 0
        assert np.abs(after_rebind - after_write).max() > 0
        np.testing.assert_array_equal(target.layers[1].attn.wv.weight.data, stack.data[2])

    def test_view_grad_is_its_slab_of_the_stack_grad(self):
        target = M.TargetModel(micro_config(), seed=34)
        tokens = np.arange(9)[None]
        logits, _ = target.forward(tokens)
        T.backward(T.cross_entropy_labels(logits, np.roll(tokens, -1, axis=1)))
        attn = target.layers[0].attn
        assert attn.wqkv.grad.shape == (3, 16, 16)
        for i, view in enumerate((attn.wq, attn.wk, attn.wv)):
            np.testing.assert_array_equal(view.weight.grad, attn.wqkv.grad[i])
            assert np.abs(view.weight.grad).max() > 0

    def test_stack_gradient_matches_finite_differences(self):
        cfg = micro_config(n_layers=1, vocab_size=12, max_seq_len=16)
        target = M.TargetModel(cfg, seed=35)
        for p in target.parameters():
            p.data = p.data.astype(np.float64) * 4.0
        tokens = np.random.default_rng(35).integers(0, 12, size=(2, 7))

        def loss():
            T.clear_tape()
            logits, _ = target.forward(tokens)
            return T.cross_entropy_labels(logits, np.roll(tokens, -1, axis=1))

        stack = target.layers[0].attn.wqkv
        stack.grad = None
        T.backward(loss())
        analytic = stack.grad.copy()
        flat, h = stack.data.reshape(-1), 1e-6
        for idx in np.random.default_rng(36).choice(flat.size, size=12, replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss().item()
            flat[idx] = orig - h
            down = loss().item()
            flat[idx] = orig
            assert analytic.reshape(-1)[idx] == pytest.approx((up - down) / (2 * h),
                                                              rel=1e-5, abs=1e-8)
