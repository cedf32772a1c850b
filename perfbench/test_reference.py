"""The float64 reference against the program, on random micro configs.

    python3 -m pytest -q perfbench/test_reference.py

Weights are spread well beyond their init scale so that logits are far
from uniform and the greedy comparison has something to decide.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference as R  # noqa: E402
from specdec import engine as E  # noqa: E402
from specdec import model as M  # noqa: E402
from specdec import tensor as T  # noqa: E402
from specdec import training as TR  # noqa: E402

# float32 forward against float64: relative error of a few float32 ulps,
# grown by the depth of the stack.
RTOL = 2e-4
TIE_TOL = 1e-3


def _micro(seed):
    rng = np.random.default_rng(seed)
    heads = int(rng.choice([1, 2, 4]))
    hidden = heads * int(rng.choice([4, 8]))
    cfg = M.ModelConfig(vocab_size=int(rng.integers(40, 100)), hidden_size=hidden,
                        intermediate_size=hidden * int(rng.integers(1, 4)),
                        n_layers=int(rng.integers(1, 4)), n_heads=heads, max_seq_len=64,
                        rope_base=float(rng.choice([50.0, 10000.0])))
    return rng, cfg


def _spread(model, rng):
    for t in model.parameters():
        t.data = (t.data * rng.uniform(3.0, 12.0)).astype(np.float32)


def _round_trip(model, path, target=None):
    M.save_checkpoint(model, path)
    meta, weights = R.read_fspd(path)
    assert meta["kind"] == ("target" if target is None else "draft")
    return meta, weights


@pytest.mark.parametrize("seed", range(6))
def test_target_forward_and_greedy_tokens(tmp_path, seed):
    rng, cfg = _micro(seed)
    target = M.TargetModel(cfg, seed=seed)
    _spread(target, rng)
    meta, tw = _round_trip(target, tmp_path / "target.fspd")

    tokens = rng.integers(0, cfg.vocab_size, size=int(rng.integers(2, 40)))
    with T.no_grad():
        logits, feats = target.forward(tokens)
    ref_logits, ref_feats = R.target_forward(tw, meta["config"], tokens)
    scale = np.abs(ref_logits).max()
    np.testing.assert_allclose(logits.data, ref_logits, rtol=RTOL, atol=RTOL * scale)
    np.testing.assert_allclose(feats.data, ref_feats, rtol=RTOL,
                               atol=RTOL * np.abs(ref_feats).max())

    prompt = [int(t) for t in tokens[:8]]
    out, _ = E.vanilla_generate(target, prompt, 24)
    mismatches, _ = R.greedy_mismatches(tw, meta["config"], prompt, out, TIE_TOL)
    assert mismatches == 0


@pytest.mark.parametrize("variant", M.VARIANTS)
@pytest.mark.parametrize("seed", range(2))
def test_draft_composite_loss(tmp_path, variant, seed):
    rng, cfg = _micro(100 + seed)
    target = M.TargetModel(cfg, seed=seed)
    _spread(target, rng)
    draft = M.DraftModel(cfg, target, variant=variant, seed=seed + 1)
    _spread(draft, rng)
    meta, tw = _round_trip(target, tmp_path / "target.fspd")
    dmeta, dw = _round_trip(draft, tmp_path / "draft.fspd", target=target)
    assert dmeta["variant"] == variant

    docs = []
    for _ in range(5):
        n = int(rng.integers(6, 30))
        docs.append((rng.integers(0, cfg.vocab_size, size=n), int(rng.integers(1, n - 2))))
    tokens, valid, response = R.pad_batch(docs, seq_len=20)
    with T.no_grad():
        loss, _, _, _ = TR.draft_batch_losses(target, draft, tokens, valid, response, 0.1)
    want = R.draft_composite_loss(tw, dw, meta["config"], variant, tokens, valid, response, 0.1)
    assert loss.item() == pytest.approx(want, rel=RTOL)


def test_sampled_loglik_is_a_distribution(tmp_path):
    rng, cfg = _micro(7)
    target = M.TargetModel(cfg, seed=7)
    _spread(target, rng)
    meta, tw = _round_trip(target, tmp_path / "target.fspd")
    prompt = [1, 2, 3]
    # summing exp(loglik) over every candidate next token gives 1
    total = sum(np.exp(R.token_loglik(tw, meta["config"], prompt, [v], 0.7)[0])
                for v in range(cfg.vocab_size))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_reader_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.fspd"
    path.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(ValueError):
        R.read_fspd(path)
    _, cfg = _micro(3)
    M.save_checkpoint(M.TargetModel(cfg, seed=0), path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError):
        R.read_fspd(path)
