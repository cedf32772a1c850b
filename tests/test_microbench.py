"""Micro-benchmarks of the inference hot paths on a toy-size stack (hidden
128, 4 layers, vocab 512, random weights), with pytest-benchmark.

They assert nothing about time: a few rounds each keep the tier-1 run
short, and the table pytest-benchmark prints is the record.  For steadier
figures, run this file alone with ``OPENBLAS_NUM_THREADS=1`` and raise
``rounds``.
"""

import numpy as np
import pytest

from specdec import engine as E
from specdec import model as M
from specdec import tensor as T
from specdec.bench import DraftingConfig
from specdec.tree import build_draft_tree

PREFIX = 30  # cached rows in front of the timed target forward


@pytest.fixture(scope="module")
def stack():
    config = M.ModelConfig()
    target = M.TargetModel(config, seed=0)
    return config, target, M.DraftModel(config, target, seed=1)


@pytest.fixture(autouse=True)
def inference_mode():
    with T.no_grad():
        yield


@pytest.mark.parametrize("rows", [1, 8, 61])
def test_target_forward_against_cache(benchmark, stack, rows):
    config, target, _ = stack
    rng = np.random.default_rng(rows)
    prefix = rng.integers(0, config.vocab_size, size=PREFIX)
    tokens = rng.integers(0, config.vocab_size, size=rows)

    def cached():
        cache = target.new_cache()
        target.forward(prefix, cache=cache)
        return (tokens,), {"cache": cache}

    logits, _ = benchmark.pedantic(target.forward, setup=cached, rounds=20)
    assert logits.shape == (rows, config.vocab_size)


def test_target_forward_batch_16x97(benchmark, stack):
    # the teacher forward of one draft-training batch
    config, target, _ = stack
    tokens = np.random.default_rng(97).integers(0, config.vocab_size, size=(16, 97))
    logits, _ = benchmark.pedantic(target.forward, args=(tokens,), rounds=5)
    assert logits.shape == (16, 97, config.vocab_size)


def test_target_prefill_320_rows(benchmark, stack):
    config, target, _ = stack
    tokens = np.random.default_rng(320).integers(0, config.vocab_size, size=320)

    def empty_cache():
        return (tokens,), {"cache": target.new_cache()}

    logits, _ = benchmark.pedantic(target.forward, setup=empty_cache, rounds=5)
    assert logits.shape == (320, config.vocab_size)


def test_draft_forward_8_rows(benchmark, stack):
    config, _, draft = stack
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(1, 8, config.hidden_size)).astype(np.float32)
    tokens = rng.integers(0, config.vocab_size, size=(1, 8))
    out = benchmark.pedantic(draft.forward, args=(feats, tokens), rounds=20)
    assert out.logits.shape == (1, 8, config.vocab_size)


def default_preset_tree(draft, config):
    preset = DraftingConfig()
    feature = np.random.default_rng(9).normal(size=config.hidden_size).astype(np.float32)
    kw = dict(depth=preset.depth, expand_k=preset.expand_k, select_m=preset.select_m,
              budget=preset.budget)
    return (draft, feature, 5), kw


def test_build_draft_tree_default_preset(benchmark, stack):
    config, _, draft = stack
    args, kw = default_preset_tree(draft, config)
    tree, passes = benchmark.pedantic(build_draft_tree, args=args, kwargs=kw, rounds=5)
    assert len(tree) == DraftingConfig().budget + 1 and passes == DraftingConfig().depth


@pytest.mark.measured_latency
def test_build_draft_tree_measured_table(benchmark, stack):
    # the default preset's caps, sized by this process's measured table
    config, _, draft = stack
    args, kw = default_preset_tree(draft, config)
    kw["latency"] = E.latency_table(draft.target)
    tree, passes = benchmark.pedantic(build_draft_tree, args=args, kwargs=kw, rounds=5)
    assert len(tree) <= DraftingConfig().budget + 1 and 1 <= passes <= DraftingConfig().depth


@pytest.mark.parametrize("walk", ["greedy", "stochastic"])
def test_verify_walk_default_preset(benchmark, stack, walk):
    config, _, draft = stack
    args, kw = default_preset_tree(draft, config)
    tree, _ = build_draft_tree(*args, **kw)
    # target rows that favour each node's first child, so the walk goes deep
    parents, first_index = np.unique(tree.parents[1:], return_index=True)
    first = np.zeros(len(tree), dtype=np.int64)  # a leaf favours token 0
    first[parents] = tree.tokens[1 + first_index]
    logits = np.zeros((len(tree), config.vocab_size))
    logits[np.arange(len(tree)), first] = 8.0
    probs, rng = E._temperature_probs(logits, 1.0), np.random.default_rng(0)
    verify = {"greedy": lambda: E.verify_greedy(tree, logits),
              "stochastic": lambda: E.verify_stochastic(tree, probs, rng)}[walk]

    result = benchmark.pedantic(verify, rounds=50)
    assert len(tree) == 61 and result.bonus_token >= 0
