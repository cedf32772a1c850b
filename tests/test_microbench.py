"""Micro-benchmarks of the inference hot paths on a toy-size stack (hidden
128, 4 layers, vocab 512, random weights), of one draft-training step on
the tape, and of the set-up paths that tokenize prompts and a training
corpus with the committed benchmark tokenizer, with pytest-benchmark.

They assert nothing about time: a few rounds each keep the tier-1 run
short, and the table pytest-benchmark prints is the record.  For steadier
figures, run this file alone with ``OPENBLAS_NUM_THREADS=1`` and raise
``rounds``.
"""

import os

import numpy as np
import pytest

from specdec import corpus as C
from specdec import engine as E
from specdec import model as M
from specdec import tensor as T
from specdec import tokenizer as TK
from specdec import training as TR
from specdec.bench import DraftingConfig
from specdec.tree import COSTS, build_draft_tree

PREFIX = 30  # cached rows in front of the timed target forward
TOKENIZER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "weights", "tokenizer.json")


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
    logits, _ = benchmark.pedantic(draft.forward, args=(feats, tokens), rounds=20)
    assert logits.shape == (1, 8, config.vocab_size)


def default_preset_tree(draft, config):
    preset = DraftingConfig()
    feature = np.random.default_rng(9).normal(size=config.hidden_size).astype(np.float32)
    kw = dict(depth=preset.depth, expand_k=preset.expand_k, select_m=preset.select_m,
              budget=preset.budget)
    return (draft, feature[None], [5]), kw


def test_build_draft_tree_default_preset(benchmark, stack):
    config, _, draft = stack
    args, kw = default_preset_tree(draft, config)
    tree, passes = benchmark.pedantic(build_draft_tree, args=args, kwargs=kw, rounds=5)
    assert len(tree) == DraftingConfig().budget + 1 and passes == DraftingConfig().depth


def test_build_draft_tree_committed_costs(benchmark, stack):
    # the default preset's caps, priced by the committed cost table
    config, _, draft = stack
    args, kw = default_preset_tree(draft, config)
    kw["latency"] = COSTS
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
              "stochastic": lambda: E.verify_stochastic(tree, probs, iter(rng.random, None))}[walk]

    result = benchmark.pedantic(verify, rounds=50)
    assert len(tree) == 61 and result.bonus_token >= 0


@pytest.fixture(scope="module")
def merges():
    return TK.Tokenizer.load(TOKENIZER).merges


def test_encode_short_prompts(benchmark, merges):
    # 32 prompts per task, each round with a fresh tokenizer (an empty memo)
    prompts = [p for task in C.TASKS for p in C.task_prompts(task, 32, seed=1)]

    def encode_all(tok):
        return [tok.encode(p, add_bos=True) for p in prompts]

    def fresh():
        return (TK.Tokenizer(merges),), {}

    ids = benchmark.pedantic(encode_all, setup=fresh, rounds=5)
    assert len(ids) == 3 * 32 and all(len(i) > 1 for i in ids)


def test_tokenized_corpus_build(benchmark, merges):
    docs = C.synthesize_documents(640, seed=1)

    def fresh():
        return (docs, TK.Tokenizer(merges), 512), {"seed": 0}

    corpus = benchmark.pedantic(TR.TokenizedCorpus.build, setup=fresh, rounds=3)
    assert corpus.train_docs


class TestTraining:
    @pytest.fixture(autouse=True)
    def inference_mode(self):  # training records the tape
        T.clear_tape()
        yield
        T.clear_tape()

    def test_train_draft_step_16x96(self, benchmark, merges):
        # one teacher forward, tape forward and backward, and AdamW step
        config = M.ModelConfig()
        corpus = TR.TokenizedCorpus.build(C.synthesize_documents(160, seed=2),
                                          TK.Tokenizer(merges), config.max_seq_len, seed=0)
        cfg = TR.TrainConfig(draft_steps=1, batch_size=16, seq_len=96, seed=0)
        target = M.TargetModel(config, seed=0)
        draft = benchmark.pedantic(TR.train_draft, args=(target, corpus, cfg), rounds=3)
        assert draft.layer.attn.wqkv.data.shape == (3, config.hidden_size, config.hidden_size)
