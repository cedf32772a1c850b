"""Lossless verification and the speculative generation loop.

One step: the drafter proposes a token tree rooted at the newest
committed token and no deeper than the room left before ``max_seq_len``,
the target scores every tree node in a single forward pass, acceptance
walks the tree, and the caches are compacted to the accepted path.
Every step emits at least one token (the bonus), so generation always
makes progress.

Both acceptance rules try a node's children in index order, the order
the drafter created them in.  Greedy acceptance takes the child matching
the target argmax at each position (ties to the smallest token id,
matching vanilla decoding).  Stochastic acceptance preserves the target
distribution exactly for a tree whose candidates are a deterministic
function of the prefix: a child is accepted with the probability the
residual target distribution assigns to its token, a rejected token's
mass is removed entirely before renormalizing, and the bonus token is
drawn from the final residual.  Under this rule the marginal law of
every emitted token equals vanilla sampling from the target.

Randomness is replayable: each generation step uses its own stream,
derived as SeedSequence(seed).spawn-style child keyed by the step index.
"""

from __future__ import annotations

import json
import time

import numpy as np

from . import tensor as T
from .errors import CapacityError, ContractError, NumericError
from .model import DraftModel
from .tree import LatencyTable, build_draft_tree, chain_tree, tree_attention_mask


def step_rng(seed, step):
    """Independent generator for one generation step (documented stream rule)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(step,)))


class VerifyResult:
    """Outcome of one verification pass.

    ``accepted_path`` holds tree node indices in root-to-leaf order
    (excluding the root itself); the step emits the accepted tokens plus
    one bonus token, against exactly one target forward pass.
    """

    __slots__ = ("accepted_path", "accepted_tokens", "bonus_token")

    def __init__(self, accepted_path, accepted_tokens, bonus_token):
        self.accepted_path = accepted_path
        self.accepted_tokens = accepted_tokens
        self.bonus_token = int(bonus_token)


def verify_greedy(tree, node_logits):
    """Exact-match acceptance against target argmax rows.

    ``node_logits[i]`` are the target logits at tree node i's position;
    row 0 is the committed-context (root) row.
    """
    tokens = tree.tokens.tolist()

    def judge(node, children):
        want = int(np.argmax(node_logits[node]))
        for child in children:
            if tokens[child] == want:
                return child, want
        return None, want

    return _walk(tree, judge)


def verify_stochastic(tree, node_probs, rng):
    """Distribution-preserving acceptance for a deterministic candidate tree.

    ``node_probs[i]`` is the (temperature-scaled) target distribution at
    node i's position.  Children are tried in index order; the
    emitted-token law does not depend on that order.
    """
    tokens, cond = tree.tokens.tolist(), tree.cond_probs.tolist()

    def judge(node, children):
        p = node_probs[node].astype(np.float64)
        for child in children:
            tok = tokens[child]
            if cond[child] <= 0.0:
                raise ContractError(f"drafted child token {tok} carries zero draft probability")
            if rng.random() < p[tok]:
                return child, tok
            p[tok] = 0.0
            total = p.sum()
            if total <= 0.0:
                raise NumericError("residual distribution vanished during verification")
            p /= total
        return None, _sample(p, rng)

    return _walk(tree, judge)


def _walk(tree, judge):
    """The acceptance walk both verifiers share.

    From the root, ``judge(node, children)`` gets the node's children in
    index order and returns (accepted child, its token) or (None, bonus
    token), which ends the walk.
    """
    path, tokens = [], []
    node = 0
    while True:
        child, token = judge(node, np.flatnonzero(tree.parents == node).tolist())
        if child is None:
            return VerifyResult(path, tokens, token)
        path.append(child)
        tokens.append(token)
        node = child


class GenerationStats:
    """Per-step bookkeeping for one generation run."""

    def __init__(self):
        self.accepted_lengths = []
        self.tree_sizes = []
        self.draft_passes = 0
        self.target_passes = 0
        self.emitted = 0
        self.truncated = False
        self.wall_ms = 0.0

    def record_step(self, accepted, tree_size, draft_passes):
        self.accepted_lengths.append(accepted)
        self.tree_sizes.append(tree_size)
        self.draft_passes += draft_passes
        self.target_passes += 1

    def tau(self):
        return self.emitted / self.target_passes if self.target_passes else 0.0

    def to_json(self):
        return json.dumps({
            "accepted_lengths": self.accepted_lengths,
            "tree_sizes": self.tree_sizes,
            "draft_passes": self.draft_passes,
            "target_passes": self.target_passes,
            "emitted": self.emitted,
            "truncated": self.truncated,
            "wall_ms": self.wall_ms,
        }, sort_keys=True)


_LATENCY = {}  # target config -> LatencyTable, measured once per process
LATENCY_ROWS = (1, 8, 64)
LATENCY_PREFIX = 64
LATENCY_REPEATS = 7


def latency_table(target):
    """The ``LatencyTable`` of ``target``, measured on the first call for
    its config and reused after, by every draft of that target."""
    key = json.dumps(target.config.to_dict(), sort_keys=True)
    if key not in _LATENCY:
        _LATENCY[key] = measure_latency(target)
    return _LATENCY[key]


def measure_latency(target):
    """The median of ``LATENCY_REPEATS`` timings of a target verify forward
    and of a draft pass of each of ``LATENCY_ROWS`` rows, on random inputs,
    against caches of ``LATENCY_PREFIX`` rows.

    The draft is a fresh default-variant ``DraftModel`` of the target's
    config, so that the table is one function of the target config and
    every draft variant of an ablation is priced alike (on the benchmark
    weights, the variants' draft passes differ by up to 20%).
    """
    config = target.config
    draft = DraftModel(config, target, seed=0)
    prefix = min(LATENCY_PREFIX, config.max_seq_len - 1)
    rng = np.random.default_rng(0)
    times = np.empty((LATENCY_REPEATS, 2, len(LATENCY_ROWS)))
    with T.no_grad():
        target_cache, draft_cache = target.new_cache(), draft.new_cache()
        ids = rng.integers(0, config.vocab_size, size=prefix + 1)
        _, feats = target.forward(ids[:-1], cache=target_cache)
        draft.forward(feats.data[None], ids[None, 1:], cache=draft_cache)
        for repeat in range(LATENCY_REPEATS):
            for j, rows in enumerate(LATENCY_ROWS):
                ids = rng.integers(0, config.vocab_size, size=rows)
                feats = rng.normal(size=(1, rows, config.hidden_size)).astype(np.float32)
                at = np.full(rows, prefix)
                times[repeat, 0, j] = _timed_ms(target.forward, (ids,), at, target_cache)
                times[repeat, 1, j] = _timed_ms(draft.forward, (feats, ids[None]), at,
                                                draft_cache)
    verify, drafted = np.median(times, axis=0)
    return LatencyTable(LATENCY_ROWS, verify, drafted)


def _timed_ms(forward, inputs, positions, cache):
    """Milliseconds of one run of ``forward`` over ``inputs``, cut back out
    of ``cache`` after it."""
    length = len(cache)
    start = time.perf_counter()
    forward(*inputs, positions=positions, cache=cache)
    elapsed = time.perf_counter() - start
    cache.truncate(length)
    return 1000.0 * elapsed


class ModelDrafter:
    """Standard drafter: feature-level draft model with its own KV cache.

    The cache holds one row per fused input, built from the target's true
    features for committed positions.  The committed rows it still lacks
    ride along in the root's forward pass; the in-flight tree's rows are
    the only speculative ones and are dropped after each proposal.

    Trees are sized by ``latency``, the process's ``latency_table`` for
    the draft's target; ``depth``, ``expand_k``, ``select_m`` and
    ``budget`` cap them.
    """

    def __init__(self, draft, depth=5, expand_k=8, select_m=8, budget=60):
        self.draft = draft
        self.depth = depth
        self.expand_k = expand_k
        self.select_m = select_m
        self.budget = budget
        self.latency = latency_table(draft.target)
        self.reset()

    def reset(self):
        self.cache = self.draft.new_cache()

    def propose(self, committed, features, max_depth):
        if len(committed) < 2:  # no committed feature to draft from: the root alone
            return chain_tree(committed[-1:]), 0
        root = len(committed) - 2  # the root row fuses features[root] with committed[-1]
        have = len(self.cache)
        sync = (features[have:root], committed[have + 1:root + 1]) if root > have else None
        tree, passes = build_draft_tree(
            self.draft, features[root], committed[-1],
            depth=min(self.depth, max_depth), expand_k=self.expand_k, select_m=self.select_m,
            budget=self.budget, latency=self.latency, cache=self.cache, sync=sync)
        # keep the committed rows up to the root row (a true committed pair)
        self.cache.truncate(root + 1)
        return tree, passes


class SpeculativeEngine:
    """Drives draft → verify → commit over a single sequence.

    A drafter provides ``reset()``, called once per sequence, and
    ``propose(committed, features, max_depth) -> (tree, draft_passes)``,
    called once per step.  ``features`` holds the target features of
    every committed position but the newest, one row each, and
    ``max_depth = max_seq_len - len(committed)`` is the room left.  The
    tree must be rooted at ``committed[-1]`` and no deeper than
    ``max_depth``, or the step raises ``ContractError``; ``draft_passes``
    is the number of draft forward passes the proposal took.
    """

    def __init__(self, target, drafter):
        self.target = target
        self.drafter = drafter

    def generate(self, prompt, max_new, temperature=0.0, seed=0, eos_id=None):
        """Speculatively decode up to ``max_new`` tokens after ``prompt``.

        Returns (new_tokens, GenerationStats).  Output is token-identical
        to vanilla decoding of the target at the same temperature/seed.
        """
        max_len = self.target.config.max_seq_len
        prompt = _admit(prompt, temperature, max_len)
        stop = min(len(prompt) + max_new, max_len)  # the committed length at which vanilla stops

        start = time.perf_counter()
        stats = GenerationStats()
        committed = list(prompt)
        with T.no_grad():
            cache = self.target.new_cache()
            features = np.empty((max_len, self.target.config.hidden_size), dtype=np.float32)
            if len(prompt) > 1:  # a one-token prompt has nothing to prefill
                _, feats = self.target.forward(np.array(prompt[:-1]), cache=cache)
                features[:len(prompt) - 1] = feats.data
            self.drafter.reset()

            step = 0
            while len(committed) < stop:
                prefix = len(cache)  # == len(committed) - 1
                max_depth = max_len - len(committed)
                tree, passes = self.drafter.propose(committed, features[:prefix], max_depth)
                if tree.tokens[0] != committed[-1]:
                    raise ContractError(f"drafted tree is rooted at token {tree.tokens[0]}, "
                                        f"not at the newest committed {committed[-1]}")
                if tree.depths.max() > max_depth:
                    raise ContractError(f"drafted tree of depth {tree.depths.max()} does not fit "
                                        f"the {max_depth} positions left")
                logits, node_feats = self.target.forward(
                    tree.tokens, positions=prefix + tree.depths,
                    mask=tree_attention_mask(tree, prefix), cache=cache)

                if temperature == 0.0:
                    result = verify_greedy(tree, logits.data)
                else:
                    probs = _temperature_probs(logits.data, temperature)
                    result = verify_stochastic(tree, probs, step_rng(seed, step))

                rows = [0] + result.accepted_path
                cache.keep(np.concatenate([np.arange(prefix), prefix + np.array(rows)]))
                features[prefix:prefix + len(rows)] = node_feats.data[rows]
                committed.extend(result.accepted_tokens)
                committed.append(result.bonus_token)

                stats.record_step(len(result.accepted_tokens), len(tree), passes)
                step += 1
                if eos_id is not None and eos_id in committed[-len(rows):]:  # the emitted tokens
                    del committed[committed.index(eos_id, len(committed) - len(rows)) + 1:]
                    break

        new_tokens = committed[len(prompt):stop]
        stats.emitted = len(new_tokens)
        stats.truncated = len(prompt) + len(new_tokens) >= max_len and new_tokens[-1] != eos_id
        stats.wall_ms = (time.perf_counter() - start) * 1000.0
        return new_tokens, stats


def _admit(prompt, temperature, max_len):
    """The request checks both decoders share; returns the prompt as ints."""
    if not (temperature == 0.0 or 0.0 < temperature <= 2.0):
        raise ContractError(f"temperature must be 0 or in (0, 2], got {temperature}")
    prompt = [int(t) for t in prompt]
    if not prompt:
        raise ContractError("prompt must be nonempty")
    if len(prompt) >= max_len:
        raise CapacityError(f"prompt of {len(prompt)} tokens does not fit context {max_len}")
    return prompt


def _temperature_probs(logits, temperature):
    return T.KERNELS.softmax(logits.astype(np.float64) / temperature)


def _sample(p, rng):
    """Inverse-CDF draw of one token from distribution ``p``, using one ``rng.random()``."""
    return min(int(np.searchsorted(np.cumsum(p), rng.random(), side="right")), len(p) - 1)


def vanilla_generate(target, prompt, max_new, temperature=0.0, seed=0, eos_id=None):
    """Plain autoregressive decoding; the reference arm for losslessness.

    Uses the same per-step stream rule as the speculative path.  Returns
    (new_tokens, GenerationStats) with one target pass per emitted token.
    """
    max_len = target.config.max_seq_len
    prompt = _admit(prompt, temperature, max_len)
    start = time.perf_counter()
    stats = GenerationStats()
    out = []
    with T.no_grad():
        cache = target.new_cache()
        logits, _ = target.forward(np.array(prompt), cache=cache)
        row = logits.data[-1]
        for step in range(max_new):
            if temperature == 0.0:
                tok = int(np.argmax(row))
            else:
                tok = _sample(_temperature_probs(row[None], temperature)[0], step_rng(seed, step))
            out.append(tok)
            stats.emitted += 1
            stats.target_passes += 1
            if eos_id is not None and tok == eos_id:
                break
            if len(cache) + 1 >= max_len:
                stats.truncated = True
                break
            logits, _ = target.forward(np.array([tok]), cache=cache)
            row = logits.data[-1]
    stats.wall_ms = (time.perf_counter() - start) * 1000.0
    return out, stats


class ChainDrafter:
    """Test/diagnostic drafter proposing a fixed-policy linear chain.

    ``next_token_fn(committed, chain_so_far) -> token`` supplies each
    link; draft conditionals are reported as 1.0.
    """

    def __init__(self, next_token_fn, depth=5):
        self.next_token_fn = next_token_fn
        self.depth = depth

    def reset(self):
        pass

    def propose(self, committed, features, max_depth):
        chain = []
        for _ in range(min(self.depth, max_depth)):
            chain.append(self.next_token_fn(committed, chain))
        return chain_tree(committed[-1:] + chain), 0


class OracleChainDrafter:
    """Perfect drafter: re-derives the target's own greedy continuation.

    Each proposal decodes ``depth`` tokens from scratch with a private
    cache, so it is slow; intended only for ceiling measurements.
    """

    def __init__(self, target, depth=5):
        self.target = target
        self.depth = depth

    def reset(self):
        pass

    def propose(self, committed, features, max_depth):
        with T.no_grad():
            chain, _ = vanilla_generate(self.target, committed, min(self.depth, max_depth))
        return chain_tree(committed[-1:] + chain), 0
