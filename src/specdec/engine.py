"""Lossless verification and the speculative generation loop.

One step: the drafter proposes a token tree rooted at the newest
committed token, the target scores the flattened tree in a single
forward pass, acceptance walks the tree, and the caches are compacted
to the accepted path.  Every step emits at least one token (the bonus),
so generation always makes progress.

Greedy acceptance takes the child matching the target argmax at each
position (ties to the smallest token id, matching vanilla decoding).
Stochastic acceptance preserves the target distribution exactly for a
tree whose candidates are a deterministic function of the prefix: a
child is accepted with the probability the residual target distribution
assigns to its token, a rejected token's mass is removed entirely
before renormalizing, and the bonus token is drawn from the final
residual.  Under this rule the marginal law of every emitted token
equals vanilla sampling from the target.

Randomness is replayable: each generation step uses its own stream,
derived as SeedSequence(seed).spawn-style child keyed by the step index.
"""

from __future__ import annotations

import json
import time

import numpy as np

from . import tensor as T
from .errors import CapacityError, ContractError, NumericError
from .tree import build_draft_tree, chain_tree, flatten, tree_attention_mask


def step_rng(seed, step):
    """Independent generator for one generation step (documented stream rule)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(step,)))


class VerifyResult:
    """Outcome of one verification pass.

    ``accepted_path`` holds tree node indices in root-to-leaf order
    (excluding the root itself); the step emits the accepted tokens plus
    one bonus token, against exactly one target forward pass.
    """

    __slots__ = ("accepted_path", "accepted_tokens", "bonus_token", "target_forward_passes")

    def __init__(self, accepted_path, accepted_tokens, bonus_token):
        self.accepted_path = accepted_path
        self.accepted_tokens = accepted_tokens
        self.bonus_token = int(bonus_token)
        self.target_forward_passes = 1


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
    node i's position.  Children are tried in descending draft
    conditional probability; the emitted-token law does not depend on
    that order.
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
    sibling order (``TokenTree.siblings``) and returns (accepted child,
    its token) or (None, bonus token), which ends the walk.
    """
    first, nxt = tree.siblings
    path, tokens = [], []
    node = 0
    while True:
        child, token = judge(node, _children(first[node], nxt))
        if child is None:
            return VerifyResult(path, tokens, token)
        path.append(child)
        tokens.append(token)
        node = child


def _children(child, nxt):
    while child >= 0:
        yield child
        child = nxt[child]


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


class ModelDrafter:
    """Standard drafter: feature-level draft model with its own KV cache.

    The cache holds one row per fused input, built from the target's true
    features for committed positions.  The committed rows it still lacks
    ride along in the root's forward pass; the in-flight tree's rows are
    the only speculative ones and are dropped after each proposal.
    """

    def __init__(self, draft, depth=5, expand_k=8, select_m=8, budget=60):
        self.draft = draft
        self.depth = depth
        self.expand_k = expand_k
        self.select_m = select_m
        self.budget = budget
        self.passes_last = 0
        self.reset()

    def reset(self):
        self.cache = self.draft.new_cache()

    def propose(self, committed, features):
        if len(committed) < 2:
            raise ContractError("drafting needs at least two committed tokens")
        root = len(committed) - 2  # the root row fuses features[root] with committed[-1]
        have = len(self.cache)
        sync = None
        if root > have:
            sync = (np.stack(features[have:root]), committed[have + 1:root + 1])
        # the deepest node sits at position len(committed) - 1 + depth
        depth = min(self.depth, self.draft.config.max_seq_len - len(committed))
        tree, self.passes_last = build_draft_tree(
            self.draft, features[root], committed[-1],
            depth=depth, expand_k=self.expand_k, select_m=self.select_m,
            budget=self.budget, cache=self.cache, sync=sync)
        # keep the committed rows up to the root row (a true committed pair)
        self.cache.truncate(root + 1)
        return tree


class SpeculativeEngine:
    """Drives draft → verify → commit over a single sequence.

    A drafter provides ``reset()``, called once per sequence;
    ``propose(committed, features)``, which returns a TokenTree rooted at
    ``committed[-1]`` given the target features of every committed
    position but the newest (called once at least two tokens are
    committed; a tree rooted elsewhere raises ``ContractError``); and
    ``passes_last``, the draft forward passes that the latest proposal took.
    """

    def __init__(self, target, drafter):
        self.target = target
        self.drafter = drafter

    def generate(self, prompt, max_new, temperature=0.0, seed=0, eos_id=None):
        """Speculatively decode up to ``max_new`` tokens after ``prompt``.

        Returns (new_tokens, GenerationStats).  Output is token-identical
        to vanilla decoding of the target at the same temperature/seed.
        """
        _check_temperature(temperature)
        prompt = [int(t) for t in prompt]
        if not prompt:
            raise ContractError("prompt must be nonempty")
        max_len = self.target.config.max_seq_len
        if len(prompt) >= max_len:
            raise CapacityError(f"prompt of {len(prompt)} tokens does not fit context {max_len}")
        stop = min(len(prompt) + max_new, max_len)  # the committed length at which vanilla stops

        start = time.perf_counter()
        stats = GenerationStats()
        committed = list(prompt)
        with T.no_grad():
            cache = self.target.new_cache()
            features = []
            if len(committed) > 1:
                _, feats = self.target.forward(np.array(committed[:-1]), cache=cache)
                features = [feats.data[i] for i in range(len(committed) - 1)]
            self.drafter.reset()

            step = 0
            while len(committed) < stop:
                if len(committed) < 2:  # nothing to draft from: the root alone
                    tree, passes = chain_tree(committed), 0
                else:
                    tree = self.drafter.propose(committed, features)
                    passes = self.drafter.passes_last
                    if tree.tokens[0] != committed[-1]:
                        raise ContractError(f"drafted tree is rooted at token {tree.tokens[0]}, "
                                            f"not at the newest committed {committed[-1]}")
                prefix = len(cache)
                if prefix + tree.depths.max() >= max_len:
                    tree = chain_tree(committed[-1:])  # the root alone is one vanilla step
                tokens, positions, _ = flatten(tree, prefix)
                logits, node_feats = self.target.forward(
                    tokens, positions=positions, mask=tree_attention_mask(tree, prefix),
                    cache=cache)

                if temperature == 0.0:
                    result = verify_greedy(tree, logits.data)
                else:
                    probs = _temperature_probs(logits.data, temperature)
                    result = verify_stochastic(tree, probs, step_rng(seed, step))

                keep = np.concatenate([np.arange(prefix),
                                       prefix + np.array([0] + result.accepted_path, dtype=int)])
                cache.keep(keep)
                for idx in [0] + result.accepted_path:
                    features.append(node_feats.data[idx])
                committed.extend(result.accepted_tokens)
                committed.append(result.bonus_token)

                emitted_now = len(result.accepted_tokens) + 1
                stats.record_step(len(result.accepted_tokens), len(tree), passes)
                step += 1
                if eos_id is not None and eos_id in committed[-emitted_now:]:
                    del committed[committed.index(eos_id, len(committed) - emitted_now) + 1:]
                    break

        new_tokens = committed[len(prompt):stop]
        stats.emitted = len(new_tokens)
        stats.truncated = len(prompt) + len(new_tokens) >= max_len and new_tokens[-1] != eos_id
        stats.wall_ms = (time.perf_counter() - start) * 1000.0
        return new_tokens, stats


def _check_temperature(temperature):
    if not (temperature == 0.0 or 0.0 < temperature <= 2.0):
        raise ContractError(f"temperature must be 0 or in (0, 2], got {temperature}")


def _temperature_probs(logits, temperature):
    return T.softmax64(logits.astype(np.float64) / temperature)


def _sample(p, rng):
    """Inverse-CDF draw of one token from distribution ``p``, using one ``rng.random()``."""
    return min(int(np.searchsorted(np.cumsum(p), rng.random(), side="right")), len(p) - 1)


def vanilla_generate(target, prompt, max_new, temperature=0.0, seed=0, eos_id=None):
    """Plain autoregressive decoding; the reference arm for losslessness.

    Uses the same per-step stream rule as the speculative path.  Returns
    (new_tokens, GenerationStats) with one target pass per emitted token.
    """
    _check_temperature(temperature)
    prompt = [int(t) for t in prompt]
    if not prompt:
        raise ContractError("prompt must be nonempty")
    max_len = target.config.max_seq_len
    if len(prompt) >= max_len:
        raise CapacityError(f"prompt of {len(prompt)} tokens does not fit context {max_len}")
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
        self.passes_last = 0

    def reset(self):
        pass

    def propose(self, committed, features):
        chain = []
        for _ in range(self.depth):
            chain.append(self.next_token_fn(committed, chain))
        return chain_tree(committed[-1:] + chain)


class OracleChainDrafter:
    """Perfect drafter: re-derives the target's own greedy continuation.

    Each proposal decodes ``depth`` tokens from scratch with a private
    cache, so it is slow; intended only for ceiling measurements.
    """

    def __init__(self, target, depth=5):
        self.target = target
        self.depth = depth
        self.passes_last = 0

    def reset(self):
        pass

    def propose(self, committed, features):
        with T.no_grad():
            chain, _ = vanilla_generate(self.target, committed, self.depth, temperature=0.0)
        return chain_tree(committed[-1:] + chain)
