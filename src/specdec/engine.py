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
from .model import allowed_to_bias, causal_bias
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
    path, tokens = [], []
    cur = 0
    while True:
        want = int(np.argmax(node_logits[cur]))
        step = None
        for child in tree.children(cur):
            if tree.nodes[child].token == want:
                step = child
                break
        if step is None:
            return VerifyResult(path, tokens, want)
        path.append(step)
        tokens.append(want)
        cur = step


def verify_stochastic(tree, node_probs, rng):
    """Distribution-preserving acceptance for a deterministic candidate tree.

    ``node_probs[i]`` is the (temperature-scaled) target distribution at
    node i's position.  Children are tried in descending draft
    conditional probability; the emitted-token law does not depend on
    that order.
    """
    path, tokens = [], []
    cur = 0
    while True:
        p = node_probs[cur].astype(np.float64).copy()
        accepted = None
        children = sorted(tree.children(cur),
                          key=lambda i: (-tree.nodes[i].cond_prob, tree.nodes[i].token))
        for child in children:
            node = tree.nodes[child]
            if node.cond_prob <= 0.0:
                raise ContractError(
                    f"drafted child token {node.token} carries zero draft probability"
                )
            mass = p[node.token]
            if rng.random() < mass:
                accepted = child
                break
            p[node.token] = 0.0
            total = p.sum()
            if total <= 0.0:
                raise NumericError("residual distribution vanished during verification")
            p /= total
        if accepted is None:
            return VerifyResult(path, tokens, _sample(p, rng))
        path.append(accepted)
        tokens.append(tree.nodes[accepted].token)
        cur = accepted


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

    The cache holds one row per fused input; rows for committed
    positions are rebuilt from the target's true features, so the only
    speculative rows are the in-flight tree's, which are dropped after
    each proposal.
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
        self.synced = 0

    def _sync(self, committed, features):
        """Bring the cache up to one fused row short of the root row."""
        upto = len(committed) - 2
        if upto <= self.synced:
            return 0
        idx = np.arange(self.synced, upto)
        feats = np.stack([features[i] for i in idx])
        toks = np.array([committed[i + 1] for i in idx])
        embeds = T.embedding(self.draft.embed, toks)
        fused = self.draft.fuse(T.Tensor(feats), embeds)
        n = len(idx)
        self.draft.forward(fused, positions=idx,
                           attn_bias=causal_bias(n, self.synced + n), cache=self.cache)
        self.synced = upto
        return 1

    def propose(self, committed, features):
        if len(committed) < 2:
            raise ContractError("drafting needs at least two committed tokens")
        passes = self._sync(committed, features)
        tree, tree_passes = build_draft_tree(
            self.draft, features[len(committed) - 2], committed[-1],
            depth=self.depth, expand_k=self.expand_k, select_m=self.select_m,
            budget=self.budget, cache=self.cache, prefix_len=self.synced)
        # keep only the root row (a true committed pair); drop speculative rows
        self.cache.truncate(self.synced + 1)
        self.synced += 1
        self.passes_last = passes + tree_passes
        return tree


class SpeculativeEngine:
    """Drives draft → verify → commit over a single sequence.

    A drafter provides ``reset()``, called once per sequence;
    ``propose(committed, features)``, which returns a TokenTree rooted at
    ``committed[-1]`` given the target features of every committed
    position but the newest; and ``passes_last``, the draft forward
    passes that the latest proposal took.
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
        if len(prompt) < 2:
            raise ContractError("prompt must hold at least two tokens (lead with BOS)")
        max_len = self.target.config.max_seq_len
        if len(prompt) >= max_len:
            raise CapacityError(f"prompt of {len(prompt)} tokens does not fit context {max_len}",
                                partial_tokens=[])
        stop = min(len(prompt) + max_new, max_len)  # the committed length at which vanilla stops

        start = time.perf_counter()
        stats = GenerationStats()
        committed = list(prompt)
        with T.no_grad():
            cache = self.target.new_cache()
            _, feats = self.target.forward(np.array(committed[:-1]), cache=cache)
            features = [feats.data[i] for i in range(len(committed) - 1)]
            self.drafter.reset()

            step = 0
            while len(committed) < stop:
                tree = self.drafter.propose(committed, features)
                prefix = len(cache)
                if prefix + max(n.depth for n in tree.nodes) >= max_len:
                    tree = chain_tree(committed[-1:])  # the root alone is one vanilla step
                tokens, positions, _ = flatten(tree, prefix)
                bias = allowed_to_bias(tree_attention_mask(tree, prefix))
                logits, node_feats = self.target.forward(
                    tokens, positions=positions, attn_bias=bias, cache=cache)

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
                stats.record_step(len(result.accepted_tokens), len(tree), self.drafter.passes_last)
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
        raise CapacityError(f"prompt of {len(prompt)} tokens does not fit context {max_len}",
                            partial_tokens=[])
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
