"""Lossless verification and the speculative generation loop.

One step: the drafter proposes a token tree rooted at the newest
committed token and no deeper than the room left before ``max_seq_len``,
the target scores every tree node in a single forward pass, acceptance
walks the tree, and the caches are compacted to the accepted path.
Every step emits at least one token (the bonus), so generation always
makes progress.

Acceptance is one rule at every temperature.  At each node of the walk
the target names one token: its argmax at temperature 0 (ties to the
smallest token id), and otherwise one inverse-CDF draw from its
temperature distribution.  The walk moves to the first child, in index
order, that carries that token, and ends with it as the bonus token when
no child does.  Each emitted token is therefore the token vanilla
decoding names at that position from the same uniform (up to float32
rounding between the verify forward's distribution and vanilla's), and
for a tree built without the target's draws every emitted token has
exactly the target's law (speculative sampling with a point-mass draft).

Randomness is replayable and shared by both decoders: emitted token t
(counted from the end of the prompt) takes the first ``random()`` of
``step_rng(seed, t)``, whatever the tree.
"""

from __future__ import annotations

import itertools
import json
import numbers
import time

import numpy as np

from . import tensor as T
from .errors import CapacityError, ContractError
from .tree import COSTS, build_draft_tree, chain_tree, tree_attention_mask


def step_rng(seed, step):
    """Independent generator for emitted token ``step`` (documented stream rule)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(step,)))


def draws(seed, first=0):
    """The uniforms of emitted tokens t = first, first + 1, ...: the first
    ``random()`` of ``step_rng(seed, t)`` each."""
    for t in itertools.count(first):
        yield step_rng(seed, t).random()


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
    return _walk(tree, lambda node: int(np.argmax(node_logits[node])))


def verify_stochastic(tree, node_probs, uniforms):
    """Distribution-preserving acceptance for a tree built without the
    target's draws.

    ``node_probs[i]`` is the (temperature-scaled) target distribution at
    node i's position, and ``uniforms`` yields one uniform in [0, 1) per
    emitted token (``draws``): each names the token by an inverse-CDF draw.
    """
    zero = np.flatnonzero(tree.cond_probs[1:] <= 0.0)
    if zero.size:
        raise ContractError(f"drafted child token {tree.tokens[zero[0] + 1]} carries zero "
                            f"draft probability")
    return _walk(tree, lambda node: _sample(node_probs[node], next(uniforms)))


def _walk(tree, pick):
    """The acceptance walk both verifiers share.

    From the root, ``pick(node)`` names the target's token at ``node``; the
    walk moves to the first child (in index order) that carries it, or ends
    with it as the bonus token.
    """
    path, tokens = [], []
    node = 0
    while True:
        token = pick(node)
        children = np.flatnonzero((tree.parents == node) & (tree.tokens == token))
        if not children.size:
            return VerifyResult(path, tokens, token)
        node = int(children[0])
        path.append(node)
        tokens.append(token)


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

    Each proposal hands ``build_draft_tree`` the committed draft rows,
    target feature i fused with committed token i + 1, and the draft's
    cache; the builder runs the rows the cache lacks and leaves it holding
    exactly the committed rows.

    Trees are priced by ``latency``, the committed ``tree.COSTS`` unless an
    instance is given another table, so each tree is a function of the
    prefix alone; ``depth``, ``expand_k``, ``select_m`` and ``budget`` cap
    them (``bench.DraftingConfig`` holds their defaults).
    """

    latency = COSTS

    def __init__(self, draft, *, depth, expand_k, select_m, budget):
        self.draft = draft
        self.depth = depth
        self.expand_k = expand_k
        self.select_m = select_m
        self.budget = budget
        self.reset()

    def reset(self):
        self.cache = self.draft.new_cache()

    def propose(self, committed, features, max_depth):
        if len(committed) < 2:  # no committed feature to draft from: the root alone
            return chain_tree(committed[-1:]), 0
        return build_draft_tree(
            self.draft, features, committed[1:],
            depth=min(self.depth, max_depth), expand_k=self.expand_k, select_m=self.select_m,
            budget=self.budget, latency=self.latency, cache=self.cache)


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
        to vanilla decoding of the target at the same temperature and seed
        (at temperature > 0, up to float32 rounding at a CDF boundary).
        """
        max_len = self.target.config.max_seq_len
        prompt = _admit(prompt, max_new, temperature, self.target.config)
        stop = min(len(prompt) + max_new, max_len)  # the committed length at which vanilla stops

        start = time.perf_counter()
        stats = GenerationStats()
        committed = list(prompt)
        cache = self.target.new_cache()
        features = np.empty((max_len, self.target.config.hidden_size), dtype=np.float32)
        if len(prompt) > 1:  # a one-token prompt has nothing to prefill
            _, feats = self.target.forward(np.array(prompt[:-1]), cache=cache)
            features[:len(prompt) - 1] = feats.data
        self.drafter.reset()

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
            logits, node_feats = self.target.forward(tree.tokens, mask=tree_attention_mask(tree),
                                                     cache=cache)

            if temperature == 0.0:
                result = verify_greedy(tree, logits.data)
            else:
                probs = _temperature_probs(logits.data, temperature)
                result = verify_stochastic(tree, probs, draws(seed, len(committed) - len(prompt)))

            rows = [0] + result.accepted_path
            cache.keep(prefix, prefix + np.array(rows))
            features[prefix:prefix + len(rows)] = node_feats.data[rows]
            committed.extend(result.accepted_tokens)
            committed.append(result.bonus_token)

            stats.record_step(len(result.accepted_tokens), len(tree), passes)
            if eos_id is not None and eos_id in committed[-len(rows):]:  # the emitted tokens
                del committed[committed.index(eos_id, len(committed) - len(rows)) + 1:]
                break

        new_tokens = committed[len(prompt):stop]
        stats.emitted = len(new_tokens)
        stats.truncated = len(prompt) + len(new_tokens) >= max_len and new_tokens[-1] != eos_id
        stats.wall_ms = (time.perf_counter() - start) * 1000.0
        return new_tokens, stats


def temperature_ok(temperature):
    """A decoding temperature is 0 (greedy) or a real number in (0, 2];
    a bool is none, and neither is NaN."""
    return (isinstance(temperature, numbers.Real) and not isinstance(temperature, bool)
            and (temperature == 0.0 or 0.0 < temperature <= 2.0))


def _admit(prompt, max_new, temperature, config):
    """The request checks both decoders share; returns the prompt as ints."""
    if not temperature_ok(temperature):
        raise ContractError(f"temperature must be 0 or in (0, 2], got {temperature}")
    if not _count_ok(max_new) or max_new < 0:
        raise ContractError(f"max_new must be an integer >= 0, got {max_new!r}")
    prompt, vocab, max_len = list(prompt), config.vocab_size, config.max_seq_len
    bad = [t for t in prompt if not _count_ok(t) or not 0 <= t < vocab]
    if bad:
        raise ContractError(f"prompt id {bad[0]!r} is not an integer in [0, {vocab})")
    if not prompt:
        raise ContractError("prompt must be nonempty")
    if len(prompt) >= max_len:
        raise CapacityError(f"prompt of {len(prompt)} tokens does not fit context {max_len}")
    return [int(t) for t in prompt]


def _count_ok(value):
    """An integer that is not a bool: a token id or a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _temperature_probs(logits, temperature):
    return T.KERNELS.softmax(logits.astype(np.float64) / temperature)


def _sample(p, u):
    """Inverse-CDF draw of one token from distribution ``p`` at the uniform ``u``."""
    return min(int(np.searchsorted(np.cumsum(p), u, side="right")), len(p) - 1)


def vanilla_generate(target, prompt, max_new, temperature=0.0, seed=0, eos_id=None):
    """Plain autoregressive decoding; the reference arm for losslessness.

    Token t takes its uniform from ``draws(seed)``, as the speculative
    path does.  Returns (new_tokens, GenerationStats) with one target pass
    per emitted token.
    """
    max_len = target.config.max_seq_len
    prompt = _admit(prompt, max_new, temperature, target.config)
    start = time.perf_counter()
    stats = GenerationStats()
    out = []
    cache = target.new_cache()
    logits, _ = target.forward(np.array(prompt), cache=cache)
    row = logits.data[-1]
    uniforms = draws(seed)
    for _ in range(max_new):
        if temperature == 0.0:
            tok = int(np.argmax(row))
        else:
            tok = _sample(_temperature_probs(row[None], temperature)[0], next(uniforms))
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
        chain, _ = vanilla_generate(self.target, committed, min(self.depth, max_depth))
        return chain_tree(committed[-1:] + chain), 0
