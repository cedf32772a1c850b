"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the production code paths: pools are
regenerated with per-path linear decodes, masks are derived from parent
walks, subset selection is exhaustive, BPE ids and merges come from
whole-text merge passes and corpus draws from ``Generator.choice``, and
attention runs as three separate projections under an explicit bias.
"""

import itertools
import math

import numpy as np

from specdec import corpus as C
from specdec import model as M
from specdec import tensor as T
from specdec import tokenizer as TK


def logits_from_features(target, features):
    """The target's final norm and head applied to a feature Tensor."""
    ops = T.forward_ops()
    x = ops.leaf(features)
    return ops.result(target.head(target.final_norm(x, ops), ops))


def three_matmul_attention(attn, x, rope, bias, cache=None, layer_idx=0, ops=T.TAPE):
    """``M.Attention.__call__`` as three (hidden, hidden) projections, each
    split into (B, H, T, Dh) heads and q and k rotated on their own, with
    an all-zero bias built where the forward passes None.  Patched in for
    ``M.Attention.__call__``, it gives the forward values of a stack that
    keeps Q, K and V apart and rotates by four ops (no gradient reaches the
    slabs)."""
    b, t, c = x.shape
    h, dh = attn.config.n_heads, attn.config.head_dim

    def heads(proj):
        z = ops.matmul(x, ops.const(proj.weight.data))
        return ops.transpose(ops.reshape(z, (b, t, h, dh)), (0, 2, 1, 3))

    def rotate(z):
        # z * [cos, cos] + [z2, z1] * [-sin, sin], op by op
        z1, z2 = ops.index(z, (..., slice(0, dh // 2))), ops.index(z, (..., slice(dh // 2, None)))
        return ops.add(ops.mul(z, rope[0]), ops.mul(ops.concat_last([z2, z1]), rope[1]))

    q, k = rotate(heads(attn.wq)), rotate(heads(attn.wk))
    v = heads(attn.wv)
    if cache is not None:  # a forward given a cache runs on arrays
        k, v = (a[None] for a in cache.append(layer_idx, k[0], v[0]))
    if bias is None:
        bias = np.zeros((t, k.shape[2]), dtype=np.float32)
    scores = ops.matmul(q, ops.transpose(k, (0, 1, 3, 2)))
    scores = ops.scale_bias(scores, 1.0 / math.sqrt(dh), bias)
    out = ops.transpose(ops.matmul(ops.softmax(scores, axis=-1), v), (0, 2, 1, 3))
    return attn.wo(ops.reshape(out, (b, t, c)), ops)


def mask_by_parent_walk(tree, prefix_len):
    """Visibility matrix computed row by row from parent pointers."""
    n = len(tree)
    total = prefix_len + n
    mask = np.zeros((total, total), dtype=bool)
    for i in range(prefix_len):
        for j in range(i + 1):
            mask[i, j] = True
    for i in range(n):
        for j in range(prefix_len):
            mask[prefix_len + i, j] = True
        # ancestor_or_self(j, i) via an explicit chain walk from i
        walk = i
        while walk != -1:
            mask[prefix_len + i, prefix_len + walk] = True
            walk = tree.parents[walk]
    return mask


def linear_draft_probs(draft, root_feature, chain_tokens):
    """Draft conditionals along one root path, decoded with a fresh cache.

    ``chain_tokens[0]`` is the root token; returns the list of
    distributions emitted after each consumed row.
    """
    dists = []
    cache = draft.new_cache()
    feat = np.asarray(root_feature)
    with T.no_grad():
        for tok in chain_tokens:
            logits, feats = draft.forward(feat[None, None], [[tok]], cache=cache)
            dists.append(T.softmax(logits, axis=-1).data[0, 0].copy())
            feat = feats.data[0, 0]
    return dists


def enumerate_beam_pool(draft, root_feature, root_token, depth, expand_k, select_m):
    """All candidate nodes the beam policy can generate, via linear decodes.

    Nodes are dicts {token, parent, depth, cond, joint, order} where
    ``parent`` indexes this pool (-1 for children of the root) and
    ``order`` is creation order aligned with the production builder's
    level-by-level, parent-by-parent expansion.  ``select_m`` is the number
    of nodes expanded at every level after the first, or a list of those
    numbers, one per level.
    """
    pool = []
    widths = [1] + ([select_m] * (depth - 1) if isinstance(select_m, int) else list(select_m))

    def path_tokens(idx):
        toks = []
        while idx != -1:
            toks.append(pool[idx]["token"])
            idx = pool[idx]["parent"]
        return [root_token] + toks[::-1]

    frontier = [-1]  # -1 denotes the root
    joint_of = {-1: 1.0}
    for level in range(depth):
        scored = []
        for idx in frontier:
            if idx == -1:
                key = (-1.0, 0, root_token, -1)
            else:
                n = pool[idx]
                key = (-n["joint"], n["depth"], n["token"], idx)
            scored.append((key, idx))
        expand = [idx for _, idx in sorted(scored)[:widths[level]]]
        new_frontier = []
        for idx in expand:
            chain = path_tokens(idx)
            dist = linear_draft_probs(draft, root_feature, chain)[-1]
            top = np.argsort(-dist, kind="stable")[:expand_k]
            for tok in top:
                node = {"token": int(tok),
                        "parent": idx,
                        "depth": (0 if idx == -1 else pool[idx]["depth"]) + 1,
                        "cond": float(dist[tok]),
                        "joint": joint_of[idx] * float(dist[tok]),
                        "order": len(pool)}
                pool.append(node)
                joint_of[len(pool) - 1] = node["joint"]
                new_frontier.append(len(pool) - 1)
        frontier = new_frontier
    return pool


def best_closed_subset(pool, budget):
    """Exhaustive max-total-joint ancestor-closed subset of size <= budget.

    Ties between equal-sum subsets resolve to the one whose sorted
    ranking keys are lexicographically smallest, matching the declared
    tie-break of the production selection.
    """
    indices = list(range(len(pool)))
    size = min(budget, len(pool))

    def closed(subset):
        chosen = set(subset)
        return all(pool[i]["parent"] == -1 or pool[i]["parent"] in chosen for i in subset)

    def keys(subset):
        return sorted((-pool[i]["joint"], pool[i]["depth"], pool[i]["token"], pool[i]["order"])
                      for i in subset)

    best = None
    best_sum = -1.0
    for subset in itertools.combinations(indices, size):
        if not closed(subset):
            continue
        s = sum(pool[i]["joint"] for i in subset)
        if s > best_sum or (s == best_sum and keys(subset) < keys(best)):
            best, best_sum = subset, s
    return set(best) if best is not None else set()


def best_rate_subset(pool, budget, spent, verify_ms):
    """(subset, rate, gain) of the ancestor-closed subset of at most
    ``budget`` nodes with the most expected tokens, 1 + ``gain`` (its summed
    joint), per millisecond of ``spent`` plus ``verify_ms(size + 1)``, by
    ``best_closed_subset`` at every size; ties go to the larger subset."""
    best = (None, -1.0, 0.0)
    for size in range(min(budget, len(pool)) + 1):
        subset = best_closed_subset(pool, size)
        gain = sum(pool[i]["joint"] for i in subset)
        rate = (1.0 + gain) / (spent + verify_ms(size + 1))
        if rate >= best[1]:
            best = (subset, rate, gain)
    return best


def cost_aware_pool(draft, root_feature, root_token, depth, expand_k, select_m, budget,
                    latency):
    """The pool and verified subset the cost-aware rule picks, by brute force.

    The pool grows one level at a time through ``enumerate_beam_pool``.
    After each level the best cut comes from ``best_rate_subset``; the m
    best newest nodes (m <= ``select_m``) with the highest optimistic
    bound, (1 + cut gain + their summed joint) per millisecond of the
    draft time spent plus ``draft_ms(m)`` plus ``verify_ms(cut + 1 + m)``,
    are expanded when that bound reaches the cut's rate (ties to the larger
    m).  Both costs are the table's linear interpolation at a row count,
    its last entry past its last row.  Returns (pool, subset, widths),
    ``widths`` being the number of nodes expanded at each level after the
    first.
    """
    def verify_ms(rows):
        return float(np.interp(rows, latency.rows, latency.verify_ms))

    def draft_ms(rows):
        return float(np.interp(rows, latency.rows, latency.draft_ms))

    widths = []
    spent = draft_ms(1)                             # the root pass, one row
    while True:
        level = len(widths) + 1
        pool = enumerate_beam_pool(draft, root_feature, root_token, level, expand_k, widths)
        subset, rate, gain = best_rate_subset(pool, budget, spent, verify_ms)
        newest = sorted((-n["joint"], n["depth"], n["token"], n["order"])
                        for n in pool if n["depth"] == level)[:select_m]
        if level == depth or not newest:
            return pool, subset, widths
        best_m, best_bound = 0, -1.0
        for m in range(1, len(newest) + 1):
            bound = (1.0 + gain + sum(-key[0] for key in newest[:m])) / (
                spent + draft_ms(m) + verify_ms(len(subset) + 1 + m))
            if bound >= best_bound:
                best_m, best_bound = m, bound
        if best_bound < rate:
            return pool, subset, widths
        widths.append(best_m)
        spent += draft_ms(best_m)


def node_signature(pool, subset):
    """Order-free identity of a chosen pool subset: paths from the root."""
    def path(i):
        toks = []
        while i != -1:
            toks.append(pool[i]["token"])
            i = pool[i]["parent"]
        return tuple(toks[::-1])

    return sorted(path(i) for i in subset)


def tree_signature(tree):
    """Same identity for a built TokenTree (candidates only)."""
    out = []
    for i in range(1, len(tree)):
        toks = []
        walk = i
        while tree.parents[walk] != -1:
            toks.append(int(tree.tokens[walk]))
            walk = tree.parents[walk]
        out.append(tuple(toks[::-1]))
    return sorted(out)


_WHITESPACE = (9, 10, 13, 32)  # tab, newline, carriage return, space


def _chunk_starts(byte_ids):
    """True where a pre-tokenization chunk begins (index 0 and whitespace)."""
    starts = np.zeros(len(byte_ids), dtype=bool)
    if len(byte_ids):
        starts[0] = True
        for ws in _WHITESPACE:
            starts |= byte_ids == ws
    return starts


def _merge_pass(ids, starts, a, b, new_id):
    """Replace non-overlapping within-chunk (a, b) pairs with new_id."""
    if len(ids) < 2:
        return ids, starts
    match = (ids[:-1] == a) & (ids[1:] == b) & ~starts[1:]
    idx = np.flatnonzero(match)
    if idx.size == 0:
        return ids, starts
    if a == b and idx.size > 1:
        # runs of consecutive matches overlap; keep every other one
        run_start = np.r_[True, np.diff(idx) != 1]
        run_first = idx[run_start][np.cumsum(run_start) - 1]
        idx = idx[(idx - run_first) % 2 == 0]
    out = ids.copy()
    out[idx] = new_id
    keep = np.ones(len(ids), dtype=bool)
    keep[idx + 1] = False
    return out[keep], starts[keep]


def _byte_ids(text):
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    return np.frombuffer(data, dtype=np.uint8).astype(np.int32)


def whole_text_encode(tok, text):
    """BPE ids by whole-text passes: every merge, in rank order, replaces
    its non-overlapping within-chunk pairs across the whole text."""
    ids = _byte_ids(text)
    starts = _chunk_starts(ids)
    for rank, (a, b) in enumerate(tok.merges):
        ids, starts = _merge_pass(ids, starts, a, b, TK.N_BYTES + TK.N_SPECIALS + rank)
    return ids.tolist()


def whole_text_merges(corpus_text, vocab_size):
    """BPE merges learned by whole-text passes: each round counts every
    within-chunk pair of the text (overlapping ones included), takes the
    most frequent, the smallest on a tie, and merges it across the text;
    it stops when no pair repeats or the vocabulary is full."""
    ids = _byte_ids(corpus_text)
    starts = _chunk_starts(ids)
    merges = []
    for new_id in range(TK.N_BYTES + TK.N_SPECIALS, vocab_size):
        inside = ~starts[1:]
        if not inside.any():
            break
        packed = ids[:-1][inside].astype(np.int64) * (1 << 32) + ids[1:][inside]
        uniq, counts = np.unique(packed, return_counts=True)
        best = counts.argmax()
        if counts[best] < 2:
            break
        pair = (int(uniq[best] >> 32), int(uniq[best] & 0xFFFFFFFF))
        merges.append(pair)
        ids, starts = _merge_pass(ids, starts, pair[0], pair[1], new_id)
    return merges


def zipf_choice_by_generator(rng, pool):
    """A Zipf-weighted word of ``pool``, drawn by ``Generator.choice(p=...)``."""
    weights = 1.0 / (np.arange(len(pool)) + 1.5)
    weights /= weights.sum()
    return pool[rng.choice(len(pool), p=weights)]


def doc_kind_by_generator(rng):
    """A document kind, drawn by ``Generator.choice(p=...)``."""
    return C.DOC_KINDS[rng.choice(len(C.DOC_KINDS), p=C._KIND_WEIGHTS)]
