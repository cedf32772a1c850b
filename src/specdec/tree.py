"""Dynamic token-tree drafting, sized by measured cost.

The draft model expands candidate continuations level by level: at each
level the best new nodes each propose their top-k next tokens.  All
candidates share one global ranking: joint draft probability descending,
then shallower depth, then smaller token id, then creation order, which
keeps runs bit-reproducible.  Because a child's joint probability never
exceeds its parent's, and ties prefer the shallower node, every top-N
prefix of that ranking is ancestor-closed.

How many nodes are drafted and verified follows a ``LatencyTable`` of
target-verify and draft-pass milliseconds by row count.  A node's joint
draft probability stands for its chance of being accepted, so a tree of
N candidates is worth ``1 + (their summed joint)`` expected tokens (the
bonus token included) for the draft time spent plus ``verify_ms(N + 1)``.
The draft time starts at ``draft_ms(1)`` for the root pass, whatever
committed rows ride along in it: those are owed whatever the tree.
After each level:

* the current cut is the top-N prefix, N <= ``budget``, with the most
  expected tokens per millisecond;
* the best m <= ``select_m`` new nodes are expanded, for the m whose
  optimistic bound (their summed joint as gain, for ``draft_ms(m)`` more
  draft time and ``verify_ms(N + 1 + m)``) is highest, as long as that
  bound is at least the current cut's rate; otherwise drafting stops.

The final cut is what the target verifies.  Ties go to the larger tree,
both for the cut and for m.  With a table that charges only a constant
verify cost, ``FIXED_BUDGET`` (the default), the rule expands the best
``select_m`` new nodes at every level and keeps exactly the top
``budget`` candidates.  ``depth``, ``expand_k``, ``select_m`` and
``budget`` are caps in every case.

The pool and the resulting ``TokenTree`` are parallel numpy arrays, one
entry per node with the root at index 0: token ids, parent indices (-1 at
the root), depths, and float64 conditional and joint draft probabilities.
The builder also keeps the draft's carry feature of each expanded node,
which its children's draft pass reads.
"""

from __future__ import annotations

import json

import numpy as np

from . import tensor as T
from .errors import ContractError


class TokenTree:
    """Root plus candidate nodes as parallel arrays, parents before children.

    Verification tries a node's children in index order.  ``parents`` is
    -1 at the root; ``cond_probs`` and ``joint_probs`` (draft probabilities,
    float64) default to 1.
    """

    def __init__(self, tokens, parents, depths, cond_probs=None, joint_probs=None):
        self.tokens = np.asarray(tokens, dtype=np.int64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.depths = np.asarray(depths, dtype=np.int64)
        n = len(self.tokens)
        if (n == 0 or self.parents.shape != (n,) or self.depths.shape != (n,)
                or self.parents[0] != -1 or self.depths[0] != 0):
            raise ContractError("tree must start with a depth-0 root, one entry per node")
        bad = (self.parents[1:] < 0) | (self.parents[1:] >= np.arange(1, n))
        if bad.any():
            i = int(bad.argmax()) + 1
            raise ContractError(f"node {i} is not in topological order (parent {self.parents[i]})")
        wrong = self.depths[1:] != self.depths[self.parents[1:]] + 1
        if wrong.any():
            i = int(wrong.argmax()) + 1
            raise ContractError(f"node {i} depth {self.depths[i]} != parent depth + 1")
        self.cond_probs = np.ones(n) if cond_probs is None else np.asarray(cond_probs, np.float64)
        self.joint_probs = (np.ones(n) if joint_probs is None
                            else np.asarray(joint_probs, np.float64))

    def __len__(self):
        return len(self.tokens)

    def to_json(self):
        parents = self.parents.tolist()
        parents[0] = None
        nodes = [{"token": t, "parent": p, "depth": d, "cond_prob": c, "joint_prob": j}
                 for t, p, d, c, j in zip(self.tokens.tolist(), parents, self.depths.tolist(),
                                          self.cond_probs.tolist(), self.joint_probs.tolist())]
        return json.dumps({"nodes": nodes}, sort_keys=True)


class LatencyTable:
    """Target-verify and draft-pass milliseconds by row count.

    Measured at a few row counts ``rows`` and interpolated once, linearly,
    into two arrays indexed by row count up to the last measured one,
    ``verify_ms`` and ``draft_ms``.  The builder prices a count past the
    end as the last entry.
    """

    def __init__(self, rows, verify_ms, draft_ms):
        self.rows = [int(r) for r in rows]
        self.measured = {"verify_ms": [float(v) for v in verify_ms],
                         "draft_ms": [float(d) for d in draft_ms]}
        grid = np.arange(self.rows[-1] + 1)
        self.verify_ms = np.interp(grid, self.rows, self.measured["verify_ms"])
        self.draft_ms = np.interp(grid, self.rows, self.measured["draft_ms"])

    def to_dict(self):
        return {"rows": self.rows, **self.measured}


# a constant verify cost and free draft passes: every level expands
# ``select_m`` nodes and the cut keeps ``budget`` candidates
FIXED_BUDGET = LatencyTable([1], [1.0], [0.0])


def build_draft_tree(draft, root_feature, root_token, *, depth, expand_k, select_m,
                     budget, latency=FIXED_BUDGET, cache=None, sync=None):
    """Expand a candidate token tree from the last committed position.

    ``root_feature`` is the target feature at the last position the
    target has processed; ``root_token`` is the newest committed token
    (not yet seen by the target).  The draft's own cache gains one row
    per processed node; the caller truncates it back after use.

    ``sync=(features, tokens)`` holds committed draft rows the cache still
    lacks, the rows just before the root: they go through the root's own
    causal forward pass and stay in the cache in front of the root row.

    Each node's children come in descending draft probability, then
    ascending token id: the order in which verification tries them.

    ``latency`` (a ``LatencyTable``) prices the draft passes and the verify
    pass; see the module docstring for the rule.  The root pass counts as
    one row whatever sync rows ride along, since those are owed anyway.

    Returns (tree, draft_forward_passes).
    """
    if budget < 1:
        raise ContractError(f"tree budget must be >= 1, got {budget}")
    if depth < 1:
        raise ContractError(f"tree depth must be >= 1, got {depth}")
    if expand_k < 1 or select_m < 1:
        raise ContractError("expand_k and select_m must be >= 1")
    if cache is None:
        cache = draft.new_cache()

    # the root pass: the sync rows and the root row, one causal forward
    feats, ids = root_feature[None], [root_token]
    if sync is not None:
        feats, ids = np.concatenate([sync[0], feats]), list(sync[1]) + ids
    out = draft.forward(feats[None], [ids], cache=cache)
    prefix = len(cache) - 1   # the root's row and position; every key before it is committed
    passes = 1
    verify_ms = np.take(latency.verify_ms, np.arange(budget + select_m + 2), mode="clip")
    draft_ms = np.take(latency.draft_ms, np.arange(select_m + 1), mode="clip")
    spent = float(draft_ms[1])  # draft ms so far: the root pass

    cap = 1 + depth * select_m * expand_k
    tokens = np.empty(cap, dtype=np.int64)
    parents = np.empty(cap, dtype=np.int64)
    depths = np.empty(cap, dtype=np.int64)
    cond = np.empty(cap)
    joint = np.empty(cap)
    # an expanded node owns a tree key r, the draft cache row prefix + r, which
    # indexes its carry feature; sees[i, r] says key r is node i or an ancestor
    n_keys = 1 + (depth - 1) * select_m
    key_of = np.full(cap, -1)
    carry = np.empty((n_keys, feats.shape[1]), dtype=np.float32)
    sees = np.zeros((cap, n_keys), dtype=bool)
    tokens[0], parents[0], depths[0], cond[0], joint[0] = root_token, -1, 0, 1.0, 1.0
    key_of[0], sees[0, 0], carry[0] = 0, True, out.next_feature.data[0, -1]
    dist = T.KERNELS.softmax(out.logits.data[0, -1:])
    expand = np.zeros(1, dtype=np.int64)  # expanded pool nodes, in rank order, aligned with dist
    n = 1

    for level in range(1, depth + 1):
        top, p = _top_k(dist, expand_k)
        keep = p > 0.0                    # a drafted child must carry positive draft mass
        p = p[keep].astype(np.float64)
        kids = expand.repeat(top.shape[1])[keep.ravel()]   # their parents
        new = slice(n, n + len(p))
        tokens[new], parents[new], depths[new] = top[keep], kids, level
        cond[new], joint[new] = p, joint[kids] * p
        n += len(p)
        order = 1 + _rank(slice(1, n), tokens, depths, joint)[:budget]
        size, rate, gain = _best_cut(joint[order], spent, verify_ms)
        if level == depth or not len(p):
            break
        # the optimistic bound of expanding the best 1, 2, ... new nodes
        best = new.start + _rank(new, tokens, depths, joint)[:select_m]
        widths = np.arange(1, len(best) + 1)
        bound = (1.0 + gain + np.cumsum(joint[best])) / (
            spent + draft_ms[widths] + verify_ms[size + 1 + widths])
        m = _last_argmax(bound)
        if bound[m] < rate:
            break
        expand = best[:m + 1]
        spent += draft_ms[m + 1]
        key_of[expand] = keys = len(cache) - prefix + np.arange(len(expand))
        _inherit_visibility(sees, expand, parents, keys)
        allowed = np.ones((len(expand), len(cache) + len(expand)), dtype=bool)
        allowed[:, prefix:] = sees[expand, :keys[-1] + 1]
        out = draft.forward(carry[key_of[parents[expand]]][None], tokens[expand][None],
                            positions=np.full(len(expand), prefix + level), mask=allowed,
                            cache=cache)
        passes += 1
        carry[keys] = out.next_feature.data[0]
        dist = T.KERNELS.softmax(out.logits.data[0])

    # the root and the cut, in creation order, which is topological
    keep = np.concatenate([[0], np.sort(order[:size])])
    index_of = np.full(n, -1)
    index_of[keep] = np.arange(len(keep))
    kept_parents = index_of[parents[keep]]
    kept_parents[0] = -1
    if (kept_parents[1:] < 0).any():
        raise ContractError("top-N selection broke ancestor closure")
    return TokenTree(tokens[keep], kept_parents, depths[keep], cond[keep], joint[keep]), passes


def _best_cut(ranked_joint, spent, verify_ms):
    """(N, rate, gain) of the top-N prefix of the ranked candidates with the
    most expected tokens, 1 + ``gain`` (their summed joint), per millisecond
    of ``spent`` plus ``verify_ms[N + 1]``; ties go to the larger N."""
    gain = np.zeros(len(ranked_joint) + 1)
    np.cumsum(ranked_joint, out=gain[1:])
    rate = (1.0 + gain) / (spent + verify_ms[1:len(gain) + 1])
    size = _last_argmax(rate)
    return size, rate[size], gain[size]


def _last_argmax(values):
    return len(values) - 1 - int(np.argmax(values[::-1]))


def _rank(nodes, tokens, depths, joint):
    """Offsets within the pool slice ``nodes`` in global candidate order:
    joint desc, then shallow, then token id, then creation order (the sort
    is stable)."""
    return np.lexsort((tokens[nodes], depths[nodes], -joint[nodes]))


def _top_k(probs, k):
    """Each row's ``np.argsort(-row, kind="stable")[:k]``, and its values.

    A row's k largest entries are those at or above its k-th largest value,
    found by one (SIMD) value sort; they are then ordered by value, ties by
    index.  When a row's (k+1)-th largest value ties its k-th, the tie
    straddles the cut, and the block takes the stable argsort instead, so
    that such ties go to the smaller ids.
    """
    m, v = probs.shape
    rows = np.arange(m)[:, None]
    if k < v:
        ranked = np.sort(probs, axis=1)
        kth = ranked[:, v - k]
        if not (kth == ranked[:, v - k - 1]).any():
            top = ((probs >= kth[:, None]).ravel().nonzero()[0] % v).reshape(m, k)
            top = top[rows, (-probs[rows, top]).argsort(axis=1, kind="stable")]
            return top, ranked[:, v - k:][:, ::-1]
    top = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    return top, probs[rows, top]


def tree_attention_mask(tree, prefix_len):
    """Visibility of the tree rows over prefix + tree keys.

    Shape (len(tree), prefix_len + len(tree)): each tree row sees the
    whole prefix, its ancestors, and itself — nothing else.
    """
    n = len(tree)
    allowed = np.zeros((n, prefix_len + n), dtype=bool)
    allowed[:, :prefix_len] = True
    sees = allowed[:, prefix_len:]
    sees[0, 0] = True
    for level in range(1, tree.depths.max() + 1):
        nodes = np.flatnonzero(tree.depths == level)
        _inherit_visibility(sees, nodes, tree.parents, nodes)
    return allowed


def chain_tree(tokens):
    """Linear tree: ``tokens[0]`` is the root, each later token the child of the one before."""
    n = len(tokens)
    return TokenTree(tokens, np.arange(n) - 1, np.arange(n))


def _inherit_visibility(sees, nodes, parents, keys):
    """Row ``nodes[r]`` of the boolean ``sees`` gets its parent's row plus
    its own key ``keys[r]``: a node sees exactly its ancestors' keys and its
    own.  Parents' rows must be complete, so callers go one tree level at a
    time."""
    sees[nodes] = sees[parents[nodes]]
    sees[nodes, keys] = True
