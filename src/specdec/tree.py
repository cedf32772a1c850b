"""Dynamic token-tree drafting.

The draft model expands candidate continuations level by level: at each
level the highest-joint-probability frontier nodes each propose their
top-k next tokens, and after the final level the candidate pool is cut
down to the best N nodes by joint probability.  Because a child's joint
probability never exceeds its parent's, and ties prefer the shallower
node, the top-N prefix of the global ranking is automatically
ancestor-closed.

Ordering ties are broken by (shallower depth, smaller token id, creation
order), which keeps runs bit-reproducible.
"""

from __future__ import annotations

import json

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError


class TreeNode:
    __slots__ = ("token", "parent", "depth", "cond_prob", "joint_prob", "feature")

    def __init__(self, token, parent, depth, cond_prob, joint_prob, feature=None):
        self.token = int(token)
        self.parent = parent  # index into the flattened node list, None for root
        self.depth = int(depth)
        self.cond_prob = float(cond_prob)
        self.joint_prob = float(joint_prob)
        self.feature = feature  # draft carry feature, set once this node is expanded

    def to_dict(self):
        return {"token": self.token, "parent": self.parent, "depth": self.depth,
                "cond_prob": self.cond_prob, "joint_prob": self.joint_prob}


class TokenTree:
    """Root plus candidate nodes, parents before children."""

    def __init__(self, nodes):
        self.nodes = nodes
        self._validate()

    def _validate(self):
        if not self.nodes or self.nodes[0].parent is not None or self.nodes[0].depth != 0:
            raise ContractError("tree must start with a depth-0 root")
        for i, node in enumerate(self.nodes[1:], start=1):
            p = node.parent
            if p is None or p >= i:
                raise ContractError(f"node {i} is not in topological order (parent {p})")
            parent = self.nodes[p]
            if node.depth != parent.depth + 1:
                raise ContractError(f"node {i} depth {node.depth} != parent depth + 1")

    def __len__(self):
        return len(self.nodes)

    @property
    def num_candidates(self):
        return len(self.nodes) - 1

    def children(self, idx):
        return [i for i, n in enumerate(self.nodes) if n.parent == idx]

    def ancestors(self, idx):
        """Indices on the root path of ``idx``, excluding ``idx`` itself."""
        out = []
        p = self.nodes[idx].parent
        while p is not None:
            out.append(p)
            p = self.nodes[p].parent
        return out[::-1]

    def to_json(self):
        return json.dumps({"nodes": [n.to_dict() for n in self.nodes]}, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        raw = json.loads(text)["nodes"]
        return cls([TreeNode(r["token"], r["parent"], r["depth"], r["cond_prob"], r["joint_prob"])
                    for r in raw])


def rank_key(node, idx):
    """Global candidate ordering: joint desc, then shallow, then token id."""
    return (-node.joint_prob, node.depth, node.token, idx)


def build_draft_tree(draft, root_feature, root_token, *, depth, expand_k, select_m,
                     budget, cache=None, prefix_len=None):
    """Expand a candidate token tree from the last committed position.

    ``root_feature`` is the target feature at the last position the
    target has processed; ``root_token`` is the newest committed token
    (not yet seen by the target).  The draft's own cache gains one row
    per processed node; the caller truncates it back after use.

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
    if prefix_len is None:
        prefix_len = len(cache)

    root = TreeNode(root_token, None, 0, 1.0, 1.0)
    pool = [root]            # pool[0] is the root; candidates follow
    row_of = np.full(1 + depth * select_m * expand_k, -1)  # pool index -> draft cache row
    probs_of = {}            # pool index -> draft conditional distribution
    passes = 0

    def process(indices):
        """Run the draft over the fused rows of the given pool nodes."""
        nonlocal passes
        n = len(indices)
        feats = np.stack([
            root_feature if pool[i].parent is None else pool[pool[i].parent].feature
            for i in indices
        ])
        base = len(cache)
        row_of[indices] = base + np.arange(n)
        allowed = _visibility(_parents(pool), row_of, indices, prefix_len, base + n)
        positions = np.array([prefix_len + pool[i].depth for i in indices])
        out = draft.forward(feats[None], [[pool[i].token for i in indices]], positions=positions,
                            mask=allowed, cache=cache)
        passes += 1
        if np.isnan(out.logits.data).any():
            raise NumericError("draft produced NaN logits")
        dist = T.softmax(out.logits, axis=-1).data[0]
        for r, i in enumerate(indices):
            pool[i].feature = out.next_feature.data[0, r].copy()
            probs_of[i] = dist[r]

    frontier = [0]
    process(frontier)
    for level in range(1, depth + 1):
        expand = sorted(frontier, key=lambda i: rank_key(pool[i], i))[:select_m]
        new_frontier = []
        for i in expand:
            probs = probs_of[i]
            top = np.argsort(-probs, kind="stable")[:expand_k]
            for tok in top:
                if probs[tok] <= 0.0:
                    continue  # a drafted child must carry positive draft mass
                node = TreeNode(tok, i, pool[i].depth + 1,
                                float(probs[tok]), pool[i].joint_prob * float(probs[tok]))
                pool.append(node)
                new_frontier.append(len(pool) - 1)
        frontier = new_frontier
        if level < depth and frontier:
            chosen = sorted(frontier, key=lambda i: rank_key(pool[i], i))[:select_m]
            process(chosen)

    candidates = sorted(range(1, len(pool)), key=lambda i: rank_key(pool[i], i))
    selected = sorted(candidates[:budget])   # creation order is topological
    index_map = {0: 0}
    nodes = [root]
    for i in selected:
        n = pool[i]
        index_map[i] = len(nodes)
        if n.parent not in index_map:
            raise ContractError("top-N selection broke ancestor closure")
        nodes.append(TreeNode(n.token, index_map[n.parent], n.depth,
                              n.cond_prob, n.joint_prob, n.feature))
    return TokenTree(nodes), passes


def tree_attention_mask(tree, prefix_len):
    """Visibility of the flattened tree rows over prefix + tree keys.

    Shape (len(tree), prefix_len + len(tree)): each tree row sees the
    whole prefix, its ancestors, and itself — nothing else.
    """
    n = len(tree)
    return _visibility(_parents(tree.nodes), prefix_len + np.arange(n),
                       np.arange(n), prefix_len, prefix_len + n)


def chain_tree(tokens):
    """Linear tree: ``tokens[0]`` is the root, each later token the child of the one before."""
    nodes = [TreeNode(tok, d - 1 if d else None, d, 1.0, 1.0) for d, tok in enumerate(tokens)]
    return TokenTree(nodes)


def flatten(tree, prefix_len):
    """Flattened (tokens, positions, parents); positions follow tree depth."""
    tokens = np.array([n.token for n in tree.nodes])
    positions = np.array([prefix_len + n.depth for n in tree.nodes])
    return tokens, positions, _parents(tree.nodes)


def _parents(nodes):
    return np.array([-1 if n.parent is None else n.parent for n in nodes])


def _visibility(parents, key_of, queries, prefix_len, n_keys):
    """Boolean (len(queries), n_keys) visibility, one tree level per iteration.

    Row r sees every key below ``prefix_len`` and the key ``key_of[j]`` of
    node ``queries[r]`` and of each of its ancestors j (``parents`` is -1
    at the root).
    """
    allowed = np.zeros((len(queries), n_keys), dtype=bool)
    allowed[:, :prefix_len] = True
    rows, node = np.arange(len(queries)), np.asarray(queries, dtype=int)
    while node.size:
        allowed[rows, key_of[node]] = True
        up = parents[node] >= 0
        rows, node = rows[up], parents[node[up]]
    return allowed
