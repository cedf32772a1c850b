"""How the draft model grows a candidate token tree.

Run from the repository root:  python3 demos/02_tree_drafting.py
"""

import numpy as np

from specdec import model as M
from specdec import tensor as T
from specdec.tree import build_draft_tree, flatten, tree_attention_mask

cfg = M.ModelConfig(vocab_size=32, hidden_size=16, intermediate_size=24,
                    n_layers=2, n_heads=2, max_seq_len=64)
target = M.TargetModel(cfg, seed=0)
draft = M.DraftModel(cfg, target, variant="fspad", seed=1)

# the tree grows from the newest committed token plus the feature at the
# position just before it
rng = np.random.default_rng(2)
root_feature = rng.normal(size=cfg.hidden_size).astype(np.float32)
root_token = 7

with T.no_grad():
    tree, passes = build_draft_tree(draft, root_feature, root_token,
                                    depth=3, expand_k=3, select_m=2, budget=6)

print(f"built a tree of {tree.num_candidates} candidates "
      f"in {passes} draft forward passes\n")
for i, node in enumerate(tree.nodes):
    pad = "  " * node.depth
    print(f"{pad}[{i}] token={node.token:<3} cond={node.cond_prob:.3f} "
          f"joint={node.joint_prob:.3f}")

# every child ranks at or below its parent, so the best-N cut is a valid tree
joints = [n.joint_prob for n in tree.nodes]
assert all(joints[n.parent] >= j for n, j in
           [(tree.nodes[i], joints[i]) for i in range(1, len(tree))])

# flattening: one row per node, position = prefix length + depth
tokens, positions, parents = flatten(tree, prefix_len=10)
print("\nflattened tokens:   ", tokens.tolist())
print("flattened positions:", positions.tolist())
print("flattened parents:  ", parents.tolist())

# the attention mask has one row per tree node, over the prefix keys and
# the tree keys: each node sees the whole prefix, its ancestors, itself
mask = tree_attention_mask(tree, prefix_len=2)
print(f"\ntree-row visibility mask {mask.shape} (prefix keys | tree keys, # = allowed):")
for row in mask:
    marks = "".join("#" if v else "." for v in row)
    print(f"  {marks[:2]} | {marks[2:]}")

print("\nserialized:", tree.to_json()[:100], "...")
