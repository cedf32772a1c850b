"""How the draft model grows a candidate token tree.

Run from the repository root:  python3 demos/02_tree_drafting.py
"""

import numpy as np

from specdec import model as M
from specdec.tree import build_draft_tree, tree_attention_mask

cfg = M.ModelConfig(vocab_size=32, hidden_size=16, intermediate_size=24,
                    n_layers=2, n_heads=2, max_seq_len=64)
target = M.TargetModel(cfg, seed=0)
draft = M.DraftModel(cfg, target, variant="fspad", seed=1)

# the tree grows from the committed draft rows: row i fuses the target
# feature at position i with the token after it, and the last row's token,
# the newest committed one, is the root
rng = np.random.default_rng(2)
features = rng.normal(size=(1, cfg.hidden_size)).astype(np.float32)
tokens = [7]

# the draft passes run against the draft's KV cache, so they are inference
# forwards whatever the grad mode; the builder leaves that cache holding
# exactly the committed rows
tree, passes = build_draft_tree(draft, features, tokens,
                                depth=3, expand_k=3, select_m=2, budget=6)

print(f"built a tree of {len(tree) - 1} candidates "
      f"in {passes} draft forward passes\n")
# the tree is a set of parallel arrays, one entry per node, root first
for i in range(len(tree)):
    pad = "  " * tree.depths[i]
    print(f"{pad}[{i}] token={tree.tokens[i]:<3} parent={tree.parents[i]:<3} "
          f"cond={tree.cond_probs[i]:.3f} joint={tree.joint_probs[i]:.3f}")

# every child ranks at or below its parent, so the best-N cut is a valid tree
assert (tree.joint_probs[1:] <= tree.joint_probs[tree.parents[1:]]).all()

# the target scores one row per node, at position prefix length + depth;
# verification tries each node's children in index order, which the builder
# made descending draft probability, then token id
print("\nrow tokens:   ", tree.tokens.tolist())
print("row positions:", (10 + tree.depths).tolist())
print("row parents:  ", tree.parents.tolist())

# the attention mask has one row per tree node, over the tree keys: each
# node sees its ancestors and itself (every prefix key is visible anyway)
mask = tree_attention_mask(tree)
print(f"\ntree-row visibility mask {mask.shape} (tree keys, # = allowed):")
for row in mask:
    print("  " + "".join("#" if v else "." for v in row))

print("\nserialized:", tree.to_json()[:100], "...")
