"""Losslessness in action: speculative output == vanilla output.

Run from the repository root:  python3 demos/03_lossless_verification.py
"""

import numpy as np

from specdec import engine as E
from specdec import model as M

cfg = M.ModelConfig(vocab_size=32, hidden_size=16, intermediate_size=24,
                    n_layers=2, n_heads=2, max_seq_len=128)
target = M.TargetModel(cfg, seed=3)
draft = M.DraftModel(cfg, target, variant="fspad", seed=4)

# --- greedy: token-for-token identity ---------------------------------------

drafter = E.ModelDrafter(draft, depth=3, expand_k=3, select_m=3, budget=8)
engine = E.SpeculativeEngine(target, drafter)
prompt = [5, 9, 2, 14]

vanilla, vstats = E.vanilla_generate(target, prompt, 32, temperature=0.0)
spec, sstats = engine.generate(prompt, 32, temperature=0.0)
print("vanilla :", vanilla)
print("spec    :", spec)
print("identical:", spec == vanilla)
print(f"vanilla target passes: {vstats.target_passes}, "
      f"speculative: {sstats.target_passes} (tau={sstats.tau():.2f})\n")

# an untrained draft rarely agrees with the target, so tau sits near 1;
# a perfect draft pushes tau to depth+1
oracle = E.SpeculativeEngine(target, E.OracleChainDrafter(target, depth=5))
out, ostats = oracle.generate(prompt, 30, temperature=0.0)
print(f"perfect-draft ceiling: tau={ostats.tau():.2f} (depth 5 -> 6.0)")


def disagree(committed, chain):
    want, _ = E.vanilla_generate(target, list(committed) + chain, 1, temperature=0.0)
    return (want[0] + 1) % cfg.vocab_size


wrong = E.SpeculativeEngine(target, E.ChainDrafter(disagree, depth=5))
out, wstats = wrong.generate(prompt, 10, temperature=0.0)
print(f"always-wrong floor:    tau={wstats.tau():.2f} (bonus token only -> 1.0)\n")

# --- sampling: the emitted-token distribution is preserved ------------------

micro_cfg = M.ModelConfig(vocab_size=8, hidden_size=8, intermediate_size=12,
                          n_layers=1, n_heads=2, max_seq_len=64)
micro_target = M.TargetModel(micro_cfg, seed=5)
micro_draft = M.DraftModel(micro_cfg, micro_target, seed=6)
micro = E.SpeculativeEngine(micro_target, E.ModelDrafter(micro_draft, depth=2,
                                                         expand_k=2, select_m=2,
                                                         budget=3))
from specdec import tensor as T  # noqa: E402

with T.no_grad():
    logits, _ = micro_target.forward(np.array([1, 2, 3]))
p_exact = E._temperature_probs(logits.data[-1][None], 1.0)[0]

counts = np.zeros(8)
trials = 4000
for i in range(trials):
    out, _ = micro.generate([1, 2, 3], 1, temperature=1.0, seed=i)
    counts[out[0]] += 1
print("first-token frequencies vs exact target probabilities (T=1):")
for tok in range(8):
    print(f"  token {tok}: {counts[tok] / trials:.3f} vs {p_exact[tok]:.3f}")
tv = 0.5 * np.abs(counts / trials - p_exact).sum()
print(f"total-variation distance: {tv:.4f}")

# both decoders draw token t from the same uniform, so the sampled tokens
# themselves match, not only their law
seeds = 50
same = sum(micro.generate([1, 2, 3], 16, temperature=1.0, seed=s)[0]
           == E.vanilla_generate(micro_target, [1, 2, 3], 16, temperature=1.0, seed=s)[0]
           for s in range(seeds))
print(f"speculative output equal to vanilla's at T=1: {same} of {seeds} seeds")
