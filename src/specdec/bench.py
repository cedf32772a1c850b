"""Benchmark harness: average acceptance length and speedup vs vanilla.

Each cell (task, temperature, variant) decodes the same seeded prompts
twice — vanilla then speculative — and reports tau (emitted tokens per
target forward pass) and the wall-clock speedup ratio.  At temperature 0
the two arms must emit identical token sequences; the harness enforces
that, so speedup always compares equal work.  Reports are deterministic
functions of the config and seed except for wall-time-derived fields.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .corpus import TASKS, task_prompts
from .engine import ModelDrafter, SpeculativeEngine, vanilla_generate
from .errors import CapacityError, ConfigError, ContractError
from .model import VARIANTS, ConfigSection
from .tokenizer import EOS


@dataclass
class DraftingConfig(ConfigSection):
    section = "drafting"

    depth: int = 5
    expand_k: int = 8
    select_m: int = 8
    budget: int = 60

    def halved(self):
        """Half the node budget and the per-step top-k, same depth."""
        return DraftingConfig(depth=self.depth, expand_k=max(1, self.expand_k // 2),
                              select_m=self.select_m, budget=max(1, self.budget // 2))


@dataclass
class BenchConfig(ConfigSection):
    section = "bench"

    tasks: tuple = TASKS
    temperatures: tuple = (0.0,)
    prompts_per_task: int = 10
    max_new: int = 48
    warmup_prompts: int = 2

    def __post_init__(self):
        self.tasks = tuple(self.tasks)
        self.temperatures = tuple(self.temperatures)
        for t in self.tasks:
            if t not in TASKS:
                raise ConfigError(f"unknown bench task {t!r}; expected subset of {TASKS}")


def config_hash(config_dict):
    text = json.dumps(config_dict, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass
class BenchReport:
    task: str
    temperature: float
    variant: str
    tau: float
    speedup: float
    tokens_emitted: int
    target_passes: int
    draft_passes: int
    wall_ms_vanilla: float
    wall_ms_spec: float
    prompts_run: int
    prompts_skipped: int
    seed: int
    config_hash: str

    def __post_init__(self):
        if self.target_passes:
            implied = self.tokens_emitted / self.target_passes
            if abs(self.tau - implied) > 1e-9:
                raise ConfigError(f"inconsistent report: tau {self.tau} != {implied}")
            if self.tau < 1.0:
                raise ConfigError(f"tau {self.tau} < 1 violates the progress guarantee")

    def to_dict(self):
        return asdict(self)


WALL_FIELDS = ("speedup", "wall_ms_vanilla", "wall_ms_spec")


def _prompt_seed(seed, task, label, index):
    # stable across processes (unlike built-in str hashing)
    tag = int.from_bytes(hashlib.sha256(f"{task}/{label}".encode()).digest()[:4], "little")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, index))
    return int(ss.generate_state(1)[0])


def bench_cell(target, draft, tokenizer, task, temperature, drafting, bench, seed,
               variant=None):
    """One report row: vanilla vs speculative over identical seeded prompts."""
    variant = variant or getattr(draft, "variant", "unknown")
    prompts = task_prompts(task, bench.prompts_per_task, seed=seed)
    drafter = ModelDrafter(draft, depth=drafting.depth, expand_k=drafting.expand_k,
                           select_m=drafting.select_m, budget=drafting.budget)
    engine = SpeculativeEngine(target, drafter)

    emitted = passes = draft_passes = 0
    wall_vanilla = wall_spec = 0.0
    run = skipped = 0
    for i, prompt in enumerate(prompts):
        ids = tokenizer.encode(prompt, add_bos=True)
        gen_seed = _prompt_seed(seed, task, "gen", i)  # same for both arms and all variants
        try:
            want, van_stats = vanilla_generate(target, ids, bench.max_new,
                                               temperature=temperature, seed=gen_seed,
                                               eos_id=EOS)
            got, spec_stats = engine.generate(ids, bench.max_new, temperature=temperature,
                                              seed=gen_seed, eos_id=EOS)
        except CapacityError:
            skipped += 1
            continue
        if temperature == 0.0 and got != want:
            raise ContractError(
                f"greedy fairness violated on task {task!r} prompt {i}: "
                f"speculative output diverged from vanilla")
        run += 1
        if i < bench.warmup_prompts:
            continue
        emitted += spec_stats.emitted
        passes += spec_stats.target_passes
        draft_passes += spec_stats.draft_passes
        wall_vanilla += van_stats.wall_ms
        wall_spec += spec_stats.wall_ms
    if passes == 0:
        raise ConfigError(f"bench cell {task!r} measured no prompts "
                          f"(all skipped or eaten by warmup)")
    return BenchReport(
        task=task, temperature=temperature, variant=variant,
        tau=emitted / passes,
        speedup=(wall_vanilla / wall_spec) if wall_spec > 0 else 0.0,
        tokens_emitted=emitted, target_passes=passes, draft_passes=draft_passes,
        wall_ms_vanilla=wall_vanilla, wall_ms_spec=wall_spec,
        prompts_run=run, prompts_skipped=skipped, seed=seed,
        config_hash=config_hash({"drafting": asdict(drafting),
                                 "bench": asdict(bench), "seed": seed}))


def run_bench(target, drafts, tokenizer, drafting, bench, seed, out_path=None,
              progress=None):
    """Reports for every (task, temperature, variant) cell.

    ``drafts`` maps variant name -> draft model.  Writes a JSON array to
    ``out_path`` and a CSV next to it when given.
    """
    reports = []
    for task in bench.tasks:
        for temperature in bench.temperatures:
            for variant, draft in drafts.items():
                if progress:
                    progress(f"bench {task} T={temperature} {variant}")
                reports.append(bench_cell(target, draft, tokenizer, task, temperature,
                                          drafting, bench, seed, variant=variant))
    if out_path:
        write_reports(reports, out_path)
    return reports


def run_ablation(target, drafts, tokenizer, drafting, bench, seed, out_path=None,
                 progress=None):
    """Variant grid plus the soft ordering comparison.

    The full connector+dual-path configuration is expected to lead each
    cell; a toy-scale regression is flagged in the summary, not failed.
    Returns (reports, summary).
    """
    missing = [v for v in VARIANTS if v not in drafts]
    if missing:
        raise ConfigError(f"ablation needs all variants; missing {missing}")
    ordered = {v: drafts[v] for v in VARIANTS}
    reports = run_bench(target, ordered, tokenizer, drafting, bench, seed,
                        out_path=out_path, progress=progress)
    regressions = []
    for task in bench.tasks:
        for temperature in bench.temperatures:
            cell = {r.variant: r.tau for r in reports
                    if r.task == task and r.temperature == temperature}
            for other in ("no_fs", "no_pad", "neither"):
                if cell["fspad"] < cell[other] - 1e-12:
                    regressions.append({"task": task, "temperature": temperature,
                                        "variant": other, "tau_fspad": cell["fspad"],
                                        "tau_other": cell[other]})
    summary = {"cells": len(reports), "ordering_regressions": regressions}
    return reports, summary


def write_reports(reports, out_path):
    """JSON array at ``out_path`` plus a CSV sibling with the same rows."""
    out_path = str(out_path)
    rows = [r.to_dict() for r in reports]
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(rows, f, indent=2, sort_keys=True)
        f.write("\n")
    csv_path = out_path.rsplit(".", 1)[0] + ".csv"
    names = [f.name for f in fields(BenchReport)]
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=names)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return csv_path


def emit_plots(reports, out_path):
    """Per-task bar-chart series: one (task, variant, tau) row per cell.

    Re-running on the same reports is byte-identical.
    """
    rows = sorted((r.task, r.variant, r.tau) for r in reports)
    with open(out_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["task", "variant", "tau"])
        for task, variant, tau in rows:
            writer.writerow([task, variant, f"{tau:.9f}"])
    return out_path


def load_reports(path):
    with open(path, "r", encoding="utf-8") as f:
        return [BenchReport(**row) for row in json.load(f)]
