"""Benchmark harness: average acceptance length and speedup vs vanilla.

Each cell (task, temperature, variant) decodes the same seeded prompts
twice, vanilla and speculative, the arm that runs first alternating from
prompt to prompt, and reports tau (emitted tokens per target forward pass)
and the wall-clock speedup ratio.  At temperature 0 the two arms must
emit identical token sequences; the harness enforces that, so speedup
always compares equal work.  At temperature > 0 they emit the same tokens
too, from one uniform per token, except where a uniform falls in the
float32 rounding gap between the verify forward's distribution and
vanilla's; that is not asserted, since the law is exact either way.
Reports are deterministic functions of the config, the seed and the
weights except for wall-time-derived fields: ``ModelDrafter`` prices
every tree with the committed ``tree.COSTS``, so ``tau``,
``draft_passes`` and ``target_passes`` are the same in every process, and
the variants of one grid differ in ``tau`` by draft quality alone.  Each
report is labelled with its draft's own ``variant``.  ``DraftingConfig``
holds the only defaults of the tree caps that ``ModelDrafter`` requires.
The paper's ablation is the grid over every variant in ``VARIANTS``,
judged by ``ordering_regressions``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .corpus import TASKS, task_prompts
from .engine import ModelDrafter, SpeculativeEngine, temperature_ok, vanilla_generate
from .errors import CapacityError, ConfigError, ContractError
from .model import VARIANTS, ConfigSection, write_atomic
from .tokenizer import EOS


@dataclass
class DraftingConfig(ConfigSection):
    """Caps on each drafted tree: levels, children per expanded node,
    nodes expanded per level and candidates verified.  The cost table
    ``tree.COSTS`` decides how much of each cap a tree uses."""

    section = "drafting"

    depth: int = 5
    expand_k: int = 8
    select_m: int = 8
    budget: int = 60

    minimums = dict.fromkeys(("depth", "expand_k", "select_m", "budget"), 1)


@dataclass
class BenchConfig(ConfigSection):
    """The cells of a grid (tasks x temperatures) and the prompts of each:
    ``warmup_prompts`` of the ``prompts_per_task`` run but are not counted."""

    section = "bench"

    tasks: tuple = TASKS
    temperatures: tuple = (0.0,)
    prompts_per_task: int = 10
    max_new: int = 48
    warmup_prompts: int = 2

    minimums = {"prompts_per_task": 1, "max_new": 1, "warmup_prompts": 0}

    def __post_init__(self):
        super().__post_init__()
        self.tasks = tuple(self.tasks)
        self.temperatures = tuple(self.temperatures)
        for name in ("tasks", "temperatures"):
            if not getattr(self, name):
                raise ConfigError(f"bench.{name} must be nonempty")
        for t in self.tasks:
            if t not in TASKS:
                raise ConfigError(f"unknown bench task {t!r}; expected subset of {TASKS}")
        for t in self.temperatures:
            if not temperature_ok(t):
                raise ConfigError(f"bench.temperatures holds {t!r}; each must be 0 "
                                  f"or a number in (0, 2]")
        for name in ("tasks", "temperatures"):
            values = getattr(self, name)
            if len(set(values)) < len(values):  # 0 and 0.0 are one temperature
                raise ConfigError(f"bench.{name} repeats a value: {list(values)}")
        if not self.warmup_prompts < self.prompts_per_task:
            raise ConfigError(f"bench.warmup_prompts must be < bench.prompts_per_task "
                              f"({self.prompts_per_task}), got {self.warmup_prompts}")


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


def _prompt_seed(seed, task, label, index):
    # stable across processes (unlike built-in str hashing)
    tag = int.from_bytes(hashlib.sha256(f"{task}/{label}".encode()).digest()[:4], "little")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, index))
    return int(ss.generate_state(1)[0])


def bench_cell(target, draft, tokenizer, task, temperature, drafting, bench, seed):
    """One report row, labelled ``draft.variant``: vanilla vs speculative over
    identical seeded prompts, in an arm order that alternates from prompt to
    prompt."""
    prompts = task_prompts(task, bench.prompts_per_task, seed=seed)
    drafter = ModelDrafter(draft, **asdict(drafting))
    engine = SpeculativeEngine(target, drafter)

    emitted = passes = draft_passes = 0
    wall_vanilla = wall_spec = 0.0
    run = skipped = 0
    for i, prompt in enumerate(prompts):
        ids = tokenizer.encode(prompt, add_bos=True)
        gen_seed = _prompt_seed(seed, task, "gen", i)  # same for both arms and all variants
        kw = dict(temperature=temperature, seed=gen_seed, eos_id=EOS)
        arms = {"vanilla": lambda: vanilla_generate(target, ids, bench.max_new, **kw),
                "spec": lambda: engine.generate(ids, bench.max_new, **kw)}
        # the speculative arm goes first on odd prompts, so that neither arm
        # always runs on caches the other warmed
        order = ("vanilla", "spec") if i % 2 == 0 else ("spec", "vanilla")
        try:
            out = {arm: arms[arm]() for arm in order}
        except CapacityError:
            skipped += 1
            continue
        (want, van_stats), (got, spec_stats) = out["vanilla"], out["spec"]
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
        task=task, temperature=temperature, variant=draft.variant,
        tau=emitted / passes,
        speedup=(wall_vanilla / wall_spec) if wall_spec > 0 else 0.0,
        tokens_emitted=emitted, target_passes=passes, draft_passes=draft_passes,
        wall_ms_vanilla=wall_vanilla, wall_ms_spec=wall_spec,
        prompts_run=run, prompts_skipped=skipped, seed=seed,
        config_hash=config_hash({"drafting": asdict(drafting),
                                 "bench": asdict(bench), "seed": seed}))


def run_bench(target, drafts, tokenizer, drafting, bench, seed, progress=None):
    """Reports for every (task, temperature, draft) cell; ``drafts`` maps
    variant name -> draft model of that variant."""
    reports = []
    for task in bench.tasks:
        for temperature in bench.temperatures:
            for variant, draft in drafts.items():
                if progress:
                    progress(f"bench {task} T={temperature} {variant}")
                reports.append(bench_cell(target, draft, tokenizer, task, temperature,
                                          drafting, bench, seed))
    return reports


def ordering_regressions(reports):
    """Per (task, temperature) cell in report order, each variant after ``fspad`` in
    ``VARIANTS`` whose tau beats ``fspad``'s by more than 1e-12 (reported, never failed)."""
    cells = {}
    for r in reports:
        cells.setdefault((r.task, r.temperature), {})[r.variant] = r.tau
    return [{"task": task, "temperature": temperature, "variant": other,
             "tau_fspad": cell["fspad"], "tau_other": cell[other]}
            for (task, temperature), cell in cells.items() for other in VARIANTS[1:]
            if {"fspad", other} <= cell.keys() and cell["fspad"] < cell[other] - 1e-12]


def write_reports(reports, out_path):
    """The rows at ``<stem>.json`` and ``<stem>.csv``, ``emit_plots`` at ``<stem>_plot.csv``
    and, when every variant has a row, the ordering summary (returned, else None) at
    ``<stem>_summary.json``, where ``<stem>`` is ``os.path.splitext(out_path)[0]``."""
    stem = os.path.splitext(out_path)[0]
    rows = [r.to_dict() for r in reports]
    write_atomic(stem + ".json", (json.dumps(rows, indent=2, sort_keys=True) + "\n").encode())
    names = [f.name for f in fields(BenchReport)]
    _write_csv(stem + ".csv", [names] + [[row[n] for n in names] for row in rows])
    emit_plots(reports, stem + "_plot.csv")
    if not set(VARIANTS) <= {r.variant for r in reports}:
        return None
    summary = {"cells": len(reports), "ordering_regressions": ordering_regressions(reports)}
    write_atomic(stem + "_summary.json", json.dumps(summary, indent=2, sort_keys=True).encode())
    return summary


def _write_csv(path, rows):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    write_atomic(path, buf.getvalue().encode("utf-8"))


def emit_plots(reports, out_path):
    """Per-task bar-chart series: one (task, temperature, variant, tau) row per cell.

    Re-running on the same reports is byte-identical.
    """
    rows = sorted((r.task, r.temperature, r.variant, r.tau) for r in reports)
    _write_csv(out_path, [["task", "temperature", "variant", "tau"]] +
               [[*cell, f"{tau:.9f}"] for *cell, tau in rows])
