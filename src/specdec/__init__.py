"""Desk-scale lossless speculative decoding.

A small decoder-only target model, a one-layer feature-level draft model
with a gated feature-fusion connector, dynamic token-tree drafting,
strictly lossless verification, and a benchmark harness reporting
average acceptance length and speedup.
"""

__version__ = "0.1.0"

from . import bench, corpus, engine, model, tensor, tokenizer, training, tree
from .bench import BenchConfig, BenchReport, DraftingConfig, run_ablation, run_bench
from .engine import (
    ModelDrafter,
    SpeculativeEngine,
    vanilla_generate,
    verify_greedy,
    verify_stochastic,
)
from .errors import (
    CapacityError,
    CheckpointFormatError,
    ConfigError,
    ContractError,
    DimensionError,
    NumericError,
    SpecDecError,
    TrainingError,
)
from .model import (
    DraftModel,
    FeatureSampler,
    KvCache,
    ModelConfig,
    TargetModel,
    load_checkpoint,
    save_checkpoint,
)
from .tensor import AdamW, Tensor, backward, no_grad
from .tokenizer import Tokenizer, build_tokenizer
from .training import TokenizedCorpus, TrainConfig, pretrain_target, train_draft
from .tree import TokenTree, build_draft_tree, tree_attention_mask
