"""Desk-scale lossless speculative decoding.

A small decoder-only target model, a one-layer feature-level draft model
with a gated feature-fusion connector, dynamic token-tree drafting,
strictly lossless verification, and a benchmark harness reporting
average acceptance length and speedup.
"""

__version__ = "0.1.0"

from . import bench, corpus, engine, model, tensor, tokenizer, training, tree
