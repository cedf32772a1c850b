"""The span names the benchmark's per-layer metrics read are really recorded.

``perfbench/run.py::per_layer`` looks spans up by name (module, class and
function) under the root span of each operation.  A rename in the package
would make such a metric read 0 without any error, so this test runs one
speculative generation at each temperature, one vanilla generation, one
``train_draft`` step and one tokenizer encode on a micro stack under the
benchmark's own tracer (``perfbench/spans.py``, imported unchanged) and
checks every (root, span) pair and counter those metrics read.
"""

import os
import sys

import numpy as np

from specdec import corpus as C
from specdec import engine as E
from specdec import model as M
from specdec import tokenizer as TK
from specdec import training as TR

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import spans  # noqa: E402

SPEC = "engine.SpeculativeEngine.generate"
VANILLA = "engine.vanilla_generate"
TRAIN = "training.train_draft"
FWD = "model.TargetModel.forward"

READ = {
    SPEC: ("engine.verify_greedy", "engine.verify_stochastic", "engine.ModelDrafter.propose",
           "tree.build_draft_tree", "tree.tree_attention_mask", FWD + "[prefill]",
           FWD + "[verify]", "model.DraftModel.forward", "model.KvCache.append",
           "model.KvCache.keep"),
    VANILLA: (FWD + "[prefill]", FWD + "[decode]"),
    TRAIN: (TRAIN, "training.extract_teacher_trace", "tensor.backward", "tensor.AdamW.step"),
    "tokenizer.Tokenizer.encode": ("tokenizer.Tokenizer.encode",),
}
COUNTERS = ((SPEC, "kv_bytes"), (SPEC, "tensors"), (TRAIN, "tensors"))


def test_per_layer_span_names_are_recorded():
    docs = C.synthesize_documents(40, seed=0)
    tok = TK.build_tokenizer("\n".join(d.text for d in docs), 300)
    cfg = M.ModelConfig(vocab_size=tok.vocab_size, hidden_size=16, intermediate_size=24,
                        n_layers=2, n_heads=2, max_seq_len=128)
    corpus = TR.TokenizedCorpus.build(docs, tok, cfg.max_seq_len, eval_frac=0.2, seed=0)
    target = M.TargetModel(cfg, seed=1)
    engine = E.SpeculativeEngine(target, E.ModelDrafter(M.DraftModel(cfg, target, seed=2),
                                                        depth=3, expand_k=3, select_m=3,
                                                        budget=8))
    prompt = np.random.default_rng(3).integers(0, cfg.vocab_size, size=6).tolist()
    tc = TR.TrainConfig(draft_steps=1, batch_size=4, seq_len=64, learning_rate=1e-3)

    tracer = spans.Tracer()
    tracer.install()
    try:
        E.vanilla_generate(target, prompt, 8)
        engine.generate(prompt, 12, temperature=0.0)
        engine.generate(prompt, 12, temperature=0.8, seed=4)
        TR.train_draft(target, corpus, tc)
        tok.encode(docs[0].text)
    finally:
        tracer.uninstall()

    recorded = set(tracer.summary())
    missing = [(root, name) for root, names in READ.items() for name in names
               if (root, name) not in recorded]
    assert not missing
    assert all(tracer.counters.get(key, 0) > 0 for key in COUNTERS)
    # a counter hook runs after its span has closed: the bytes land on the outer root
    assert sum(v for (_, c), v in tracer.counters.items() if c == "encoded_bytes") > 0
