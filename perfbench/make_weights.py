"""Make the benchmark's fixed weights anew from the toy acceptance recipe.

    python3 perfbench/make_weights.py [--out DIR]

Trains, from the synthetic corpus (4000 documents, seed 1234), a 512-entry
BPE tokenizer, the toy target (400 pretraining steps) and the `fspad` draft
(500 distillation steps), both at learning rate 1e-3 with batch 16 x 96,
then writes `tokenizer.json`, `target.fspd` and `draft_fspad.fspd` and a
`SHA256SUMS` file listing their digests.  It takes about four minutes on
one core.  The benchmark itself never trains: it loads the committed files
and refuses them when a digest does not match `SHA256SUMS`.

Whether a fresh run reproduces the committed digests bit for bit depends
on the BLAS build, because float32 sums may be ordered differently.
"""

import argparse
import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from specdec import corpus as C  # noqa: E402
from specdec import model as M  # noqa: E402
from specdec import tokenizer as TK  # noqa: E402
from specdec import training as TR  # noqa: E402

FILES = ("tokenizer.json", "target.fspd", "draft_fspad.fspd")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_sums(out_dir):
    lines = [f"{sha256_file(os.path.join(out_dir, name))}  {name}\n" for name in FILES]
    with open(os.path.join(out_dir, "SHA256SUMS"), "w", encoding="utf-8") as f:
        f.writelines(lines)
    return "".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(HERE, "weights"))
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    docs = C.synthesize_documents(4000, seed=1234)
    tok = TK.build_tokenizer("\n".join(d.text for d in docs), 512)
    cfg = M.ModelConfig(vocab_size=tok.vocab_size)
    corpus = TR.TokenizedCorpus.build(docs, tok, cfg.max_seq_len, seed=0)
    tc = TR.TrainConfig(learning_rate=1e-3, steps=400, draft_steps=500,
                        batch_size=16, seq_len=96, seed=0)
    target = TR.pretrain_target(corpus, tc, cfg, progress=print)
    draft = TR.train_draft(target, corpus, tc, variant="fspad", progress=print)

    tok.save(os.path.join(args.out, "tokenizer.json"))
    M.save_checkpoint(target, os.path.join(args.out, "target.fspd"))
    M.save_checkpoint(draft, os.path.join(args.out, "draft_fspad.fspd"))
    print(write_sums(args.out), end="")


if __name__ == "__main__":
    main()
