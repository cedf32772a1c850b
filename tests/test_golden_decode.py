"""Recorded speculative decodes of the committed benchmark weights.

``golden_decode.json`` holds, for 12 short task prompts at T=0 and 4 at
T=0.8, the tokens, accepted lengths, tree sizes and pass counts of
``SpeculativeEngine.generate`` with the ``fspad`` draft, twice: with
trees sized by ``FIXED_BUDGET`` (every cap used), and with the production
trees that ``COSTS`` prices (keys suffixed ``/costs``).  At both
temperatures the tokens are ``vanilla_generate``'s.  Any change to the
engine step, the builder, the cost table or the KV caches that is meant to
keep every token, tree and pass must leave them as recorded.  Regenerate
(only for a change that is meant to move them) with

    PYTHONPATH=src python tests/test_golden_decode.py
"""

import json
import os
import sys

import numpy as np

from specdec import corpus as C
from specdec import engine as E
from specdec import model as M
from specdec import tokenizer as TK
from specdec import tree as TR

HERE = os.path.dirname(os.path.abspath(__file__))
WEIGHTS = os.path.join(os.path.dirname(HERE), "perfbench", "weights")
GOLDEN = os.path.join(HERE, "golden_decode.json")
PRESET = dict(depth=5, expand_k=8, select_m=8, budget=60)
MAX_NEW = 24
REQUESTS = [(task, i, 0.0) for i in range(4) for task in C.TASKS] + \
           [(task, 4, 0.8) for task in C.TASKS] + [(C.TASKS[0], 5, 0.8)]
TABLES = {"": TR.FIXED_BUDGET, "/costs": TR.COSTS}  # key suffix -> the drafter's table


def load_target():
    tok = TK.Tokenizer.load(os.path.join(WEIGHTS, "tokenizer.json"))
    return tok, M.load_checkpoint(os.path.join(WEIGHTS, "target.fspd"))


def requests(tok):
    """(key, prompt ids, decode keywords) of every recorded request."""
    prompts = {task: C.task_prompts(task, 6, seed=7) for task in C.TASKS}
    for task, i, temperature in REQUESTS:
        yield (f"{task}/{i}/T={temperature}", tok.encode(prompts[task][i], add_bos=True),
               dict(temperature=temperature, seed=100 + i, eos_id=TK.EOS))


def golden_decodes():
    tok, target = load_target()
    draft = M.load_checkpoint(os.path.join(WEIGHTS, "draft_fspad.fspd"), target=target)
    drafter = E.ModelDrafter(draft, **PRESET)
    engine = E.SpeculativeEngine(target, drafter)
    out = {}
    for suffix, table in TABLES.items():
        drafter.latency = table
        for key, ids, kw in requests(tok):
            tokens, stats = engine.generate(ids, MAX_NEW, **kw)
            out[key + suffix] = {
                "prompt": ids, "tokens": tokens, "accepted_lengths": stats.accepted_lengths,
                "tree_sizes": stats.tree_sizes, "draft_passes": stats.draft_passes,
                "target_passes": stats.target_passes}
    return out


def test_decodes_match_recorded():
    with open(GOLDEN, encoding="utf-8") as f:
        want = json.load(f)
    got = golden_decodes()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key
    # the recording is not trivial: trees grew and drafts were accepted
    assert max(max(d["accepted_lengths"]) for d in want.values()) >= 2
    assert np.mean([n for d in want.values() for n in d["tree_sizes"]]) > 1


def test_recorded_tokens_are_vanilla_tokens():
    # at every temperature the speculative decode emits vanilla's tokens
    with open(GOLDEN, encoding="utf-8") as f:
        want = json.load(f)
    assert len(want) == len(TABLES) * len(REQUESTS)
    tok, target = load_target()
    for key, ids, kw in requests(tok):
        tokens = E.vanilla_generate(target, ids, MAX_NEW, **kw)[0]
        for suffix in TABLES:
            assert tokens == want[key + suffix]["tokens"], key + suffix


def dump(decodes):
    """One request per line, so that a diff names the requests that moved."""
    lines = [f"{json.dumps(key)}: {json.dumps(decode, sort_keys=True)}"
             for key, decode in sorted(decodes.items())]
    return ("{\n" + ",\n".join(lines) + "\n}\n").encode("utf-8")


if __name__ == "__main__":
    sys.exit(M.write_atomic(GOLDEN, dump(golden_decodes())))
