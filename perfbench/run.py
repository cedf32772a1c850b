"""Decode-and-distill benchmark for the specdec package.

    python3 perfbench/run.py --workload short_greedy --seed 1 --seconds 30 --trace 0

Loads the committed toy weights (the target and the `fspad` draft) from
``perfbench/weights``, builds the workload's inputs from ``--seed``, and
measures for ``--seconds`` seconds with one BLAS thread in this one
process.  Workloads:

* ``short_greedy``: T=0 requests on short prompts of all three corpus
  tasks, default tree preset, stopped at EOS or 64 tokens;
* ``long_sampled``: T=0.8 requests on 320-token prompts cut from
  concatenated synthetic documents, exactly 64 tokens each;
* ``draft_train``: rounds of ``train_draft`` steps of the `fspad` draft
  from a fixed initialisation against the fixed target.

Decode workloads run ``vanilla_generate`` and ``SpeculativeEngine.generate``
on the same prompt, alternating which goes first.  Every output is checked
(see ``check_*``); a run whose outputs are wrong prints ``correct: false``.
With ``--trace 1`` the run measures half the time untraced, then replays
the same operations under the span tracer (``spans.py``) and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress and the
environment stamp go to standard error.  See README.md for every metric.
"""

import os
import sys

# one BLAS thread, set before numpy loads: the box has two cores and the
# benchmark is the only load generator
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402

import reference as R  # noqa: E402
import spans  # noqa: E402
import specdec  # noqa: E402
from specdec import corpus as C  # noqa: E402
from specdec import engine as E  # noqa: E402
from specdec import model as M  # noqa: E402
from specdec import tokenizer as TK  # noqa: E402
from specdec import training as TR  # noqa: E402
from specdec.errors import SpecDecError  # noqa: E402

WEIGHTS = os.path.join(HERE, "weights")
OUT = os.path.join(HERE, "out")
SETUPS = 3                 # setup_s is the median of this many set-ups
TIE_TOL = 1e-3             # float32 vs float64 logit gap that may reorder a tie
LOSS_RTOL = 2e-4           # float32 vs float64 composite loss
LOGLIK_SE = 6.0            # standard errors two lossless arms may differ by
PRESET = dict(depth=5, expand_k=8, select_m=8, budget=60)


@dataclasses.dataclass(frozen=True)
class Decode:
    temperature: float
    max_new: int
    stop_at_eos: bool


@dataclasses.dataclass(frozen=True)
class Train:
    docs: int              # synthetic documents tokenized into the corpus
    steps: int             # train_draft steps per round, from a fresh init


WORKLOADS = {
    "short_greedy": Decode(temperature=0.0, max_new=64, stop_at_eos=True),
    "long_sampled": Decode(temperature=0.8, max_new=64, stop_at_eos=False),
    "draft_train": Train(docs=640, steps=8),
}
SHORT_PER_TASK = 32
LONG_PROMPTS = 40
LONG_LEN = 320             # prompt + 64 + 61 tree rows stays within 512


def derive(seed, *key):
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# set-up


def read_sums():
    sums = {}
    with open(os.path.join(WEIGHTS, "SHA256SUMS"), encoding="utf-8") as f:
        for line in f:
            digest, name = line.split()
            sums[name] = digest
    return sums


def weight_path(name, sums):
    path = os.path.join(WEIGHTS, name)
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    if digest != sums[name]:
        raise SystemExit(f"{path}: sha256 {digest} does not match SHA256SUMS")
    return path


def short_prompts(tok, seed):
    per_task = [C.task_prompts(task, SHORT_PER_TASK, seed=derive(seed, 1, i))
                for i, task in enumerate(C.TASKS)]
    texts = [p for group in zip(*per_task) for p in group]   # tasks interleaved
    return [tok.encode(t, add_bos=True) for t in texts]


def long_prompts(tok, seed):
    prompts = []
    for j in range(LONG_PROMPTS):
        docs = iter(C.synthesize_documents(64, seed=derive(seed, 3, j)))
        text = next(docs).text
        while len(text) < 5 * LONG_LEN:    # about four bytes per token
            text += "\n" + next(docs).text
        ids = tok.encode(text, add_bos=True)
        if len(ids) < LONG_LEN:
            raise SystemExit(f"long prompt {j} has only {len(ids)} tokens")
        prompts.append(ids[:LONG_LEN])
    return prompts


def training_documents(n, seed):
    """Synthetic documents joined four at a time, so that every document
    outgrows a 97-token training window: all batches then have one shape,
    whatever the seed, and so do the allocations of every step."""
    docs = C.synthesize_documents(n, seed=derive(seed, 5))
    return [C.Document(docs[i].kind, [x for d in docs[i: i + 4] for x in d.sentences],
                       docs[i].split)
            for i in range(0, n - 3, 4)]


def setup(name, seed):
    spec = WORKLOADS[name]
    sums = read_sums()
    s = types.SimpleNamespace()
    s.spec = spec
    s.tok = TK.Tokenizer.load(weight_path("tokenizer.json", sums))
    s.target = M.load_checkpoint(weight_path("target.fspd", sums))
    if isinstance(spec, Decode):
        s.draft = M.load_checkpoint(weight_path("draft_fspad.fspd", sums), target=s.target)
        s.engine = E.SpeculativeEngine(s.target, E.ModelDrafter(s.draft, **PRESET))
        ids = short_prompts(s.tok, seed) if name == "short_greedy" else long_prompts(s.tok, seed)
        s.requests = [(p, derive(seed, 4, i)) for i, p in enumerate(ids)]
        s.eos = TK.EOS if spec.stop_at_eos else None
        s.op = decode_pair
        # a short warm-up, so that set-up time varies little with the seed
        prompt, gen_seed = s.requests[0]
        E.vanilla_generate(s.target, prompt, 8, temperature=spec.temperature, seed=gen_seed)
        s.engine.generate(prompt, 8, temperature=spec.temperature, seed=gen_seed)
    else:
        s.corpus = TR.TokenizedCorpus.build(training_documents(spec.docs, seed), s.tok,
                                            s.target.config.max_seq_len, seed=0)
        s.tc = TR.TrainConfig(learning_rate=1e-3, draft_steps=spec.steps, batch_size=16,
                              seq_len=96, seed=0)
        s.batches = draft_batches(s.corpus, s.tc)
        s.batch_tokens = sum(int(v.sum()) for _, v, _ in s.batches)
        os.makedirs(OUT, exist_ok=True)
        s.log_path = os.path.join(OUT, f"train-{os.getpid()}.jsonl")
        s.op = train_round
        TR.train_draft(s.target, s.corpus, dataclasses.replace(s.tc, draft_steps=1))  # warm-up
    return s


def draft_batches(corpus, tc):
    """The batches ``train_draft`` draws, by its documented stream rule."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=tc.seed, spawn_key=(4,)))
    docs = corpus.train_docs
    return [R.pad_batch([docs[i] for i in rng.integers(0, len(docs), size=tc.batch_size)],
                        tc.seq_len)
            for _ in range(tc.draft_steps)]


# --------------------------------------------------------------------------
# operations


def decode_pair(s, i):
    """Vanilla and speculative decoding of request i; the order alternates."""
    prompt, gen_seed = s.requests[i % len(s.requests)]
    kw = dict(temperature=s.spec.temperature, seed=gen_seed, eos_id=s.eos)
    arms = {
        "vanilla": lambda: E.vanilla_generate(s.target, prompt, s.spec.max_new, **kw),
        "spec": lambda: s.engine.generate(prompt, s.spec.max_new, **kw),
    }
    rec = {"request": i % len(s.requests), "failed": 0}
    for arm in (("vanilla", "spec") if i % 2 == 0 else ("spec", "vanilla")):
        t0 = time.perf_counter()
        try:
            tokens, stats = arms[arm]()
        except SpecDecError as e:
            log(f"request {i} {arm}: {type(e).__name__}: {e}")
            rec["failed"] += 1
            tokens, stats = None, None
        rec[arm] = (tokens, stats, time.perf_counter() - t0)
    return rec


def train_round(s, i):
    """``steps`` train_draft steps from the fixed init, and the teacher
    forward alone over the same batches; the order alternates."""
    rec = {"failed": 0}

    def train():
        try:
            TR.train_draft(s.target, s.corpus, s.tc, variant="fspad", log_path=s.log_path)
        except SpecDecError as e:
            log(f"round {i}: {type(e).__name__}: {e}")
            rec["failed"] = s.tc.draft_steps

    def teacher():
        for tokens, _, _ in s.batches:
            TR.extract_teacher_trace(s.target, tokens)

    for arm, fn in ((("train", train), ("teacher", teacher)) if i % 2 == 0
                    else (("teacher", teacher), ("train", train))):
        t0 = time.perf_counter()
        fn()
        rec[arm] = time.perf_counter() - t0
    if not rec["failed"]:
        with open(s.log_path, encoding="utf-8") as f:
            rec["losses"] = [json.loads(line)["L"] for line in f]
    return rec


def measure(s, seconds=None, count=None):
    """Run operations for ``seconds`` (at least one), or exactly ``count``."""
    recs = []
    stop = time.perf_counter() + (seconds or 0)

    def more():
        if count is not None:
            return len(recs) < count
        return not recs or time.perf_counter() < stop

    while more():
        recs.append(s.op(s, len(recs)))
    return recs


def outputs(rec):
    if "train" in rec:
        return rec.get("losses")
    return [rec[arm][0] for arm in ("vanilla", "spec")]


def attempted_failed(s, recs):
    per_op = 2 if isinstance(s.spec, Decode) else s.tc.draft_steps
    return per_op * len(recs), sum(r["failed"] for r in recs)


# --------------------------------------------------------------------------
# checks


def reference_weights():
    meta, tw = R.read_fspd(os.path.join(WEIGHTS, "target.fspd"))
    return meta["config"], tw


def first_of_each_request(recs):
    seen = {}
    for r in recs:
        if not r["failed"]:
            seen.setdefault(r["request"], r)
    return list(seen.values())


def check_short_greedy(s, recs):
    """Speculative == vanilla on every request, and both are the greedy
    tokens of the float64 reference."""
    ok = True
    for r in recs:
        if not r["failed"] and r["spec"][0] != r["vanilla"][0]:
            log(f"request {r['request']}: speculative output differs from vanilla")
            ok = False
    config, tw = reference_weights()
    distinct = first_of_each_request(recs)
    ties = 0
    for r in distinct:
        prompt = s.requests[r["request"]][0]
        bad, near = R.greedy_mismatches(tw, config, prompt, r["spec"][0], TIE_TOL)
        ties += near
        if bad:
            log(f"request {r['request']}: {bad} tokens are not the reference argmax")
            ok = False
    log(f"greedy check: {len(distinct)} distinct requests, {ties} reference near-ties")
    return ok


def check_long_sampled(s, recs):
    """No truncation, replay gives identical tokens, and the two arms'
    reference log-likelihoods per token agree within LOGLIK_SE standard
    errors (each request's two arms sample the same distribution)."""
    ok = True
    for r in recs:
        for arm in ("vanilla", "spec"):
            tokens, stats, _ = r[arm]
            if tokens is not None and (stats.truncated or len(tokens) != s.spec.max_new):
                log(f"request {r['request']} {arm}: {len(tokens)} tokens, "
                    f"truncated={stats.truncated}")
                ok = False
    replay = decode_pair(s, 0)
    for arm in ("vanilla", "spec"):
        if replay[arm][0] != recs[0][arm][0]:
            log(f"replayed request 0 {arm}: tokens differ")
            ok = False
    distinct = first_of_each_request(recs)
    i = len(recs)
    while len(distinct) < 4:                    # too short a run for the test
        distinct.append(decode_pair(s, i))
        i += 1
    config, tw = reference_weights()
    diffs = []
    for r in distinct:
        prompt = s.requests[r["request"]][0]
        ll = {arm: R.token_loglik(tw, config, prompt, r[arm][0], s.spec.temperature).mean()
              for arm in ("vanilla", "spec")}
        diffs.append(ll["spec"] - ll["vanilla"])
    mean, se = float(np.mean(diffs)), float(np.std(diffs, ddof=1) / math.sqrt(len(diffs)))
    log(f"log-likelihood check: spec - vanilla = {mean:+.4f} nats/token, "
        f"se {se:.4f}, {len(diffs)} requests")
    if abs(mean) > LOGLIK_SE * se:
        ok = False
    return ok


def check_draft_train(s, recs):
    """Losses are finite and their second half averages below their first
    half in every round, every round repeats the first exactly (fixed init,
    fixed batches), and the first step's composite loss matches the float64
    reference."""
    ok = True
    first = None
    for r in recs:
        if r["failed"]:
            continue
        losses = r["losses"]
        half = len(losses) // 2
        if not all(math.isfinite(v) for v in losses) or \
                np.mean(losses[half:]) >= np.mean(losses[:half]):
            log(f"round losses do not fall: {losses}")
            ok = False
        if first is None:
            first = losses
        elif losses != first:
            log("a repeated round gave different losses")
            ok = False
    if first is None:
        return ok
    config, tw = reference_weights()
    init = M.DraftModel(s.target.config, s.target, variant="fspad", seed=s.tc.seed + 1)
    dw = {n: t.data.astype(np.float64) for n, t in init.named_tensors().items()}
    tokens, valid, response = s.batches[0]
    want = R.draft_composite_loss(tw, dw, config, "fspad", tokens, valid, response,
                                  s.tc.loss_weight)
    log(f"first-step loss {first[0]:.6f}, reference {want:.6f}")
    if abs(first[0] - want) > LOSS_RTOL * abs(want):
        ok = False
    return ok


CHECKS = {"short_greedy": check_short_greedy, "long_sampled": check_long_sampled,
          "draft_train": check_draft_train}


# --------------------------------------------------------------------------
# metrics


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(s, recs, setup_times):
    done = [r for r in recs if not r["failed"]]
    if isinstance(s.spec, Decode):
        spec_tokens = sum(len(r["spec"][0]) for r in done)
        tokens_per_s = spec_tokens / sum(r["spec"][2] for r in done)
        baseline = sum(len(r["vanilla"][0]) for r in done) / sum(r["vanilla"][2] for r in done)
        token_ms = statistics.median(r["spec"][2] * 1000 / len(r["spec"][0]) for r in done)
    else:
        tokens_per_s = s.batch_tokens * len(done) / sum(r["train"] for r in done)
        baseline = s.batch_tokens * len(done) / sum(r["teacher"] for r in done)
        token_ms = statistics.median(r["train"] * 1000 / s.batch_tokens for r in done)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "tokens_per_s": metric(tokens_per_s, "tok/s"),
        "baseline_tokens_per_s": metric(baseline, "tok/s"),
        "ms_per_token_p50": metric(token_ms, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


SPEC = "engine.SpeculativeEngine.generate"
VANILLA = "engine.vanilla_generate"
TRAIN = "training.train_draft"
FWD = "model.TargetModel.forward"
MODULES = ("engine", "tree", "model", "tensor", "training", "tokenizer")


def op_wall(s, r):
    if isinstance(s.spec, Decode):
        return r["spec"][2] + r["vanilla"][2]
    return r["train"] + r["teacher"]


PER_LAYER = {
    "engine.tau": "tok/pass", "engine.accept_len_mean": "tok",
    **{f"engine.alpha_d{d}": "ratio" for d in range(1, PRESET["depth"] + 1)},
    "engine.tree_utilization": "ratio", "engine.verify_ms": "ms", "engine.speedup": "ratio",
    "tree.build_ms": "ms", "tree.build_self_ms": "ms", "tree.nodes_per_step": "count",
    "tree.draft_passes_per_step": "count", "tree.mask_ms": "ms",
    "model.target_verify_ms": "ms", "model.target_decode_ms": "ms",
    "model.target_prefill_ms": "ms", "model.draft_forward_ms": "ms", "model.draft_sync_ms": "ms",
    "model.kv_append_ms": "ms", "model.kv_keep_ms": "ms",
    "model.kv_bytes_copied_per_token": "B/tok", "model.teacher_forward_ms": "ms",
    "tensor.objects_per_token": "count", "tensor.backward_ms": "ms", "tensor.adamw_ms": "ms",
    "training.step_ms": "ms", "tokenizer.encode_us_per_byte": "us/B", "trace.overhead_pct": "%",
    **{f"split.{mod}_ms": "ms" for mod in MODULES},
}


def per_layer(s, recs_a, recs_b, tracer, mark, setup_counters):
    """Values of the PER_LAYER metrics this workload exercises, from the
    spans and counters of the traced replay ``recs_b``."""
    agg = tracer.summary(mark)

    def calls(root, name):
        return agg.get((root, name), (0, 0.0, 0.0))[0]

    def total(root, name):
        return agg.get((root, name), (0, 0.0, 0.0))[1]

    def self_ms(root, name):
        return agg.get((root, name), (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    done = [r for r in recs_b if not r["failed"]]
    if isinstance(s.spec, Decode):
        stats = [r["spec"][1] for r in done]
        steps = sum(st.target_passes for st in stats)
        spec_tokens = sum(st.emitted for st in stats)
        accepted = [a for st in stats for a in st.accepted_lengths]
        sizes = [n for st in stats for n in st.tree_sizes]
        untraced = [r for r in recs_a if not r["failed"]]
        m["engine.tau"] = ratio(spec_tokens, steps)
        m["engine.accept_len_mean"] = ratio(sum(accepted), len(accepted))
        for d in range(1, PRESET["depth"] + 1):
            reached = sum(a >= d - 1 for a in accepted)
            m[f"engine.alpha_d{d}"] = ratio(sum(a >= d for a in accepted), reached)
        m["engine.tree_utilization"] = ratio(sum(accepted) + len(accepted), sum(sizes))
        m["engine.verify_ms"] = ratio(total(SPEC, "engine.verify_greedy")
                                      + total(SPEC, "engine.verify_stochastic"), steps)
        m["engine.speedup"] = ratio(sum(r["vanilla"][2] for r in untraced),
                                    sum(r["spec"][2] for r in untraced))
        m["tree.build_ms"] = ratio(total(SPEC, "tree.build_draft_tree"), steps)
        m["tree.build_self_ms"] = ratio(self_ms(SPEC, "tree.build_draft_tree"), steps)
        m["tree.nodes_per_step"] = ratio(sum(sizes), steps)
        m["tree.draft_passes_per_step"] = ratio(sum(st.draft_passes for st in stats), steps)
        m["tree.mask_ms"] = ratio(total(SPEC, "tree.tree_attention_mask"), steps)
        verify, decode, prefill = (FWD + "[verify]", FWD + "[decode]", FWD + "[prefill]")
        m["model.target_verify_ms"] = ratio(total(SPEC, verify), calls(SPEC, verify))
        m["model.target_decode_ms"] = ratio(total(VANILLA, decode), calls(VANILLA, decode))
        m["model.target_prefill_ms"] = ratio(total(SPEC, prefill) + total(VANILLA, prefill),
                                             calls(SPEC, prefill) + calls(VANILLA, prefill))
        m["model.draft_forward_ms"] = ratio(total(SPEC, "model.DraftModel.forward"), steps)
        m["model.draft_sync_ms"] = ratio(self_ms(SPEC, "engine.ModelDrafter.propose"), steps)
        m["model.kv_append_ms"] = ratio(total(SPEC, "model.KvCache.append"), steps)
        m["model.kv_keep_ms"] = ratio(total(SPEC, "model.KvCache.keep"), steps)
        m["model.kv_bytes_copied_per_token"] = ratio(
            tracer.counters.get((SPEC, "kv_bytes"), 0), spec_tokens)
        m["tensor.objects_per_token"] = ratio(tracer.counters.get((SPEC, "tensors"), 0),
                                              spec_tokens)
    else:
        steps = s.tc.draft_steps * len(done)
        m["model.teacher_forward_ms"] = ratio(total(TRAIN, "training.extract_teacher_trace"),
                                              steps)
        m["tensor.backward_ms"] = ratio(total(TRAIN, "tensor.backward"), steps)
        m["tensor.adamw_ms"] = ratio(total(TRAIN, "tensor.AdamW.step"), steps)
        m["training.step_ms"] = ratio(total(TRAIN, TRAIN), steps)
        m["tensor.objects_per_token"] = ratio(tracer.counters.get((TRAIN, "tensors"), 0),
                                              s.batch_tokens * len(done))

    encode = "tokenizer.Tokenizer.encode"
    encode_ms = sum(v[1] for (root, name), v in tracer.summary(0).items() if name == encode)
    encoded = sum(v for (root, c), v in setup_counters.items() if c == "encoded_bytes")
    m["tokenizer.encode_us_per_byte"] = ratio(1000 * encode_ms, encoded)
    wall_a = sum(op_wall(s, r) for r in recs_a)
    wall_b = sum(op_wall(s, r) for r in recs_b)
    m["trace.overhead_pct"] = 100 * (wall_b / wall_a - 1)
    ops = attempted_failed(s, recs_b)[0]
    for mod in MODULES:
        mine = sum(v[2] for (root, name), v in agg.items() if name.split(".")[0] == mod)
        m[f"split.{mod}_ms"] = ratio(mine, ops)
    return m


# --------------------------------------------------------------------------


def environment_stamp():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
            f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, nproc {os.cpu_count()}, "
            f"specdec {specdec.__version__}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="specdec decode-and-distill benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    log(environment_stamp())

    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        s = setup(args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)
    log(f"{args.workload}: set-up {[round(t, 3) for t in setup_times]} s")

    if not args.trace:
        recs = measure(s, seconds=args.seconds)
        metrics = end_to_end(s, recs, setup_times)
    else:
        recs = measure(s, seconds=args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            s_b = setup(args.workload, args.seed)
            setup_counters, tracer.counters = tracer.counters, {}
            mark = len(tracer)
            recs_b = measure(s_b, count=len(recs))
        finally:
            tracer.uninstall()
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz"))
        found = per_layer(s, recs, recs_b, tracer, mark, setup_counters)
        metrics = {name: metric(found.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}
        same = all(outputs(a) == outputs(b) for a, b in zip(recs, recs_b))
        if not same:
            log("traced replay gave different outputs")
        log(f"traced {len(tracer)} spans over {len(recs)} operations")
    attempted, failed = attempted_failed(s, recs)
    correct = CHECKS[args.workload](s, recs) and (not args.trace or same)
    if isinstance(s.spec, Train) and os.path.exists(s.log_path):
        os.remove(s.log_path)
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
