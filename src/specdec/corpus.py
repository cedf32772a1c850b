"""Deterministic synthetic text corpus and benchmark task prompts.

Documents come in three kinds, mirroring the benchmark tasks:

* ``prose`` — templated sentences with Zipf-weighted word pools, so the
  trained target has confident continuations;
* ``copy`` — short lists restated verbatim several times (context
  overlap, the easy case for drafting);
* ``math`` — small-addition equations, a patterned-output task.

Every document records a sentence-boundary split: text before the split
plays the prompt role and is excluded from training losses, text after
it is the supervised response region.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import ContractError

SUBJECTS = ["the fox", "the owl", "the river", "the old clock", "the gardener",
            "the small cat", "the ship", "the moon", "the librarian", "the kettle",
            "the lighthouse", "the last train"]
VERBS = ["watches", "follows", "remembers", "crosses", "guards", "finds",
         "ignores", "circles", "passes", "mirrors"]
OBJECTS = ["the quiet field", "the stone bridge", "the green door", "the long road",
           "the silver bell", "the garden wall", "the empty harbor", "the paper map",
           "the iron gate", "the low hill"]
TAILS = ["at dawn", "in the rain", "after dark", "every morning",
         "without a sound", "in silence", "once again", "for a while",
         "before the storm", "by accident"]
CONNECTIVES = ["and then", "meanwhile", "later that day", "soon after"]

LIST_TOPICS = {
    "colors": ["red", "blue", "green", "amber", "violet", "gray"],
    "tools": ["hammer", "saw", "chisel", "plane", "file", "awl"],
    "ports": ["dover", "calais", "bergen", "riga", "malta", "cadiz"],
    "trees": ["oak", "elm", "pine", "birch", "cedar", "ash"],
}


def _cdf(weights):
    """``Generator.choice``'s own CDF of ``p=weights``: the cumulative sum,
    divided by its last entry."""
    cdf = np.asarray(weights, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _draw(rng, cdf):
    """The index ``rng.choice(len(cdf), p=...)`` draws, from the same one
    ``rng.random()`` and the same right-side search of the CDF."""
    return bisect_right(cdf, rng.random())


def _zipf_cdf(n):
    weights = 1.0 / (np.arange(n) + 1.5)
    weights /= weights.sum()
    return _cdf(weights)


_ZIPF_CDFS = {len(pool): _zipf_cdf(len(pool))
              for pool in (SUBJECTS, VERBS, OBJECTS, TAILS, CONNECTIVES)}


def _zipf_choice(rng, pool):
    return pool[_draw(rng, _ZIPF_CDFS[len(pool)])]


def _prose_sentence(rng):
    core = [_zipf_choice(rng, SUBJECTS), _zipf_choice(rng, VERBS),
            _zipf_choice(rng, OBJECTS)]
    if rng.random() < 0.25:
        core += ["while", _zipf_choice(rng, SUBJECTS), _zipf_choice(rng, VERBS),
                 _zipf_choice(rng, OBJECTS)]
    else:
        core.append(_zipf_choice(rng, TAILS))
    return " ".join(core + ["."])


def _prose_doc(rng):
    n = int(rng.integers(3, 7))
    parts = [_prose_sentence(rng)]
    for _ in range(n - 1):
        if rng.random() < 0.5:
            parts.append(_zipf_choice(rng, CONNECTIVES) + " " + _prose_sentence(rng))
        else:
            parts.append(_prose_sentence(rng))
    return parts


def _copy_doc(rng):
    topic = list(LIST_TOPICS)[int(rng.integers(len(LIST_TOPICS)))]
    items = LIST_TOPICS[topic]
    k = int(rng.integers(3, len(items) + 1))
    chosen = ", ".join(items[:k])
    first = f"list of {topic} : {chosen} ."
    repeat = f"again : {chosen} ."
    return [first] + [repeat] * int(rng.integers(2, 5))


def _math_doc(rng):
    lines = []
    for _ in range(int(rng.integers(3, 7))):
        a = int(rng.integers(0, 31))
        b = int(rng.integers(0, 31))
        lines.append(f"{a} + {b} = {a + b} .")
    return lines


DOC_KINDS = ("prose", "copy", "math")
_KIND_WEIGHTS = (0.55, 0.20, 0.25)
_KIND_CDF = _cdf(_KIND_WEIGHTS)


def _doc_kind(rng):
    return DOC_KINDS[_draw(rng, _KIND_CDF)]


class Document:
    __slots__ = ("kind", "sentences", "split")

    def __init__(self, kind, sentences, split):
        self.kind = kind
        self.sentences = sentences
        self.split = split  # sentence index where the response region starts

    @property
    def text(self):
        return " ".join(self.sentences)

    @property
    def prompt_text(self):
        return " ".join(self.sentences[: self.split])

    @property
    def response_text(self):
        return " ".join(self.sentences[self.split:])


def synthesize_documents(n_docs, seed=1234):
    """Seed-deterministic document list; the response region is never empty."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    docs = []
    makers = {"prose": _prose_doc, "copy": _copy_doc, "math": _math_doc}
    for _ in range(n_docs):
        kind = _doc_kind(rng)
        sentences = makers[kind](rng)
        split = int(rng.integers(1, len(sentences)))
        docs.append(Document(kind, sentences, split))
    return docs


def task_prompts(task, n, seed=99):
    """Prompt strings for one benchmark task."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    prompts = []
    if task == "continuation":
        for doc in synthesize_documents(4 * n, seed=seed + 1):
            if doc.kind == "prose" and len(prompts) < n:
                prompts.append(doc.prompt_text + " ")
    elif task == "copy":
        for _ in range(n):
            topic = list(LIST_TOPICS)[int(rng.integers(len(LIST_TOPICS)))]
            items = LIST_TOPICS[topic]
            k = int(rng.integers(3, len(items) + 1))
            chosen = ", ".join(items[:k])
            prompts.append(f"list of {topic} : {chosen} . again : {chosen} . again :")
    elif task == "arithmetic":
        for _ in range(n):
            a, b = int(rng.integers(0, 31)), int(rng.integers(0, 31))
            c, d = int(rng.integers(0, 31)), int(rng.integers(0, 31))
            prompts.append(f"{a} + {b} = {a + b} . {c} + {d} =")
    else:
        raise ContractError(f"unknown task {task!r}; expected continuation/copy/arithmetic")
    if len(prompts) < n:
        raise ContractError(f"could not assemble {n} prompts for task {task!r}")
    return prompts


TASKS = ("continuation", "copy", "arithmetic")
