"""The corpus sampler draws what ``Generator.choice(p=...)`` draws."""

import numpy as np
import pytest

import oracles as O
from specdec import corpus as C


def test_draw_is_generator_choice():
    weights_rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4, 10, 12, 50):
        weights = weights_rng.random(n) + 0.01
        weights /= weights.sum()
        cdf = C._cdf(weights)
        ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(2000):
            assert C._draw(ours, cdf) == theirs.choice(n, p=weights)
        assert ours.random() == theirs.random()  # both streams at the same place


@pytest.mark.parametrize("seed", [0, 1, 99, 1234, 2**40 + 7])
def test_documents_prompts_and_corpus_match_generator_choice(seed, monkeypatch):
    def outputs():
        docs = [(d.kind, d.sentences, d.split) for d in C.synthesize_documents(300, seed)]
        prompts = [C.task_prompts(task, 12, seed) for task in C.TASKS]
        return docs, prompts, "\n".join(doc.text for doc in C.synthesize_documents(150, seed))

    ours = outputs()
    monkeypatch.setattr(C, "_zipf_choice", O.zipf_choice_by_generator)
    monkeypatch.setattr(C, "_doc_kind", O.doc_kind_by_generator)
    assert outputs() == ours
