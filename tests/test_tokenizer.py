"""Byte-fallback BPE tests."""

import importlib.util
import os
import sys

import numpy as np
import pytest

import oracles as O
from specdec import corpus as C
from specdec import tokenizer as TK
from specdec import training as TR
from specdec.errors import CheckpointFormatError, ContractError
from test_model import fail_writes_halfway

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


class TestRoundTrip:
    def test_arbitrary_bytes(self):
        rng = np.random.default_rng(0)
        tok = TK.build_tokenizer("hello world, hello tokens, hello bytes", 300)
        for _ in range(30):
            raw = bytes(rng.integers(0, 256, size=int(rng.integers(0, 80))).tolist())
            assert tok.decode_bytes(tok.encode(raw)) == raw

    def test_text_round_trip(self):
        tok = TK.build_tokenizer("the quick brown fox jumps over the lazy dog " * 20, 280)
        s = "the quick brown fox"
        assert tok.decode(tok.encode(s)) == s

    def test_specials(self):
        tok = TK.Tokenizer()
        ids = tok.encode("ab", add_bos=True, add_eos=True)
        assert ids[0] == TK.BOS and ids[-1] == TK.EOS
        assert tok.decode(ids) == "ab"


class TestVocabulary:
    def test_pure_byte_tokenizer(self):
        tok = TK.build_tokenizer("abcabc", 258)
        assert tok.vocab_size == 258
        assert tok.merges == []
        assert tok.encode("abc") == [97, 98, 99]

    def test_most_frequent_bigram_first_merge(self):
        text = "ababab xyxy ab ab"
        # frequency-count oracle over byte bigrams within whitespace chunks
        data = text.encode()
        counts = {}
        for i in range(len(data) - 1):
            if data[i + 1] in (9, 10, 13, 32):
                continue  # next byte starts a new chunk
            pair = (data[i], data[i + 1])
            counts[pair] = counts.get(pair, 0) + 1
        best = max(counts.items(), key=lambda kv: kv[1])[0]
        tok = TK.build_tokenizer(text, 259)
        assert tok.merges[0] == best

    def test_vocab_size_respected(self):
        tok = TK.build_tokenizer("aaaabbbbccccdddd" * 50, 264)
        assert tok.vocab_size <= 264
        assert tok.vocab_size > 258

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            TK.build_tokenizer("", 300)

    def test_too_small_vocab_rejected(self):
        with pytest.raises(ContractError):
            TK.build_tokenizer("abc", 100)


class TestMergePass:
    """The merge rule on the program's ``_merge``, ``encode`` and
    ``build_tokenizer``, and on the whole-text oracle."""

    def _starts(self, n):
        s = np.zeros(n, dtype=bool)
        s[0] = True
        return s

    def test_overlapping_same_byte_runs(self):
        assert TK._merge([7, 7, 7, 7, 7], 7, 7, 99) == [99, 99, 7]
        ids = np.array([7, 7, 7, 7, 7], dtype=np.int32)
        out, _ = O._merge_pass(ids, self._starts(5), 7, 7, 99)
        np.testing.assert_array_equal(out, [99, 99, 7])
        assert TK.Tokenizer(merges=[(97, 97)]).encode("aaaaa") == [258, 258, 97]
        # "aaa" holds two overlapping (a, a) pairs, which count as two, but
        # merging leaves [258, 97], so no pair repeats after the first merge
        assert TK.build_tokenizer("aaa", 262).merges == [(97, 97)]

    def test_interleaved(self):
        assert TK._merge([1, 2, 1, 2], 1, 2, 50) == [50, 50]
        ids = np.array([1, 2, 1, 2], dtype=np.int32)
        out, _ = O._merge_pass(ids, self._starts(4), 1, 2, 50)
        np.testing.assert_array_equal(out, [50, 50])
        assert TK.Tokenizer(merges=[(97, 98)]).encode("abab") == [258, 258]
        assert TK.build_tokenizer("abab", 262).merges == [(97, 98)]

    def test_merges_never_cross_chunk_boundary(self):
        ids = np.array([1, 2, 1, 2], dtype=np.int32)
        starts = np.array([True, False, True, False])
        out, starts_out = O._merge_pass(ids, starts, 1, 2, 50)
        np.testing.assert_array_equal(out, [50, 50])
        # pair (2, 1) across the boundary must never merge
        out2, _ = O._merge_pass(out, starts_out, 50, 50, 60)
        np.testing.assert_array_equal(out2, [50, 50])
        # (a, tab) spans a chunk boundary: it is neither applied nor learned,
        # although across the whole text it is the most frequent pair
        assert TK.Tokenizer(merges=[(97, 9)]).encode("a\ta") == [97, 9, 97]
        assert TK.build_tokenizer("a\ta\ta\ta\t", 262).merges == [(9, 97)]


class TestBoundaryStability:
    def test_word_boundary_prompt_is_token_prefix(self):
        text = "list of colors : red , blue . again : red , blue . " * 30
        tok = TK.build_tokenizer(text, 320)
        full = "list of colors : red , blue . again : red , blue ."
        prompt = "list of colors : red , blue . again :"
        pids = tok.encode(prompt)
        fids = tok.encode(full)
        assert fids[: len(pids)] == pids


class TestPersistence:
    def test_save_load(self, tmp_path):
        tok = TK.build_tokenizer("some repeated text, some repeated text", 270)
        path = tmp_path / "tok.json"
        tok.save(path)
        back = TK.Tokenizer.load(path)
        assert back.merges == tok.merges
        s = "some repeated text"
        assert back.encode(s) == tok.encode(s)

    def test_failed_save_keeps_earlier_file(self, tmp_path, monkeypatch):
        tok = TK.build_tokenizer("some repeated text, some repeated text", 270)
        path = tmp_path / "tok.json"
        tok.save(path)
        before = path.read_bytes()
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError):
            TK.build_tokenizer("other words, other words", 270).save(path)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["tok.json"]  # no temp file left behind
        assert path.read_bytes() == before
        assert TK.Tokenizer.load(path).merges == tok.merges

    @pytest.mark.parametrize("text", ['{"merges": [[104, 105], [258',   # truncated
                                      '{"merge": []}',                   # no merges
                                      '{"merges": [[999, 2]]}',          # id not yet made
                                      '{"merges": [[104, 258]]}',        # its own id
                                      '[[104, 105]]'])                   # not an object
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "tok.json"
        path.write_text(text)
        with pytest.raises(CheckpointFormatError):
            TK.Tokenizer.load(path)


class TestValidation:
    @pytest.mark.parametrize("merges", [[(999, 2)],          # id not yet made
                                        [(97, 258)],         # its own id
                                        [(97, 98), (259, 97)],
                                        [(-1, 97)],
                                        [(97,)],
                                        [(97, 98, 99)],
                                        [("a", 98)],
                                        [97],
                                        [[True, False]]])
    def test_bad_merge_is_contract_error(self, merges):
        with pytest.raises(ContractError):
            TK.Tokenizer(merges=merges)

    @pytest.mark.parametrize("bad", [-1, 600, 259])
    def test_decode_out_of_range_is_contract_error(self, bad):
        tok = TK.Tokenizer(merges=[(97, 98)])  # ids 0..258
        with pytest.raises(ContractError):
            tok.decode([97, bad])
        with pytest.raises(ContractError):
            tok.decode_bytes([bad])

    def test_escaped_byte_encodes_as_that_byte(self):
        # a byte that is not UTF-8, decoded with surrogateescape as sys.argv is
        tok = TK.Tokenizer()
        assert tok.encode("a\udcffb") == tok.encode(b"a\xffb") == [97, 255, 98]

    @pytest.mark.parametrize("text", ["a\ud800b", "\udfff", "\udc7f"])
    def test_other_lone_surrogate_is_contract_error(self, text):
        with pytest.raises(ContractError, match="UTF-8"):
            TK.Tokenizer().encode(text)

    def test_decode_every_id_in_range(self):
        tok = TK.Tokenizer(merges=[(97, 98), (258, 99)])
        assert tok.decode_bytes(range(tok.vocab_size)).endswith(b"ababc")


def _random_bytes(rng, n):
    kind = int(rng.integers(5))
    if kind == 0:
        return bytes([int(rng.integers(256))]) * n                 # one byte repeated
    if kind == 1:
        return bytes(rng.choice([9, 10, 13, 32], size=n).tolist())  # whitespace only
    if kind == 2:
        return bytes(rng.choice([32, 97, 98, 10], size=n).tolist())  # few symbols
    if kind == 3:
        return bytes(rng.integers(128, 256, size=n).tolist())       # invalid UTF-8
    return bytes(rng.integers(0, 256, size=n).tolist())


@pytest.fixture(scope="module")
def bench_tok():
    return TK.Tokenizer.load(os.path.join(PERFBENCH, "weights", "tokenizer.json"))


@pytest.fixture(scope="module")
def perfbench_run():
    """perfbench/run.py, imported without keeping its BLAS-thread
    environment variables or its sys.path entries."""
    env, path = dict(os.environ), list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(PERFBENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(env)
        sys.path[:] = path
    return module


class OracleChecked:
    """A tokenizer whose every encode is checked against the oracle."""

    def __init__(self, tok):
        self.tok, self.calls = tok, 0

    def encode(self, text, add_bos=False, add_eos=False):
        ids = self.tok.encode(text, add_bos=add_bos, add_eos=add_eos)
        expected = O.whole_text_encode(self.tok, text)
        assert ids == [TK.BOS] * add_bos + expected + [TK.EOS] * add_eos, text
        self.calls += 1
        return ids


class TestTrainerMatchesWholeTextPasses:
    """``build_tokenizer`` learns the merges of the whole-text trainer."""

    def test_random_bytes(self):
        rng = np.random.default_rng(16)
        for _ in range(60):
            raw = _random_bytes(rng, int(rng.integers(1, 400)))
            if rng.random() < 0.3:
                raw = b" \t"[:int(rng.integers(1, 3))] + raw           # leading whitespace
            vocab = int(rng.integers(258, 330))
            assert TK.build_tokenizer(raw, vocab).merges == O.whole_text_merges(raw, vocab), raw

    def test_text(self):
        text = "aaaa abab  ba\n\t" * 8 + "hello world " * 4 + "zzzzzzz  zz"
        assert TK.build_tokenizer(text, 320).merges == O.whole_text_merges(text, 320)

    def test_benchmark_tokenizer_file(self, tmp_path):
        # the corpus and vocabulary perfbench/make_weights.py builds it from
        docs = C.synthesize_documents(4000, seed=1234)
        path = tmp_path / "tokenizer.json"
        TK.build_tokenizer("\n".join(d.text for d in docs), 512).save(path)
        with open(os.path.join(PERFBENCH, "weights", "tokenizer.json"), "rb") as f:
            assert path.read_bytes() == f.read()


class TestMatchesWholeTextPasses:
    def test_random_bytes(self, bench_tok):
        rng = np.random.default_rng(15)
        small = TK.build_tokenizer("aaaa abab  ba\n\t" * 8 + "hello world " * 4, 300)
        for tok in (bench_tok, small):
            assert tok.encode(b"") == O.whole_text_encode(tok, b"") == []
            for _ in range(400):
                raw = _random_bytes(rng, int(rng.integers(1, 70)))
                assert tok.encode(raw) == O.whole_text_encode(tok, raw), raw

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_prompts_and_training_documents(self, bench_tok, perfbench_run, seed):
        run = perfbench_run
        checked = OracleChecked(bench_tok)
        run.short_prompts(checked, seed)
        run.long_prompts(checked, seed)
        assert checked.calls == 3 * run.SHORT_PER_TASK + run.LONG_PROMPTS
        docs = run.training_documents(run.WORKLOADS["draft_train"].docs, seed)
        TR.TokenizedCorpus.build(docs, checked, 512, seed=0)
        assert checked.calls == 3 * run.SHORT_PER_TASK + run.LONG_PROMPTS + 2 * len(docs)

    def test_repeated_merge_keeps_first_rank(self):
        tok = TK.Tokenizer(merges=[(97, 98), (97, 98), (258, 99), (259, 99)])
        for text in ("abc ab abab", "aabbcc abcabc", "ab"):
            ids = tok.encode(text)
            assert ids == O.whole_text_encode(tok, text)
            assert 259 not in ids and 261 not in ids
        assert tok.encode("abc") == [260]

    def test_warm_memo(self, bench_tok):
        tok = TK.Tokenizer(bench_tok.merges)
        texts = ["the fox watches the quiet field at dawn .", "3 + 4 = 7 .",
                 "the fox the fox  the\tfox\n", "list of trees : oak , elm ."]
        for _ in range(2):
            for text in texts:
                assert tok.encode(text) == O.whole_text_encode(tok, text)
        assert tok._memo

    def test_full_memo(self, bench_tok, monkeypatch):
        monkeypatch.setattr(TK, "_MEMO_CAP", 3)
        tok = TK.Tokenizer(bench_tok.merges)
        rng = np.random.default_rng(3)
        words = ["the", " fox", " owl", " river", " 12", " +", " =", "\n", " .", " ab"]
        for _ in range(50):
            text = "".join(rng.choice(words, size=int(rng.integers(1, 12))).tolist())
            assert tok.encode(text) == O.whole_text_encode(tok, text), text
            assert len(tok._memo) <= 3
