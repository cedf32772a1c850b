"""Byte-fallback BPE tests."""

import os

import numpy as np
import pytest

from specdec import tokenizer as TK
from specdec.errors import CheckpointFormatError, ContractError
from test_model import fail_writes_halfway


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
    def _starts(self, n):
        s = np.zeros(n, dtype=bool)
        s[0] = True
        return s

    def test_overlapping_same_byte_runs(self):
        ids = np.array([7, 7, 7, 7, 7], dtype=np.int32)
        out, _ = TK._merge_pass(ids, self._starts(5), 7, 7, 99)
        np.testing.assert_array_equal(out, [99, 99, 7])

    def test_interleaved(self):
        ids = np.array([1, 2, 1, 2], dtype=np.int32)
        out, _ = TK._merge_pass(ids, self._starts(4), 1, 2, 50)
        np.testing.assert_array_equal(out, [50, 50])

    def test_merges_never_cross_chunk_boundary(self):
        ids = np.array([1, 2, 1, 2], dtype=np.int32)
        starts = np.array([True, False, True, False])
        out, starts_out = TK._merge_pass(ids, starts, 1, 2, 50)
        np.testing.assert_array_equal(out, [50, 50])
        # pair (2, 1) across the boundary must never merge
        out2, _ = TK._merge_pass(out, starts_out, 50, 50, 60)
        np.testing.assert_array_equal(out2, [50, 50])


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
