"""Byte-fallback BPE tokenizer.

Ids 0..255 are raw bytes, 256/257 are BOS/EOS, and greedy merges learned
from a corpus fill the rest of the vocabulary.  Text is pre-tokenized
into whitespace-anchored chunks (a chunk is a word with its leading
whitespace) and merges never cross chunk boundaries, so a prompt that
ends on a word boundary tokenizes exactly as the same text does inside a
longer document.  Any byte string encodes and decodes losslessly.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import CheckpointFormatError, ContractError
from .model import write_atomic

N_BYTES = 256
BOS = 256
EOS = 257
N_SPECIALS = 2

_WHITESPACE = (9, 10, 13, 32)  # tab, newline, carriage return, space


def _chunk_starts(byte_ids):
    """True where a pre-tokenization chunk begins (index 0 and whitespace)."""
    starts = np.zeros(len(byte_ids), dtype=bool)
    if len(byte_ids):
        starts[0] = True
        for ws in _WHITESPACE:
            starts |= byte_ids == ws
    return starts


def _merge_pass(ids, starts, a, b, new_id):
    """Replace non-overlapping within-chunk (a, b) pairs with new_id."""
    if len(ids) < 2:
        return ids, starts
    match = (ids[:-1] == a) & (ids[1:] == b) & ~starts[1:]
    idx = np.flatnonzero(match)
    if idx.size == 0:
        return ids, starts
    if a == b and idx.size > 1:
        # runs of consecutive matches overlap; keep every other one
        run_start = np.r_[True, np.diff(idx) != 1]
        run_first = idx[run_start][np.cumsum(run_start) - 1]
        idx = idx[(idx - run_first) % 2 == 0]
    out = ids.copy()
    out[idx] = new_id
    keep = np.ones(len(ids), dtype=bool)
    keep[idx + 1] = False
    return out[keep], starts[keep]


class Tokenizer:
    """merges: list of (left_id, right_id), applied in order when encoding."""

    def __init__(self, merges=None):
        self.merges = [tuple(m) for m in (merges or [])]
        self._token_bytes = [bytes([i]) for i in range(N_BYTES)] + [b"", b""]
        for a, b in self.merges:
            self._token_bytes.append(self._token_bytes[a] + self._token_bytes[b])

    @property
    def vocab_size(self):
        return N_BYTES + N_SPECIALS + len(self.merges)

    def encode(self, text, add_bos=False, add_eos=False):
        data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
        ids = np.frombuffer(data, dtype=np.uint8).astype(np.int32)
        starts = _chunk_starts(ids)
        for rank, (a, b) in enumerate(self.merges):
            ids, starts = _merge_pass(ids, starts, a, b, N_BYTES + N_SPECIALS + rank)
        out = ids.tolist()
        if add_bos:
            out.insert(0, BOS)
        if add_eos:
            out.append(EOS)
        return out

    def decode_bytes(self, ids):
        return b"".join(self._token_bytes[i] for i in ids)

    def decode(self, ids):
        return self.decode_bytes(ids).decode("utf-8", errors="replace")

    def save(self, path):
        write_atomic(path, json.dumps({"merges": self.merges}).encode("utf-8"))

    @classmethod
    def load(cls, path):
        """The tokenizer ``save`` wrote to ``path``.  A file that is not such
        a document, or a merge whose ids are not all below its own new id,
        raises CheckpointFormatError."""
        try:
            with open(path, "r", encoding="utf-8") as f:
                raw = json.load(f)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointFormatError(f"tokenizer file {path} is not valid JSON: {e}") from e
        merges = raw.get("merges") if isinstance(raw, dict) else None
        if not isinstance(merges, list):
            raise CheckpointFormatError(f"tokenizer file {path} has no merges list")
        for rank, pair in enumerate(merges):
            new_id = N_BYTES + N_SPECIALS + rank
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(i, int) and 0 <= i < new_id for i in pair)):
                raise CheckpointFormatError(
                    f"tokenizer merge {rank} is {pair!r}, not a pair of ids below {new_id}")
        return cls(merges=merges)


def build_tokenizer(corpus_text, vocab_size):
    """Learn greedy byte-pair merges until the vocabulary is full.

    vocab_size == 258 yields the pure byte tokenizer.  Merge learning
    stops early when no within-chunk pair repeats.
    """
    if vocab_size < N_BYTES + N_SPECIALS:
        raise ContractError(f"vocab_size must be >= {N_BYTES + N_SPECIALS}, got {vocab_size}")
    if not corpus_text:
        raise ContractError("cannot build a tokenizer from an empty corpus")
    data = corpus_text.encode("utf-8") if isinstance(corpus_text, str) else bytes(corpus_text)
    ids = np.frombuffer(data, dtype=np.uint8).astype(np.int32)
    starts = _chunk_starts(ids)
    merges = []
    for _ in range(vocab_size - N_BYTES - N_SPECIALS):
        if len(ids) < 2:
            break
        inside = ~starts[1:]
        if not inside.any():
            break
        packed = ids[:-1][inside].astype(np.int64) * (1 << 32) + ids[1:][inside]
        uniq, counts = np.unique(packed, return_counts=True)
        best = counts.argmax()
        if counts[best] < 2:
            break
        pair = (int(uniq[best] >> 32), int(uniq[best] & 0xFFFFFFFF))
        new_id = N_BYTES + N_SPECIALS + len(merges)
        merges.append(pair)
        ids, starts = _merge_pass(ids, starts, pair[0], pair[1], new_id)
    return Tokenizer(merges=merges)
