"""Byte-fallback BPE tokenizer.

Ids 0..255 are raw bytes, 256/257 are BOS/EOS, and greedy merges learned
from a corpus fill the rest of the vocabulary.  Text is pre-tokenized
into whitespace-anchored chunks (a chunk is a word with its leading
whitespace) and merges never cross chunk boundaries, so a prompt that
ends on a word boundary tokenizes exactly as the same text does inside a
longer document.  Any byte string encodes and decodes losslessly.

``encode`` merges each distinct chunk once, lowest rank first, and keeps
the result in a per-tokenizer memo of at most ``_MEMO_CAP`` chunks (cleared
when full); words repeat, so most chunks of a text are memo hits.
"""

from __future__ import annotations

import json
import re
from collections import Counter

from .errors import CheckpointFormatError, ContractError
from .model import write_atomic

N_BYTES = 256
BOS = 256
EOS = 257
N_SPECIALS = 2

# a chunk: one whitespace byte (tab, newline, carriage return, space) or
# the text's start, then every byte up to the next whitespace
_CHUNK = re.compile(rb"[\t\n\r ]?[^\t\n\r ]+|[\t\n\r ]")
_MEMO_CAP = 1 << 14  # distinct chunks remembered per tokenizer
_NO_MERGE = float("inf")


def _merge(ids, a, b, new_id):
    """``ids`` with each (a, b) pair, taken left to right without overlap,
    replaced by ``new_id``."""
    out, i, n = [], 0, len(ids)
    while i < n:
        if ids[i] == a and i + 1 < n and ids[i + 1] == b:
            out.append(new_id)
            i += 2
        else:
            out.append(ids[i])
            i += 1
    return out


class Tokenizer:
    """merges: list of (left_id, right_id); merge r makes id 258 + r, and
    both of its ids must be below that.  A pair listed twice keeps its
    first rank.  A merge that is not such a pair raises ContractError."""

    def __init__(self, merges=None):
        self.merges = []
        self._token_bytes = [bytes([i]) for i in range(N_BYTES)] + [b"", b""]
        self._ranks = {}  # pair -> the id its lowest-rank merge makes
        for rank, pair in enumerate(merges or []):
            new_id = N_BYTES + N_SPECIALS + rank
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < new_id
                            for i in pair)):
                raise ContractError(
                    f"tokenizer merge {rank} is {pair!r}, not a pair of ids below {new_id}")
            a, b = pair
            self.merges.append((a, b))
            self._token_bytes.append(self._token_bytes[a] + self._token_bytes[b])
            self._ranks.setdefault((a, b), new_id)
        self._memo = {}

    @property
    def vocab_size(self):
        return N_BYTES + N_SPECIALS + len(self.merges)

    def encode(self, text, add_bos=False, add_eos=False):
        """Token ids of ``text`` (bytes, or a str encoded as UTF-8 with
        ``surrogateescape``, so that a byte that is not UTF-8 and was
        decoded to a lone surrogate, as in ``sys.argv``, is that byte
        again).  Any other lone surrogate raises ``ContractError``."""
        if isinstance(text, str):
            try:
                text = text.encode("utf-8", "surrogateescape")
            except UnicodeEncodeError as e:
                raise ContractError(f"text is not encodable as UTF-8: {e}") from e
        data = bytes(text)
        out = [BOS] if add_bos else []
        memo = self._memo
        for chunk in _CHUNK.findall(data):
            ids = memo.get(chunk)
            if ids is None:
                if len(memo) >= _MEMO_CAP:
                    memo.clear()
                ids = memo[chunk] = self._encode_chunk(chunk)
            out += ids
        if add_eos:
            out.append(EOS)
        return out

    def _encode_chunk(self, chunk):
        """The ids of one chunk: apply the lowest-rank merge present to all
        its non-overlapping pairs, left to right, until none applies.  A
        merge's ids are below its own new id, so it never makes a pair of
        lower rank, and this equals applying every merge in rank order."""
        ids = list(chunk)
        ranks = self._ranks
        while len(ids) > 1:
            pair = min(zip(ids, ids[1:]), key=lambda p: ranks.get(p, _NO_MERGE))
            new_id = ranks.get(pair)
            if new_id is None:
                break
            ids = _merge(ids, *pair, new_id)
        return tuple(ids)

    def decode_bytes(self, ids):
        table = self._token_bytes
        out = []
        for i in ids:
            if not 0 <= i < len(table):
                raise ContractError(f"token id {i} is outside [0, {len(table)})")
            out.append(table[i])
        return b"".join(out)

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
        try:
            return cls(merges=merges)
        except ContractError as e:
            raise CheckpointFormatError(f"tokenizer file {path}: {e}") from e


def build_tokenizer(corpus_text, vocab_size):
    """Learn greedy byte-pair merges until the vocabulary is full.

    The corpus is split into the chunks ``encode`` uses, and each distinct
    chunk is counted once, weighted by how often it occurs.  Each merge is
    the pair most frequent inside chunks (overlapping pairs included; a tie
    goes to the smallest pair) and is applied to every chunk by ``_merge``,
    the routine ``encode`` uses.  vocab_size == 258 yields the pure byte
    tokenizer.  Merge learning stops early when no within-chunk pair
    repeats.
    """
    if vocab_size < N_BYTES + N_SPECIALS:
        raise ContractError(f"vocab_size must be >= {N_BYTES + N_SPECIALS}, got {vocab_size}")
    if not corpus_text:
        raise ContractError("cannot build a tokenizer from an empty corpus")
    data = corpus_text.encode("utf-8") if isinstance(corpus_text, str) else bytes(corpus_text)
    chunks = [(list(chunk), n) for chunk, n in Counter(_CHUNK.findall(data)).items()]
    merges = []
    for new_id in range(N_BYTES + N_SPECIALS, vocab_size):
        counts = Counter()
        for ids, n in chunks:
            for pair in zip(ids, ids[1:]):
                counts[pair] += n
        if not counts:
            break
        pair = min(counts, key=lambda p: (-counts[p], p))
        if counts[pair] < 2:
            break
        merges.append(pair)
        chunks = [(_merge(ids, *pair, new_id), n) for ids, n in chunks]
    return Tokenizer(merges=merges)
