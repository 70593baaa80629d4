"""Word, character and entity vector stores.

Word vectors are pre-trained and fixed; character vectors are a trainable
table updated with the linking model; entity vectors are fixed by default
(a flag permits fine-tuning) and can either be loaded from disk or trained
at small scale from word-entity co-occurrence counts.

Text format: first line ``<count> <dim>``, then one ``<key> <f1> ... <fdim>``
per line, space separated, UTF-8 keys without spaces. Binary cache format:
magic ``E2EV``, little-endian u32 count and dim, then per row a u16 key
length, the key bytes and ``dim`` 32-bit floats. The string, length and
error rules are those of ``binfile``. Both formats reject non-finite values.

GloVe-sized text files hold millions of values, so the text loader reads
keys line by line but parses values a block of rows at a time, in one
`np.loadtxt` call per block into float64, cast to float32 as a `float()`
per value would be. A block that call rejects, or reads into another
shape, is parsed again line by line with `float()`: that names the bad
line, and accepts what `float()` accepts and `np.loadtxt` does not, such
as ``1_0`` and non-ASCII digits.
"""

from __future__ import annotations

import logging
import os
import struct
from contextlib import closing
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import autodiff as ad
from . import binfile
from .corpus import text_lines

log = logging.getLogger(__name__)

UNK_TOKEN = "<unk>"
BINARY_MAGIC = b"E2EV"
BINARY_HEADER = struct.Struct("<II")
BLOCK_ROWS = 1024  # text rows whose values are parsed in one call


def load_text_embeddings(path: str) -> tuple[dict[str, int], np.ndarray]:
    """Load a text embedding file into (key -> row index, matrix).

    Each line's key is checked as it is read; the values of up to
    `BLOCK_ROWS` rows are parsed in one `np.loadtxt` call. A block that
    call cannot read as (rows, dim) is parsed again line by line with
    `float()`, which names the bad line, so an error always names the first
    bad line of the file.
    """
    vocab: dict[str, int] = {}
    linenos: list[int] = []  # each row's line, for error messages
    with closing(text_lines(path)) as lines:
        _, header = next(lines, (1, ""))
        parts = header.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:1: header must be '<count> <dim>', got {header!r}")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}:1: header must be '<count> <dim>', got {header!r}") from None
        if count < 0 or dim <= 0:
            raise ValueError(f"{path}:1: bad count/dim {count}/{dim}")
        # a row is at least a 1-byte key and dim 1-byte values, each followed
        # by one separator byte (the last row may lack its newline)
        need = 2 * (dim + 1) * count - 1
        left = os.path.getsize(path) - len(header.encode("utf-8"))
        if count and need > left:
            raise ValueError(f"{path}:1: {count} rows of dim {dim} need at least {need} "
                             f"bytes, the file has {left} after the header")
        matrix = np.zeros((count, dim), dtype=np.float32)
        block: list[str] = []  # value text of the rows whose values are not parsed yet

        def parse_block() -> None:
            if block:
                rows = slice(len(vocab) - len(block), len(vocab))
                _parse_values(path, block, linenos[rows], matrix[rows])
                block.clear()

        for lineno, line in lines:
            if not line.strip():
                continue
            key, *rest = line.split(None, 1)
            text = rest[0] if rest else ""
            if key in vocab or len(vocab) == count:
                parse_block()  # an error on an earlier line comes first
                _split_values(path, lineno, text, dim)
                if key in vocab:
                    raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
                raise ValueError(f"{path}:{lineno}: more rows than declared count {count}")
            vocab[key] = len(vocab)
            linenos.append(lineno)
            block.append(text)
            if len(block) == BLOCK_ROWS:
                parse_block()
        parse_block()
    if len(vocab) != count:
        raise ValueError(f"{path}: declared {count} rows, found {len(vocab)}")
    bad = _non_finite_rows(matrix)
    if bad.size:
        raise ValueError(f"{path}:{linenos[bad[0]]}: non-finite value")
    return vocab, matrix


def _parse_values(path: str, texts: list[str], linenos: list[int], out: np.ndarray) -> None:
    """Parse the value text of `out`'s rows into it, in one C call when it
    reads every row as `out`'s width, else line by line."""
    values = None
    if all(texts):  # loadtxt would skip a row without values
        try:
            values = np.loadtxt(texts, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape != out.shape:
        values = [_row_values(path, lineno, text, out.shape[1])
                  for lineno, text in zip(linenos, texts)]
    out[:] = values


def _split_values(path: str, lineno: int, text: str, dim: int) -> list[str]:
    fields = text.split()
    if len(fields) != dim:
        raise ValueError(f"{path}:{lineno}: expected {dim} values, got {len(fields)}")
    return fields


def _row_values(path: str, lineno: int, text: str, dim: int) -> list[float]:
    fields = _split_values(path, lineno, text, dim)
    try:
        return [float(v) for v in fields]
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed float") from None


def save_text_embeddings(vocab: Mapping[str, int], matrix: np.ndarray, path: str) -> None:
    """Write the text format; float repr round-trips 32-bit values exactly."""
    rows = sorted(vocab.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)} {matrix.shape[1]}\n")
        for key, idx in rows:
            vals = " ".join(repr(float(v)) for v in matrix[idx])
            fh.write(f"{key} {vals}\n")


def load_binary_embeddings(path: str) -> tuple[dict[str, int], np.ndarray]:
    reader = binfile.Reader(path, BINARY_MAGIC)
    count, dim = reader.unpack(BINARY_HEADER, "header")
    row = struct.Struct(f"<{4 * dim}s")
    if count * (2 + row.size) > reader.size - reader.pos:
        raise reader.error(f"{count} rows need more than {reader.size - reader.pos} bytes", "row")
    vocab: dict[str, int] = {}
    matrix = np.empty((count, dim), dtype=np.float32)

    def add_row(key: str, payload: bytes) -> None:
        if key in vocab:
            raise ValueError(f"{path}: duplicate key {key!r} at row {len(vocab)}")
        matrix[len(vocab)] = np.frombuffer(payload, dtype="<f4")
        vocab[key] = len(vocab)

    for start in range(0, count, 1024):  # release the file's pages as the matrix fills
        reader.records(min(1024, count - start), row, "row", add_row)
        reader.release()
    reader.finish()
    bad = _non_finite_rows(matrix)
    if bad.size:
        raise ValueError(f"{path}: non-finite value in row {bad[0]} ({list(vocab)[bad[0]]!r})")
    return vocab, matrix


def save_binary_embeddings(vocab: Mapping[str, int], matrix: np.ndarray, path: str) -> None:
    rows = sorted(vocab.items(), key=lambda kv: kv[1])
    row = struct.Struct(f"<{4 * matrix.shape[1]}s")
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC + BINARY_HEADER.pack(len(rows), matrix.shape[1]))
        for key, idx in rows:
            binfile.write_record(fh, key, row, matrix[idx].astype("<f4").tobytes(), "row")


def _non_finite_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows holding a nan or an inf, found through each row's min and max so
    that no temporary the size of the matrix is made."""
    lo, hi = matrix.min(axis=1, initial=0), matrix.max(axis=1, initial=0)
    return np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi)))


def _load_any(path: str) -> tuple[dict[str, int], np.ndarray]:
    return binfile.load_either(path, BINARY_MAGIC, load_binary_embeddings, load_text_embeddings)


@dataclass
class WordVectors:
    """Fixed pre-trained word vectors with a designated unknown-word row."""

    vocab: dict[str, int]
    matrix: np.ndarray
    unk_index: int

    @classmethod
    def from_file(cls, path: str) -> "WordVectors":
        vocab, matrix = _load_any(path)
        if UNK_TOKEN in vocab:
            unk = vocab[UNK_TOKEN]
        else:
            # synthesize a zero row so lookups never fail
            matrix = np.vstack([matrix, np.zeros((1, matrix.shape[1]), dtype=matrix.dtype)])
            unk = matrix.shape[0] - 1
        return cls(vocab=vocab, matrix=matrix, unk_index=unk)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def lookup(self, token: str) -> np.ndarray:
        """Exact-match row, else lowercased-match row, else the unknown row."""
        idx = self.vocab.get(token)
        if idx is None:
            idx = self.vocab.get(token.lower(), self.unk_index)
        return self.matrix[idx]


@dataclass
class EntityVectors:
    """Entity-id keyed vectors; frozen by default (no gradient updates)."""

    ids: dict[str, int]
    matrix: np.ndarray
    frozen: bool = True
    _warned: set = field(default_factory=set, repr=False)

    @classmethod
    def from_file(cls, path: str, frozen: bool = True) -> "EntityVectors":
        ids, matrix = _load_any(path)
        return cls(ids=ids, matrix=matrix, frozen=frozen)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def vector(self, entity_id: str) -> np.ndarray:
        """Row for the entity, or zeros (with a warning) when unknown."""
        idx = self.ids.get(entity_id)
        if idx is None:
            if entity_id not in self._warned:
                self._warned.add(entity_id)
                log.warning("entity %r has no embedding; using zeros", entity_id)
            return np.zeros(self.dim, dtype=self.matrix.dtype)
        return self.matrix[idx]

    def index(self, entity_id: str) -> int | None:
        return self.ids.get(entity_id)


class CharTable:
    """Trainable character vectors keyed by code point, with an unknown row."""

    def __init__(self, chars: dict[str, int], rows: ad.Tensor, unk_index: int = 0):
        self.chars = chars
        self.rows = rows
        self.unk_index = unk_index

    @classmethod
    def build(cls, words: Iterable[str], dim: int, rng: np.random.Generator) -> "CharTable":
        inventory = sorted({ch for w in words for ch in w})
        chars = {ch: i + 1 for i, ch in enumerate(inventory)}  # row 0 is the unknown char
        rows = ad.parameter(0.1 * rng.standard_normal((len(chars) + 1, dim)))
        return cls(chars=chars, rows=rows, unk_index=0)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def index(self, ch: str) -> int:
        return self.chars.get(ch, self.unk_index)

    def codepoints(self) -> np.ndarray:
        """Inventory as code points in row order, for checkpointing."""
        out = np.zeros(len(self.chars), dtype=np.int64)
        for ch, idx in self.chars.items():
            out[idx - 1] = ord(ch)
        return out

    @classmethod
    def from_codepoints(cls, codepoints: Iterable[int], rows: ad.Tensor) -> "CharTable":
        chars = {chr(int(cp)): i + 1 for i, cp in enumerate(codepoints)}
        return cls(chars=chars, rows=rows, unk_index=0)


def train_entity_embeddings(
    corpus: Mapping[str, Mapping[str, int]],
    word_vectors: WordVectors,
    margin: float = 0.1,
    steps: int = 200,
    seed: int = 0,
    negatives: int = 5,
    lr: float = 0.02,
) -> EntityVectors:
    """Fit one unit vector per entity from word co-occurrence counts.

    For each step a positive word is sampled proportionally to the entity's
    empirical counts and `negatives` words uniformly from the vocabulary;
    the hinge max(0, margin − ⟨x_pos, y⟩ + ⟨x_neg, y⟩) is minimized by SGD
    and the vector renormalized to unit length. Entities train independently:
    each gets its own stream seeded by (seed, position in sorted id order).
    """
    vocab_words = sorted(word_vectors.vocab)
    dim = word_vectors.dim
    ids: dict[str, int] = {}
    rows = np.zeros((len(corpus), dim), dtype=np.float32)
    for ent_pos, entity_id in enumerate(sorted(corpus)):
        counts = corpus[entity_id]
        if not counts:
            raise ValueError(f"entity {entity_id!r} has an empty co-occurrence list")
        words = sorted(counts)
        for w in words:
            if w not in word_vectors.vocab:
                raise ValueError(f"word {w!r} for entity {entity_id!r} not in word vectors")
        total = float(sum(counts[w] for w in words))
        probs = np.array([counts[w] / total for w in words])
        rng = np.random.default_rng([seed, ent_pos])
        y = rng.standard_normal(dim)
        y /= np.linalg.norm(y)
        for _ in range(steps):
            pos = words[rng.choice(len(words), p=probs)]
            x_pos = word_vectors.matrix[word_vectors.vocab[pos]].astype(np.float64)
            grad = np.zeros(dim)
            for j in rng.choice(len(vocab_words), size=negatives):
                x_neg = word_vectors.matrix[word_vectors.vocab[vocab_words[j]]].astype(np.float64)
                if margin - x_pos @ y + x_neg @ y > 0.0:
                    grad += x_neg - x_pos
            y = y - lr * grad
            norm = np.linalg.norm(y)
            if norm > 0:
                y = y / norm
        ids[entity_id] = ent_pos
        rows[ent_pos] = y.astype(np.float32)
    return EntityVectors(ids=ids, matrix=rows, frozen=True)
