"""Context-aware token encoding and fixed-size mention representations.

Per token: the pre-trained word vector is concatenated with a character
bi-LSTM summary (last forward state, first-position backward state); a
context bi-LSTM over those vectors yields the context-aware embeddings.
A mention combines its boundary context vectors with an attention-weighted
"soft head" over the word-character vectors and projects the concatenation
down to entity-embedding size with a single affine layer.

Each bi-LSTM is one `bilstm` node, which steps both directions in one
loop, so a document makes two calls. The char bi-LSTM runs once per
document over its distinct tokens, as one right-padded batch with their
lengths: the kernel reverses each word within its own length, so
padding only ever follows a word's real steps and needs no mask. The
word-character vectors V (n × v_dim) and context vectors X (n × x_dim)
are each one matrix node, which is all `EncodedDocument` holds. A
document's mentions are one (spans × d) node, their soft heads batched
by span length (`rows_by_group`), with no padding or mask.

Dropout applies at two sites in training mode: on the word-character
vectors and on the context bi-LSTM output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable

import numpy as np

from . import autodiff as ad
from .candidates import MentionSpan
from .corpus import Document
from .embeddings import CharTable, WordVectors


@dataclass
class EncoderDims:
    """Layer sizes; the defaults follow the full-scale configuration."""

    word_dim: int = 300
    char_dim: int = 50
    char_hidden: int = 50
    ctx_hidden: int = 150
    entity_dim: int = 300
    dropout_keep: float = 0.5
    max_tokens: int | None = None

    def __post_init__(self):
        for name in ("word_dim", "char_dim", "char_hidden", "ctx_hidden", "entity_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0 < self.dropout_keep <= 1:
            raise ValueError(f"dropout_keep must be in (0, 1], got {self.dropout_keep}")
        if self.max_tokens is not None and self.max_tokens < 1:
            raise ValueError(f"max_tokens must be null or at least 1, got {self.max_tokens}")

    @property
    def v_dim(self) -> int:
        return self.word_dim + 2 * self.char_hidden

    @property
    def x_dim(self) -> int:
        return 2 * self.ctx_hidden

    @property
    def g_dim(self) -> int:
        return 2 * self.x_dim + self.v_dim


@dataclass
class EncoderParams:
    char_fwd: ad.LstmWeights
    char_bwd: ad.LstmWeights
    ctx_fwd: ad.LstmWeights
    ctx_bwd: ad.LstmWeights
    attn_w: ad.Tensor  # scores context vectors for the soft head
    proj_w: ad.Tensor  # g -> mention representation
    proj_b: ad.Tensor


def init_encoder_params(dims: EncoderDims, rng: np.random.Generator) -> EncoderParams:
    return EncoderParams(
        char_fwd=ad.init_lstm(dims.char_dim, dims.char_hidden, rng),
        char_bwd=ad.init_lstm(dims.char_dim, dims.char_hidden, rng),
        ctx_fwd=ad.init_lstm(dims.v_dim, dims.ctx_hidden, rng),
        ctx_bwd=ad.init_lstm(dims.v_dim, dims.ctx_hidden, rng),
        attn_w=ad.parameter(ad.glorot(rng, (dims.x_dim,))),
        proj_w=ad.parameter(ad.glorot(rng, (dims.entity_dim, dims.g_dim))),
        proj_b=ad.parameter(np.zeros(dims.entity_dim)),
    )


@dataclass
class EncodedDocument:
    """The word-character vectors `v` (n × v_dim) and context-aware vectors
    `x` (n × x_dim), one row per token."""

    doc_id: str
    v: ad.Tensor
    x: ad.Tensor

    def __len__(self) -> int:
        return self.x.shape[0]


def rows_by_group(keys: list[int], build: Callable[[int, list[int]], ad.Tensor]) -> ad.Tensor:
    """One row per key, built one group of equal keys at a time:
    `build(key, members)` makes the rows of the listed positions, and the
    groups' rows are put back in the order of `keys`. It batches the soft
    heads of mentions by span length and the attention contexts of
    `scoring.long_range_feature` by count."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    parts = [build(key, list(members)) for key, members in groupby(order, keys.__getitem__)]
    stacked = parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)
    return ad.take_rows(stacked, np.argsort(order))


def char_embed(words: list[str], table: CharTable, params: EncoderParams) -> ad.Tensor:
    """Char bi-LSTM summaries [forward state at the last character;
    backward state at the first], one row per word; the words run as one
    right-padded batch."""
    if not words:
        raise ValueError("char_embed: no words")
    if not all(words):
        raise ValueError("char_embed: empty word")
    lengths = np.array([len(word) for word in words])
    codes = np.empty((lengths.max(), len(words)), dtype=np.intp)
    padding = np.arange(len(codes))[:, None] >= lengths
    codes.T[~padding.T] = [table.index(ch) for word in words for ch in word]  # word by word
    # padding reads the table's rows in turn: its gradient is zero, but the
    # scatter behind the gather makes one pass per repeat of a row
    codes[padding] = np.arange(padding.sum()) % table.rows.shape[0]
    states = ad.bilstm(ad.take_rows(table.rows, codes), params.char_fwd, params.char_bwd,
                       lengths)  # (length × batch × 2h)
    # per word, the forward half at t = L − 1 and the backward half at t = 0
    columns = np.arange(states.shape[2])
    steps = np.where(columns < params.char_fwd.hidden, lengths[:, None] - 1, 0)
    return ad.take_rows(states, (steps, np.arange(len(words))[:, None], columns))


def encode_document(doc: Document, words: WordVectors, chars: CharTable,
                    params: EncoderParams, dims: EncoderDims, mode: str = "eval",
                    rng: np.random.Generator | None = None) -> EncodedDocument:
    """Build v_k = [word; char] and x_k = [ctx fwd; ctx bwd] for every token."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if not doc.tokens:
        raise ValueError(f"document {doc.doc_id!r} is empty")
    if dims.max_tokens is not None and len(doc.tokens) > dims.max_tokens:
        raise ValueError(
            f"document {doc.doc_id!r} has {len(doc.tokens)} tokens, cap is {dims.max_tokens}")
    training = mode == "train"
    unique = {token: i for i, token in enumerate(dict.fromkeys(doc.tokens))}
    word_rows = ad.constant([words.lookup(token) for token in doc.tokens])
    char_rows = ad.take_rows(char_embed(list(unique), chars, params),
                             [unique[token] for token in doc.tokens])
    v = ad.dropout(ad.concat([word_rows, char_rows]), dims.dropout_keep, training, rng)
    x = ad.dropout(ad.bilstm(v, params.ctx_fwd, params.ctx_bwd), dims.dropout_keep, training,
                   rng)
    return EncodedDocument(doc_id=doc.doc_id, v=v, x=x)


def mention_repr(spans: list[MentionSpan], enc: EncodedDocument,
                 params: EncoderParams) -> ad.Tensor:
    """Project each span's [x_start; x_end; soft head] down to entity size,
    one row per span. The soft head weights the span's word-character
    vectors by a softmax of logits from its context vectors; spans of one
    length are one batch of row blocks, with no padding or mask."""
    for span in spans:
        if not (0 <= span.start <= span.end < len(enc)):
            raise ValueError(f"span [{span.start}, {span.end}] outside a {len(enc)}-token doc")
    logits = ad.matvec(enc.x, params.attn_w)  # one per token

    def heads(length: int, members: list[int]) -> ad.Tensor:
        ks = np.array([spans[i].start for i in members])[:, None] + np.arange(length)
        return ad.weighted_sum(ad.take_rows(enc.v, ks), ad.softmax(ad.take_rows(logits, ks)))

    g = ad.concat([ad.take_rows(enc.x, [span.start for span in spans]),
                   ad.take_rows(enc.x, [span.end for span in spans]),
                   rows_by_group([span.length for span in spans], heads)])
    if params.proj_w.shape[1] != g.shape[1]:
        raise ValueError(
            f"mention projection expects {params.proj_w.shape[1]}-d input, got {g.shape[1]}-d")
    return ad.add(ad.matvec(params.proj_w, g), params.proj_b)
