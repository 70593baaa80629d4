"""Candidate scoring: the local score, long-range attention, global voting.

A document's (span, candidate) pairs are the rows of one table, spans in
order and each span's candidates in order. Each function takes the pairs'
candidate vectors as one (pairs × d) block Y and returns one (pairs,)
vector. The local score is an affine map of a candidate's log prior, its
dot product with its span's mention representation and, when enabled, a
long-range context feature. The global layer rescores each pair by cosine
similarity against the vote of the *other* mentions, combined with the
local score through a second affine layer. The vote is the document's sum
of confident candidates' entity vectors minus those of the pair's own
span: exactly zero, so g = 0, when the span holds every vote.

A known deviation from the paper: its local combiner f and its global
combiner are shallow feed-forward networks. Here both are affine maps:
`psi_w` has 2 or 3 weights and `phi_w` 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .candidates import MentionSpan
from .encoder import EncodedDocument, rows_by_group


@dataclass
class GlobalConfig:
    """Voting threshold for global disambiguation."""

    gamma_prime: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.gamma_prime):
            raise ValueError("gamma_prime must be finite")


@dataclass
class ScorerParams:
    """Affine scorer weights; three local-score features mean attention is on."""

    psi_w: ad.Tensor  # 2 features, or 3 with the attention feature
    psi_b: ad.Tensor
    phi_w: ad.Tensor | None = None
    phi_b: ad.Tensor | None = None
    att_a: ad.Tensor | None = None  # diagonal bilinear form scoring context words
    att_b: ad.Tensor | None = None  # diagonal bilinear form for the context feature


def init_scorer_params(entity_dim: int, rng: np.random.Generator,
                       use_attention: bool = False,
                       use_global: bool = False) -> ScorerParams:
    arity = 3 if use_attention else 2
    params = ScorerParams(
        psi_w=ad.parameter(ad.glorot(rng, (arity,))),
        psi_b=ad.parameter(np.zeros(())),
    )
    if use_global:
        params.phi_w = ad.parameter(ad.glorot(rng, (2,)))
        params.phi_b = ad.parameter(np.zeros(()))
    if use_attention:
        params.att_a = ad.parameter(np.ones(entity_dim))
        params.att_b = ad.parameter(np.ones(entity_dim))
    return params


@dataclass(slots=True)
class ScoredPair:
    """One (mention, candidate) record flowing to the loss and the decoder."""

    span: MentionSpan
    entity_id: str
    prior: float
    psi: float
    g: float | None = None
    phi: float | None = None

    @property
    def score(self) -> float:
        return self.phi if self.phi is not None else self.psi


def _pair_spans(spans: list[MentionSpan]) -> np.ndarray:
    """The index in `spans` of each pair's span, in pair order."""
    return np.repeat(np.arange(len(spans)), [len(span.candidates) for span in spans])


def local_score(x_m: ad.Tensor, spans: list[MentionSpan], y: ad.Tensor,
                ctx_feature: ad.Tensor | None, params: ScorerParams) -> ad.Tensor:
    """One score per pair (row of `y`): an affine map of [log prior,
    <x_m of its span, y_e>] and the optional context feature.

    The priors of every pair are read into one array, which is checked and
    whose log is taken whole; a prior at or below 0 raises, naming the
    first such pair's entity."""
    priors = np.array([entry.prior for span in spans for entry in span.candidates])
    bad = priors <= 0.0
    if bad.any():
        entry = [entry for span in spans for entry in span.candidates][int(bad.argmax())]
        raise ValueError(f"candidate {entry.entity_id!r} has non-positive prior {entry.prior}")
    feats = [ad.constant(np.log(priors)), ad.dot(ad.take_rows(x_m, _pair_spans(spans)), y)]
    if params.psi_w.shape == (3,):
        if ctx_feature is None:
            raise ValueError("attention enabled but no context feature given")
        feats.append(ctx_feature)
    elif ctx_feature is not None:
        raise ValueError("context feature given but attention is disabled")
    if params.psi_w.shape != (len(feats),):
        raise ValueError(f"scorer expects {params.psi_w.shape[0]} features, got {len(feats)}")
    return ad.add(ad.matvec(ad.stack(feats), params.psi_w), params.psi_b)


def long_range_feature(spans: list[MentionSpan], enc: EncodedDocument, y: ad.Tensor,
                       window: int, keep: int, params: ScorerParams) -> ad.Tensor:
    """The context-attention feature of each pair, one per row of `y`.

    Context words of a span score u(w) = max_e <y_e, A . x_w> over its
    candidates, with a diagonal A; the top `keep` words are hard-selected
    (higher score first, then lower position), softmaxed into weights, and
    summed into a context embedding c (0 with no context word); each
    candidate's feature is <y_e, B . c>.

    The ranking runs off the graph, for every span of the document at
    once. One (tokens × d)·(d × distinct rows of `y`) einsum scores every
    word against every distinct candidate vector. Rows are told apart by
    their bytes, not by entity id: a caller may pass any `y`, and since
    coreferent and repeated surfaces share candidate lists, a document has
    far fewer distinct rows than pairs. Each span gathers the scores of its
    own candidates, padded with −inf into one (spans × candidates × tokens)
    block, whose maximum is the word score and whose first argmax is each
    word's best pair. Words outside a span's window, or inside the span,
    rank last, and one stable argsort per document ranks every span's
    words. As in a per-span ranking, the scores of a span's window words
    against its own candidates are checked for non-finite values, so an
    overflow there raises even in a word that is then dropped; a score
    outside every window is never read. Only the kept words enter the
    graph, as one batch per kept count: the dropped words would add nodes
    but, cut off by the hard selection, no gradient.
    """
    if not 1 <= keep <= window:
        raise ValueError(f"need window >= keep >= 1, got window={window} keep={keep}")
    if params.att_a is None or params.att_b is None:
        raise ValueError("attention parameters not initialized")
    if not spans or not all(span.candidates for span in spans):
        raise ValueError("long_range_feature needs spans, each with candidates")
    span_of = _pair_spans(spans)
    lengths = np.array([len(span.candidates) for span in spans])
    distinct: dict[bytes, int] = {}
    column = np.array([distinct.setdefault(row.tobytes(), len(distinct)) for row in y.data],
                      dtype=np.intp)
    sample = np.empty(len(distinct), dtype=np.intp)
    sample[column] = np.arange(len(column))  # a pair with each distinct row
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, where read
        # einsum, not BLAS: a BLAS product may round two equal rows
        # differently, and equal words must tie exactly for the tie rule
        scores = np.einsum("wd,cd->wc", enc.x.data * params.att_a.data, y.data[sample])
    # each span's candidates as rows of the scores, padded with a row of −inf
    filled = np.arange(lengths.max()) < lengths[:, None]
    rows = np.full(filled.shape, len(distinct))
    rows[filled] = column
    padded = np.full((len(distinct) + 1, len(enc)), -np.inf, dtype=scores.dtype)
    padded[:-1] = scores.T
    by_span = padded[rows]  # (spans × candidates × tokens)
    pos = np.arange(len(enc))
    start = np.array([span.start for span in spans])[:, None]
    end = np.array([span.end for span in spans])[:, None]
    half = window // 2
    in_window = ((pos >= start - half) & (pos <= end + half)
                 & ((pos < start) | (pos > end)))  # (spans × tokens)
    if not (np.isfinite(scores).all()
            or (np.isfinite(by_span) | ~filled[..., None]).all(axis=1)[in_window].all()):
        raise FloatingPointError("non-finite values in attention word scores")
    with np.errstate(invalid="ignore"):
        word_score = by_span.max(axis=1)  # (spans × tokens)
    ranked = np.argsort(np.where(in_window, -word_score, np.inf), axis=1, kind="stable")
    counts = np.minimum(in_window.sum(axis=1), keep)
    # each span's first pair reaching a word's score: its argmax over the candidates
    best = (np.cumsum(lengths) - lengths)[:, None] + by_span.argmax(axis=1)

    def contexts(count: int, members: list[int]) -> ad.Tensor:
        if count == 0:
            return ad.constant(np.zeros((len(members), enc.x.shape[1])))
        kept = np.sort(ranked[members, :count], axis=1)  # (batch × count)
        x_kept = ad.take_rows(enc.x, kept)  # (batch × count × d)
        beta = ad.softmax(ad.dot(ad.take_rows(y, best[np.array(members)[:, None], kept]),
                                 ad.mul(x_kept, params.att_a)))
        return ad.weighted_sum(x_kept, beta)

    c = rows_by_group(counts.tolist(), contexts)
    return ad.dot(y, ad.mul(ad.take_rows(c, span_of), params.att_b))


def combine_global(psi: ad.Tensor, g: ad.Tensor, params: ScorerParams) -> ad.Tensor:
    """Affine combination of each candidate's local score and voting score."""
    if params.phi_w is None or params.phi_b is None:
        raise ValueError("global parameters not initialized")
    return ad.add(ad.matvec(ad.stack([psi, g]), params.phi_w), params.phi_b)


def filter_voters(psi: np.ndarray, cfg: GlobalConfig) -> np.ndarray:
    """The indices of the pairs whose local score reaches the threshold."""
    return np.flatnonzero(np.asarray(psi, dtype=np.float64) >= cfg.gamma_prime)


def vote_vector(spans: list[MentionSpan], y: ad.Tensor, voters: np.ndarray) -> ad.Tensor:
    """Each pair's vote, one row per pair: the candidate vectors (rows of
    `y`) of the voting pairs indexed by `voters` that belong to other
    mentions, summed, so an entity voted for by two mentions counts twice.

    Each span's own votes are one product over `y`, and the total is the
    sum of those rows, so a span that holds every vote gets exactly zero.
    """
    span_of = _pair_spans(spans)
    # column p of the mask is pair p's span indicator, if p votes
    mask = np.eye(len(spans))[:, span_of] * np.isin(np.arange(len(span_of)), voters)
    own = ad.matmul(ad.constant(mask), y)  # (spans × d)
    total = ad.matmul(ad.constant(np.ones((1, len(spans)))), own)
    return ad.sub(ad.take_rows(total, np.zeros(len(span_of), dtype=np.intp)),
                  ad.take_rows(own, span_of))


def global_score(y: ad.Tensor, vote: ad.Tensor) -> ad.Tensor:
    """Cosine of each candidate vector with its pair's vote; 0 for no vote."""
    return ad.cosine(y, vote)
