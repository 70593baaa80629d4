"""Candidate scoring: the local score, long-range attention, global voting.

The local score is an affine combination of the candidate's log prior and
its dot product with the mention representation (plus, when enabled, a
long-range context attention feature). The attention ranks the words of
its window off the graph, with one matrix product per span, and builds
graph nodes only for the words it keeps; the hard selection leaves the
dropped words without a gradient in any case. The global layer sums the
entity vectors of confident candidates from *other* mentions of the
document and rescores each pair by cosine similarity against that vote,
combined with the local score through a second affine layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .candidates import CandidateEntry, MentionSpan
from .encoder import EncodedDocument, EncoderParams


@dataclass
class GlobalConfig:
    """Voting threshold and vote-set semantics for global disambiguation."""

    gamma_prime: float = 0.0
    voter_dedup: bool = False  # count one vote per (mention, entity) pair unless set

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


@dataclass
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


def local_score(x_m: ad.Tensor, entry: CandidateEntry, y: ad.Tensor,
                ctx_feature: ad.Tensor | None, params: ScorerParams) -> ad.Tensor:
    """Affine score over [log prior, <x_m, y>] and the optional context feature."""
    if entry.prior <= 0.0:
        raise ValueError(f"candidate {entry.entity_id!r} has non-positive prior {entry.prior}")
    feats = [ad.constant(np.asarray(math.log(entry.prior), dtype=ad.default_dtype())),
             ad.dot(x_m, y)]
    if params.psi_w.shape == (3,):
        if ctx_feature is None:
            raise ValueError("attention enabled but no context feature given")
        feats.append(ctx_feature)
    elif ctx_feature is not None:
        raise ValueError("context feature given but attention is disabled")
    if params.psi_w.shape != (len(feats),):
        raise ValueError(f"scorer expects {params.psi_w.shape[0]} features, got {len(feats)}")
    return ad.add(ad.dot(params.psi_w, ad.stack(feats)), params.psi_b)


def context_window(span: MentionSpan, n_tokens: int, window: int) -> list[int]:
    """Token positions up to window/2 on each side of the span, clipped at the
    document edges; the span's own tokens are excluded."""
    half = window // 2
    lo = max(0, span.start - half)
    hi = min(n_tokens - 1, span.end + half)
    return [k for k in range(lo, hi + 1) if k < span.start or k > span.end]


def long_range_feature(span: MentionSpan, enc: EncodedDocument,
                       entity_vectors: list[ad.Tensor], window: int, keep: int,
                       params: ScorerParams) -> list[ad.Tensor]:
    """One context-attention feature per candidate.

    Context words score u(w) = max_e <y_e, A . x_w> with a diagonal A; the
    top `keep` words are hard-selected (higher score first, then lower
    position), softmaxed into weights, and summed into a context embedding
    c; each candidate's feature is <y_e, B . c>.

    The ranking runs off the graph, as one (window × d)·(d × candidates)
    product over the document's A-scaled context vectors, checked once for
    non-finite scores, so an overflow raises even in a word that is then
    dropped. Only the kept words are rebuilt as graph nodes; the hard
    selection cuts the other words off from the loss, so building them
    would add nodes but no gradient.
    """
    if not 1 <= keep <= window:
        raise ValueError(f"need window >= keep >= 1, got window={window} keep={keep}")
    if params.att_a is None or params.att_b is None:
        raise ValueError("attention parameters not initialized")
    positions = context_window(span, len(enc), window)
    if not positions:
        zero = ad.constant(np.asarray(0.0, dtype=ad.default_dtype()))
        return [zero for _ in entity_vectors]
    # einsum, not BLAS: a BLAS product may round two equal rows differently,
    # and equal words must tie exactly for the tie rule to hold
    word_scores = np.einsum("wd,cd->wc", enc.scaled_context(params.att_a.data)[positions],
                            np.stack([y.data for y in entity_vectors]))
    if not np.all(np.isfinite(word_scores)):
        raise FloatingPointError("non-finite values in attention word scores")
    u = word_scores.max(axis=1)
    kept = [positions[i] for i in np.sort(np.argsort(-u, kind="stable")[:keep])]
    scores = []
    for k in kept:
        ax = ad.mul(params.att_a, enc.x[k])
        scores.append(ad.max1d(ad.stack([ad.dot(y, ax) for y in entity_vectors])))
    beta = ad.softmax(ad.stack(scores))
    c = ad.weighted_sum([enc.x[k] for k in kept], beta)
    bc = ad.mul(params.att_b, c)
    return [ad.dot(y, bc) for y in entity_vectors]


def combine_global(psi: ad.Tensor, g: ad.Tensor, params: ScorerParams) -> ad.Tensor:
    """Affine combination of the local score and the voting score."""
    if params.phi_w is None or params.phi_b is None:
        raise ValueError("global parameters not initialized")
    return ad.add(ad.dot(params.phi_w, ad.stack([psi, g])), params.phi_b)


@dataclass(frozen=True)
class Voter:
    """A (mention, entity) pair admitted to the global vote."""

    span_key: tuple[int, int]
    entity_id: str


def filter_voters(pairs: list[ScoredPair], cfg: GlobalConfig) -> list[Voter]:
    """Exactly the pairs whose local score reaches the voting threshold."""
    return [Voter(span_key=(p.span.start, p.span.end), entity_id=p.entity_id)
            for p in pairs if p.psi >= cfg.gamma_prime]


def vote_vector(span: MentionSpan, voters: list[Voter],
                entity_tensor, cfg: GlobalConfig) -> ad.Tensor | None:
    """Sum of voter entity vectors from other mentions; None when empty.

    `entity_tensor` maps an entity id to its vector node. By default each
    (mention, entity) voter contributes one occurrence; with `voter_dedup`
    an entity contributes at most once however many mentions voted for it.
    """
    own = (span.start, span.end)
    contributing = [v for v in voters if v.span_key != own]
    if cfg.voter_dedup:
        seen: set[str] = set()
        deduped = []
        for v in contributing:
            if v.entity_id not in seen:
                seen.add(v.entity_id)
                deduped.append(v)
        contributing = deduped
    if not contributing:
        return None
    return ad.addn([entity_tensor(v.entity_id) for v in contributing])


def global_score(y_candidate: ad.Tensor, vote: ad.Tensor | None) -> ad.Tensor:
    """Cosine between the candidate vector and the vote sum; 0 with no voters."""
    if vote is None:
        return ad.constant(np.asarray(0.0, dtype=ad.default_dtype()))
    return ad.cosine(y_candidate, vote)
