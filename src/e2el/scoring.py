"""Candidate scoring: the local score, long-range attention, global voting.

Each function scores one span's candidates at once, as the rows of one
(C × d) block Y, and returns one (C,) vector. The local score is an affine
combination of a candidate's log prior and its dot product with the
mention representation (plus, when enabled, a long-range context
feature). The attention ranks the words of its window off the graph, with
one matrix product per span, and gathers only the words it keeps into the
graph; the hard selection leaves the dropped words without a gradient in
any case. The global layer rescores each pair by cosine similarity against
the vote of the *other* mentions, combined with the local score through a
second affine layer. The vote is the document's sum of confident
candidates' entity vectors minus the mention's own votes; it is None (so
the global score is 0) when every voter belongs to the mention, or the
document has no voters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .candidates import MentionSpan
from .encoder import EncodedDocument


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


def local_score(x_m: ad.Tensor, span: MentionSpan, y: ad.Tensor,
                ctx_feature: ad.Tensor | None, params: ScorerParams) -> ad.Tensor:
    """One score per candidate (row of `y`): an affine map of
    [log prior, <x_m, y_e>] and the optional context feature."""
    for entry in span.candidates:
        if entry.prior <= 0.0:
            raise ValueError(f"candidate {entry.entity_id!r} has non-positive prior {entry.prior}")
    log_prior = np.log([entry.prior for entry in span.candidates])
    feats = [ad.constant(log_prior), ad.matvec(y, x_m)]
    if params.psi_w.shape == (3,):
        if ctx_feature is None:
            raise ValueError("attention enabled but no context feature given")
        feats.append(ctx_feature)
    elif ctx_feature is not None:
        raise ValueError("context feature given but attention is disabled")
    if params.psi_w.shape != (len(feats),):
        raise ValueError(f"scorer expects {params.psi_w.shape[0]} features, got {len(feats)}")
    return ad.add(ad.matvec(ad.stack(feats), params.psi_w), params.psi_b)


def context_window(span: MentionSpan, n_tokens: int, window: int) -> list[int]:
    """Token positions up to window/2 on each side of the span, clipped at the
    document edges; the span's own tokens are excluded."""
    half = window // 2
    lo = max(0, span.start - half)
    hi = min(n_tokens - 1, span.end + half)
    return [k for k in range(lo, hi + 1) if k < span.start or k > span.end]


def long_range_feature(span: MentionSpan, enc: EncodedDocument, y: ad.Tensor,
                       window: int, keep: int, params: ScorerParams) -> ad.Tensor:
    """The context-attention feature of each candidate, one per row of `y`.

    Context words score u(w) = max_e <y_e, A . x_w> with a diagonal A; the
    top `keep` words are hard-selected (higher score first, then lower
    position), softmaxed into weights, and summed into a context embedding
    c; each candidate's feature is <y_e, B . c>.

    The ranking runs off the graph, as one (window × d)·(d × candidates)
    product over the window's A-scaled context vectors, checked once for
    non-finite scores, so an overflow raises even in a word that is then
    dropped. Only the kept words enter the graph, as one gathered block
    scored against each word's best candidate; the hard selection cuts the
    other words off from the loss, so building them would add nodes but no
    gradient.
    """
    if not 1 <= keep <= window:
        raise ValueError(f"need window >= keep >= 1, got window={window} keep={keep}")
    if params.att_a is None or params.att_b is None:
        raise ValueError("attention parameters not initialized")
    positions = context_window(span, len(enc), window)
    if not positions:
        return ad.constant(np.zeros(y.shape[0]))
    # einsum, not BLAS: a BLAS product may round two equal rows differently,
    # and equal words must tie exactly for the tie rule to hold
    word_scores = np.einsum("wd,cd->wc", enc.x.data[positions] * params.att_a.data, y.data)
    if not np.all(np.isfinite(word_scores)):
        raise FloatingPointError("non-finite values in attention word scores")
    u = word_scores.max(axis=1)
    kept = np.sort(np.argsort(-u, kind="stable")[:keep])
    x_kept = ad.take_rows(enc.x, np.asarray(positions)[kept])
    best = ad.take_rows(y, word_scores[kept].argmax(axis=1))
    beta = ad.softmax(ad.dot(best, ad.mul(x_kept, params.att_a)))
    c = ad.weighted_sum(x_kept, beta)
    return ad.matvec(y, ad.mul(params.att_b, c))


def combine_global(psi: ad.Tensor, g: ad.Tensor, params: ScorerParams) -> ad.Tensor:
    """Affine combination of each candidate's local score and voting score."""
    if params.phi_w is None or params.phi_b is None:
        raise ValueError("global parameters not initialized")
    return ad.add(ad.matvec(ad.stack([psi, g]), params.phi_w), params.phi_b)


def filter_voters(pairs: list[ScoredPair], cfg: GlobalConfig) -> list[ScoredPair]:
    """Exactly the pairs whose local score reaches the voting threshold."""
    return [p for p in pairs if p.psi >= cfg.gamma_prime]


def vote_vector(spans: list[MentionSpan], ys: list[ad.Tensor],
                voters: list[ScoredPair]) -> list[ad.Tensor | None]:
    """Each span's vote: the entity vectors of the voters from other
    mentions, summed.

    `ys[i]` holds the candidate vectors of `spans[i]` as rows, in candidate
    order (a span's candidate ids are distinct), and each voter is one of
    those (span, candidate) pairs, so an entity voted for by two mentions
    counts twice. A span's own votes are one masked sum over its rows, the
    document total is the sum of those, and each span subtracts its own
    votes: O(spans) nodes. A span that casts no vote sees the total; the
    vote is None when every voter belongs to the span, or there are none.
    """
    slot = {(span.start, span.end): i for i, span in enumerate(spans)}
    voted: dict[int, set[str]] = {}
    for v in voters:
        voted.setdefault(slot[v.span.start, v.span.end], set()).add(v.entity_id)
    own = {i: ad.weighted_sum(ys[i], ad.constant([c.entity_id in ids
                                                  for c in spans[i].candidates]))
           for i, ids in voted.items()}
    total = ad.addn(list(own.values())) if own else None
    votes: list[ad.Tensor | None] = []
    for i in range(len(spans)):
        if i not in own:
            votes.append(total)
        elif len(own) == 1:
            votes.append(None)
        else:
            votes.append(ad.sub(total, own[i]))
    return votes


def global_score(y: ad.Tensor, vote: ad.Tensor | None) -> ad.Tensor:
    """Cosine of each candidate vector (a row of `y`) with the vote sum; 0
    with no voters."""
    if vote is None:
        return ad.constant(np.zeros(y.shape[0]))
    return ad.cosine(y, vote)
