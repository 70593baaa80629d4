"""The linking model: stores, encoder and scorer wired into one unit.

A document's (span, candidate) pairs are the rows of one table. Scoring
is two-phase: every pair first gets its local score, then (when the global
layer is on) the pairs that pass the voting threshold vote, and each pair
is rescored against the votes of the other mentions. `pair_scores` returns
the table: each pair's span, entity id and prior, and each score as one
(pairs,) vector node, so the graph a document builds does not grow with
its pair count. Its readers take the vectors whole: the loss as graph
nodes, `score_pairs` as plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import scoring
from .candidates import MentionSpan
from .corpus import Document
from .embeddings import CharTable, EntityVectors, WordVectors
from .encoder import EncodedDocument, EncoderDims, encode_document, init_encoder_params, \
    mention_repr


@dataclass
class PairScore:
    """Graph-node scores for one (span, candidate) pair, as a stand-in
    scorer may give them; `stack_pair_scores` makes them a table."""

    span: MentionSpan
    entity_id: str
    prior: float
    psi: ad.Tensor
    g: ad.Tensor | None = None
    phi: ad.Tensor | None = None


@dataclass
class PairTable:
    """A document's (span, candidate) pairs: one row (span, entity id,
    prior) per pair, in pair order, and each score as one (pairs,) vector
    node. g and phi are None when the global layer is off."""

    rows: list[tuple[MentionSpan, str, float]]
    psi: ad.Tensor
    g: ad.Tensor | None = None
    phi: ad.Tensor | None = None

    def __len__(self) -> int:
        return len(self.rows)


def stack_pair_scores(pairs: Sequence[PairScore]) -> PairTable:
    """The table of a non-empty list of per-pair score records: each score
    stacked into one vector, or None where a pair lacks it."""
    psi, g, phi = (None if None in nodes else ad.stack(nodes)
                   for nodes in zip(*((p.psi, p.g, p.phi) for p in pairs)))
    return PairTable(rows=[(p.span, p.entity_id, p.prior) for p in pairs], psi=psi, g=g,
                     phi=phi)


class LinkingModel:
    def __init__(self, dims: EncoderDims, words: WordVectors, chars: CharTable,
                 entities: EntityVectors, seed: int = 0,
                 use_attention: bool = False, use_global: bool = False,
                 attention_window: int = 200, attention_keep: int = 10,
                 global_cfg: scoring.GlobalConfig | None = None):
        if words.dim != dims.word_dim:
            raise ValueError(f"word vectors are {words.dim}-d, config says {dims.word_dim}")
        if entities.dim != dims.entity_dim:
            raise ValueError(f"entity vectors are {entities.dim}-d, config says {dims.entity_dim}")
        if chars.dim != dims.char_dim:
            raise ValueError(f"char table is {chars.dim}-d, config says {dims.char_dim}")
        self.dims = dims
        self.words = words
        self.chars = chars
        self.entities = entities
        self.use_attention = use_attention
        self.use_global = use_global
        self.attention_window = attention_window
        self.attention_keep = attention_keep
        self.global_cfg = global_cfg or scoring.GlobalConfig()

        rng = np.random.default_rng([seed, 1])
        self.encoder = init_encoder_params(dims, rng)
        self.scorer = scoring.init_scorer_params(
            dims.entity_dim, rng, use_attention=use_attention, use_global=use_global)

        self.params = ad.ParamStore()
        self.params.add("char_table", chars.rows)
        for name, w in (("char_fwd", self.encoder.char_fwd),
                        ("char_bwd", self.encoder.char_bwd),
                        ("ctx_fwd", self.encoder.ctx_fwd),
                        ("ctx_bwd", self.encoder.ctx_bwd)):
            self.params.add(f"{name}.w_x", w.w_x)
            self.params.add(f"{name}.w_h", w.w_h)
            self.params.add(f"{name}.b", w.b)
        self.params.add("attn.w", self.encoder.attn_w)
        self.params.add("proj.w", self.encoder.proj_w)
        self.params.add("proj.b", self.encoder.proj_b)
        self.params.add("psi.w", self.scorer.psi_w)
        self.params.add("psi.b", self.scorer.psi_b)
        if use_global:
            self.params.add("phi.w", self.scorer.phi_w)
            self.params.add("phi.b", self.scorer.phi_b)
        if use_attention:
            self.params.add("att.a", self.scorer.att_a)
            self.params.add("att.b", self.scorer.att_b)
        if entities.frozen:
            self._entity_rows = ad.constant(entities.matrix)
        else:
            self._entity_rows = self.params.add("entities", ad.parameter(entities.matrix))

    def candidate_rows(self, spans: list[MentionSpan]) -> ad.Tensor:
        """The candidate vectors of every pair of `spans`, in pair order, as
        the rows of one (pairs × d) table gathered from the entity matrix, a
        parameter or, when frozen, a constant. An entity without a vector
        has a zero row, and the first time it is seen it logs a warning.

        Spans share candidate lists (a coreferent span takes its root's,
        and a repeated surface the index's), so each distinct list is
        resolved to entity rows once, keyed by its identity: the lookups
        follow the distinct lists of the document, not its pairs.
        """
        index = self.entities.index
        resolved: dict[int, list[int | None]] = {}  # id(candidate list) -> its rows
        rows: list[int | None] = []
        missing: set[str] = set()
        for span in spans:
            found = resolved.get(id(span.candidates))
            if found is None:
                found = resolved[id(span.candidates)] = [index(c.entity_id)
                                                         for c in span.candidates]
                if None in found:
                    missing.update(c.entity_id for c, r in zip(span.candidates, found)
                                   if r is None)
            rows += found
        if not missing:
            return ad.take_rows(self._entity_rows, rows)
        y = ad.take_rows(self._entity_rows, [r or 0 for r in rows])
        for e in missing:
            self.entities.vector(e)  # logs the missing vector once
        return ad.mul(y, ad.constant(np.outer([r is not None for r in rows], np.ones(y.shape[1]))))

    def encode(self, doc: Document, mode: str = "eval",
               rng: np.random.Generator | None = None) -> EncodedDocument:
        return encode_document(doc, self.words, self.chars, self.encoder, self.dims,
                               mode=mode, rng=rng)

    def pair_scores(self, doc: Document, spans: list[MentionSpan], mode: str = "eval",
                    rng: np.random.Generator | None = None) -> PairTable:
        """Score every (span, candidate) pair of the document, all pairs as
        the rows of one table."""
        enc = self.encode(doc, mode=mode, rng=rng)
        spans = [span for span in spans if span.candidates]
        if not spans:
            return PairTable(rows=[], psi=ad.constant(np.zeros(0, dtype=ad.default_dtype())))
        y = self.candidate_rows(spans)
        ctx = None
        if self.use_attention:
            ctx = scoring.long_range_feature(spans, enc, y, self.attention_window,
                                             self.attention_keep, self.scorer)
        psi = scoring.local_score(mention_repr(spans, enc, self.encoder), spans, y, ctx,
                                  self.scorer)
        g = phi = None
        if self.use_global:
            # phase two: the voters are the pairs whose completed local score passes
            voters = scoring.filter_voters(psi.data, self.global_cfg)
            g = scoring.global_score(y, scoring.vote_vector(spans, y, voters))
            phi = scoring.combine_global(psi, g, self.scorer)
        rows = [(span, c.entity_id, c.prior) for span in spans for c in span.candidates]
        return PairTable(rows=rows, psi=psi, g=g, phi=phi)

    def score_pairs(self, doc: Document, spans: list[MentionSpan]) -> list[scoring.ScoredPair]:
        """Evaluation-mode scores as plain floats."""
        table = self.pair_scores(doc, spans, mode="eval")
        psi, g, phi = ([None] * len(table) if v is None else v.data.tolist()
                       for v in (table.psi, table.g, table.phi))
        pair = scoring.ScoredPair  # positional: keywords cost a parse per pair
        return [pair(span, entity_id, prior, a, b, c)
                for (span, entity_id, prior), a, b, c in zip(table.rows, psi, g, phi)]

    # ------------------------------------------------------------------
    # persistence

    def state_arrays(self) -> dict[str, np.ndarray]:
        state = self.params.state_dict()
        state["meta.char_vocab"] = self.chars.codepoints().astype(np.float32)
        return state

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        vocab = state.get("meta.char_vocab")
        if vocab is not None:
            expect = self.chars.codepoints().astype(np.float32)
            if vocab.shape != expect.shape or not np.array_equal(vocab, expect):
                raise ValueError("checkpoint char inventory differs from the model's")
        self.params.load_state_dict({k: v for k, v in state.items()
                                     if not k.startswith("meta.")})
