"""The linking model: stores, encoder and scorer wired into one unit.

Scoring a document is two-phase: every (span, candidate) pair first gets
its local score, then (when the global layer is on) the confident pairs
are frozen into a voter set, summed once per document, and each pair is
rescored against that sum minus its own mention's votes. Training mode
returns graph nodes for the loss; evaluation mode returns plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import scoring
from .candidates import MentionSpan
from .corpus import Document
from .embeddings import CharTable, EntityVectors, WordVectors
from .encoder import EncodedDocument, EncoderDims, EncoderParams, encode_document, \
    init_encoder_params, mention_repr


@dataclass
class PairScore:
    """Graph-node scores for one (span, candidate) pair."""

    span: MentionSpan
    entity_id: str
    prior: float
    psi: ad.Tensor
    g: ad.Tensor | None = None
    phi: ad.Tensor | None = None

    def detach(self) -> scoring.ScoredPair:
        return scoring.ScoredPair(
            span=self.span, entity_id=self.entity_id, prior=self.prior,
            psi=self.psi.item(),
            g=None if self.g is None else self.g.item(),
            phi=None if self.phi is None else self.phi.item())


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
        if not entities.frozen:
            self._entity_rows = ad.parameter(entities.matrix.astype(ad.default_dtype()))
            self.params.add("entities", self._entity_rows)
        else:
            self._entity_rows = None

    def entity_tensor(self, entity_id: str) -> ad.Tensor:
        if self._entity_rows is not None:
            idx = self.entities.index(entity_id)
            if idx is not None:
                return ad.row(self._entity_rows, idx)
        return ad.constant(np.asarray(self.entities.vector(entity_id),
                                      dtype=ad.default_dtype()))

    def encode(self, doc: Document, mode: str = "eval",
               rng: np.random.Generator | None = None) -> EncodedDocument:
        return encode_document(doc, self.words, self.chars, self.encoder, self.dims,
                               mode=mode, rng=rng)

    def pair_scores(self, doc: Document, spans: list[MentionSpan], mode: str = "eval",
                    rng: np.random.Generator | None = None) -> list[PairScore]:
        """Score every (span, candidate) pair of the document."""
        enc = self.encode(doc, mode=mode, rng=rng)
        pairs: list[PairScore] = []
        entity_cache: dict[str, ad.Tensor] = {}

        def y_of(eid: str) -> ad.Tensor:
            if eid not in entity_cache:
                entity_cache[eid] = self.entity_tensor(eid)
            return entity_cache[eid]

        for span in spans:
            if not span.candidates:
                continue
            x_m = mention_repr(span, enc, self.encoder, self.dims)
            ctx_feats: list[ad.Tensor | None]
            if self.use_attention:
                ctx_feats = scoring.long_range_feature(
                    span, enc, [y_of(c.entity_id) for c in span.candidates],
                    self.attention_window, self.attention_keep, self.scorer)
            else:
                ctx_feats = [None] * len(span.candidates)
            for entry, ctx in zip(span.candidates, ctx_feats):
                psi = scoring.local_score(x_m, entry, y_of(entry.entity_id), ctx, self.scorer)
                pairs.append(PairScore(span=span, entity_id=entry.entity_id,
                                       prior=entry.prior, psi=psi))

        if self.use_global:
            # phase two: voter set from the completed local scores
            voters = scoring.filter_voters([p.detach() for p in pairs], self.global_cfg)
            votes = scoring.vote_vector(spans, voters, y_of)
            for p in pairs:
                p.g = scoring.global_score(y_of(p.entity_id), votes[p.span.start, p.span.end])
                p.phi = scoring.combine_global(p.psi, p.g, self.scorer)
        return pairs

    def score_pairs(self, doc: Document, spans: list[MentionSpan]) -> list[scoring.ScoredPair]:
        """Evaluation-mode scores as plain floats."""
        return [p.detach() for p in self.pair_scores(doc, spans, mode="eval")]

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
