import numpy as np
import pytest

import helpers
from e2el.candidates import enumerate_spans
from e2el.corpus import Document
from e2el.model import LinkingModel
from e2el.scoring import GlobalConfig


def setup_toy(seed=0, **kw):
    table = {"sa": [("E0", 0.6), ("E1", 0.4)], "sb": [("E2", 1.0)]}
    words = helpers.word_store(["sa", "sb", "pad"], seed=1)
    ents = helpers.entity_store(["E0", "E1", "E2"], seed=2)
    model = helpers.build_model(words, ents, seed=seed, **kw)
    index = helpers.alias_index(table)
    doc = Document("d", ["sa", "pad", "sb"], gold=[(0, 0, "E0"), (2, 2, "E2")])
    return model, index, doc


class TestConstruction:
    def test_dim_validation(self):
        words = helpers.word_store(["a"], dim=8)
        ents = helpers.entity_store(["E"], dim=16)
        with pytest.raises(ValueError, match="word vectors"):
            helpers.build_model(words, ents, dims=helpers.toy_dims())
        words16 = helpers.word_store(["a"], dim=16)
        ents8 = helpers.entity_store(["E"], dim=8)
        with pytest.raises(ValueError, match="entity vectors"):
            helpers.build_model(words16, ents8, dims=helpers.toy_dims(entity_dim=16))

    def test_param_names(self):
        model, _, _ = setup_toy()
        names = model.params.names()
        assert "char_table" in names and "proj.w" in names and "psi.w" in names
        assert "phi.w" not in names and "att.a" not in names

    def test_global_and_attention_params(self):
        model, _, _ = setup_toy(use_global=True, use_attention=True)
        names = model.params.names()
        assert {"phi.w", "phi.b", "att.a", "att.b"} <= set(names)
        assert model.scorer.psi_w.shape == (3,)


class TestScoring:
    def test_pair_fields_follow_flags(self):
        from e2el.candidates import enumerate_spans
        model, index, doc = setup_toy()
        pairs = model.score_pairs(doc, enumerate_spans(doc, index))
        assert len(pairs) == 3
        assert all(p.g is None and p.phi is None for p in pairs)

        gmodel, _, _ = setup_toy(use_global=True)
        gpairs = gmodel.score_pairs(doc, enumerate_spans(doc, index))
        assert all(p.g is not None and p.phi is not None for p in gpairs)
        for p in gpairs:
            assert -1.0 - 1e-6 <= p.g <= 1.0 + 1e-6

    def test_missing_entity_vector_scores_zero_dot(self):
        model, index, doc = setup_toy()
        t = model.entity_tensor("NOT_AN_ENTITY")
        assert np.allclose(t.data, 0.0)

    def test_eval_scoring_is_repeatable(self):
        from e2el.candidates import enumerate_spans
        model, index, doc = setup_toy()
        spans = enumerate_spans(doc, index)
        a = [p.psi for p in model.score_pairs(doc, spans)]
        b = [p.psi for p in model.score_pairs(doc, spans)]
        assert a == b

    @staticmethod
    def voting_document(frozen=True):
        """Twelve one-token mentions of three candidates each, every pair voting."""
        table = {s: [(f"E{k}", p) for k, p in zip(ks, (0.5, 0.3, 0.2))]
                 for s, ks in (("sa", (0, 1, 2)), ("sb", (2, 3, 4)), ("sc", (4, 5, 0)))}
        words = helpers.word_store(["sa", "sb", "sc", "pad"], seed=1)
        ents = helpers.entity_store([f"E{k}" for k in range(6)], seed=2)
        ents.frozen = frozen
        doc = Document("d", ["sa", "sb", "sc", "pad", "sb", "sa", "sa", "sc", "sb",
                             "pad", "sc", "sa", "sb", "sc"])
        spans = enumerate_spans(doc, helpers.alias_index(table))
        model = helpers.build_model(words, ents, seed=3, use_global=True,
                                    global_cfg=GlobalConfig(gamma_prime=-100.0))
        return model, doc, spans

    def test_vote_graph_is_linear_in_voters(self):
        # the document sum has one edge per voter and each span's vote two
        # (the sum and its own votes), whose sums add one edge per voter;
        # a per-span scan has spans × voters
        model, doc, spans = self.voting_document(frozen=False)
        pairs = model.pair_scores(doc, spans, mode="train", rng=np.random.default_rng(0))
        votes = {id(p.g._parents[1]): p.g._parents[1] for p in pairs}
        assert len(pairs) == 36 and len(spans) == 12
        assert sum(len(v._parents) for v in votes.values()) <= 36 + 2 * 12
        below, todo = dict(votes), list(votes.values())
        while todo:  # every node between the votes and the entity rows
            for parent in todo.pop()._parents:
                if parent.op != "row" and id(parent) not in below:
                    below[id(parent)] = parent
                    todo.append(parent)
        assert sum(len(v._parents) for v in below.values()) <= 2 * 36 + 2 * 12

    def test_global_scores_match_per_span_votes(self):
        # the model's g against cosines with each span's other-mention votes
        model, doc, spans = self.voting_document()
        pairs = model.score_pairs(doc, spans)
        for gamma_prime in (-100.0, float(np.median([p.psi for p in pairs]))):
            model.global_cfg = GlobalConfig(gamma_prime=gamma_prime)
            pairs = model.score_pairs(doc, spans)
            voters = [p for p in pairs if p.psi >= gamma_prime]
            for p in pairs:
                others = [model.entities.vector(v.entity_id) for v in voters
                          if v.span.start != p.span.start]
                vote = np.sum(others, axis=0, dtype=np.float64)
                y = model.entities.vector(p.entity_id)
                g = float(y @ vote) / (np.linalg.norm(y) * np.linalg.norm(vote))
                assert p.g == pytest.approx(g, abs=1e-5)

    def test_checkpoint_char_inventory_guard(self):
        model, _, _ = setup_toy()
        state = model.state_arrays()
        state["meta.char_vocab"] = state["meta.char_vocab"][:-1]
        with pytest.raises(ValueError, match="inventory"):
            model.load_state_arrays(state)
