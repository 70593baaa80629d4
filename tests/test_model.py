import numpy as np
import pytest

import helpers
from e2el import autodiff as ad
from e2el import model as model_module
from e2el import scoring, training
from e2el.candidates import (CandidateEntry, MentionSpan, apply_coreference_heuristic,
                             enumerate_spans)
from e2el.corpus import Document
from e2el.encoder import EncodedDocument
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
        sp = MentionSpan("d", 0, 0, "sa", [CandidateEntry(e, 0.5)
                                           for e in ("E1", "NOT_AN_ENTITY", "E0")])
        for frozen in (True, False):
            ents = helpers.entity_store(["E0", "E1"], seed=2)
            ents.frozen = frozen
            model = helpers.build_model(helpers.word_store(["sa"], seed=1), ents)
            y = model.candidate_rows([sp])
            assert np.array_equal(y.data, [ents.vector("E1"), np.zeros(16),
                                           ents.vector("E0")])
            assert y.requires_grad is not frozen

    @pytest.mark.parametrize("frozen", [True, False])
    def test_candidate_rows_match_per_pair_oracle(self, frozen, caplog):
        # repeated surfaces share the index's lists, coreferent spans their
        # root's, and one entity, in three lists, has no vector
        table = {"Alan Shearer": [("E0", 0.9), ("NOVEC", 0.1)],
                 "Alan": [("E1", 0.6), ("NOVEC", 0.3), ("E0", 0.1)],
                 "Shearer": [("E2", 0.5), ("E0", 0.5)], "goal": [("E3", 1.0), ("NOVEC", 0.2)]}
        doc = Document("d", "Alan Shearer scored a goal , then Alan , Shearer and a goal "
                            "Alan".split())
        index = helpers.alias_index(table)
        raw = enumerate_spans(doc, index)
        coref = apply_coreference_heuristic(raw, doc)
        assert len({id(s.candidates) for s in raw}) == 4 < len(raw)
        assert len({id(s.candidates) for s in coref}) == 2
        ents = helpers.entity_store(["E0", "E1", "E2", "E3"], seed=2)
        ents.frozen = frozen
        model = helpers.build_model(helpers.word_store(doc.tokens, seed=1), ents)
        rng = np.random.default_rng(5)
        for spans in (raw, coref, coref + raw, raw[1:2]):
            probe = ad.constant(rng.standard_normal((sum(len(s.candidates) for s in spans),
                                                     ents.dim)))
            outputs = []
            for rows_of in (model.candidate_rows,
                            lambda spans: helpers.reference_candidate_rows(model, spans)):
                model._entity_rows.grad = None
                with caplog.at_level("WARNING"):
                    y = rows_of(spans)
                grad = None
                if not frozen:
                    ad.backward(ad.sum1d(ad.dot(y, probe)))
                    grad = model._entity_rows.grad
                outputs.append((y.data, y.requires_grad, grad))
            (y, tracked, grad), (want, want_tracked, want_grad) = outputs
            assert y.dtype == want.dtype and np.array_equal(y, want)
            assert tracked == want_tracked == (not frozen)
            assert frozen or np.array_equal(grad, want_grad)
        assert caplog.text.count("entity 'NOVEC' has no embedding") == 1

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
        # the votes are one table over the pairs: one cosine, and between it
        # and the gathered candidate rows a fixed handful of nodes (the
        # spans' own votes, their sum, and each pair's difference of the
        # two); a per-span scan has spans × voters edges
        model, doc, spans = self.voting_document(frozen=False)
        table = model.pair_scores(doc, spans, mode="train", rng=np.random.default_rng(0))
        cosines = {id(table.g): table.g}
        votes = {id(c._parents[1]): c._parents[1] for c in cosines.values()}
        rows = {id(c._parents[0]) for c in cosines.values()}
        assert len(table) == 36 and len(spans) == 12 and len(rows) == 1
        assert sum(len(v._parents) for v in votes.values()) <= 36 + 2 * 12
        below, todo = dict(votes), list(votes.values())
        while todo:  # every node between the votes and the gathered entity rows
            for parent in todo.pop()._parents:
                if id(parent) not in rows and id(parent) not in below:
                    below[id(parent)] = parent
                    todo.append(parent)
        assert sum(len(v._parents) for v in below.values()) <= 2 * 36 + 2 * 12

    @staticmethod
    def attention_document(n_candidates=9):
        """120 tokens with a span on most, `n_candidates` candidates per
        span, the model with attention (K=10) and global voting on and
        every pair voting."""
        ids = [f"E{k}" for k in range(12)]
        words = helpers.word_store([f"t{k}" for k in range(7)], seed=1)
        ents = helpers.entity_store(ids, seed=2)
        ents.frozen = False
        table = {f"t{k}": [(ids[(k + j) % 12], 0.1 * (j + 1)) for j in range(n_candidates)]
                 for k in range(5)}
        model = helpers.build_model(words, ents, seed=3, use_attention=True, use_global=True,
                                    attention_window=200, attention_keep=10,
                                    global_cfg=GlobalConfig(gamma_prime=-100.0))
        doc = Document("d", [f"t{k % 7}" for k in range(120)])
        return model, doc, enumerate_spans(doc, helpers.alias_index(table))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_pair_scores_graph_is_independent_of_the_pair_count(self, monkeypatch, mode):
        # beyond the encoder, the table builds a fixed handful of nodes per
        # span length and kept count, and none per pair: the same spans with
        # 2 and with 9 candidates each build the same number of Tensors
        count, init = [0], ad.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        built = {}
        for n_candidates in (2, 9):
            model, doc, spans = self.attention_document(n_candidates)
            enc = model.encode(doc, mode=mode, rng=np.random.default_rng(0))
            model.encode = lambda *args, **kwargs: enc
            count[0] = 0
            table = model.pair_scores(doc, spans, mode=mode)
            built[n_candidates] = count[0]
            assert len(table) == n_candidates * len(spans) and len(spans) >= 80
        assert built[2] == built[9], built

    def test_each_layer_runs_once_per_document(self, monkeypatch):
        model, doc, spans = self.attention_document()
        calls = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(model_module, "mention_repr")
        for name in ("local_score", "long_range_feature", "filter_voters", "vote_vector",
                     "global_score", "combine_global"):
            counted(scoring, name)
        model.pair_scores(doc, spans, mode="train", rng=np.random.default_rng(0))
        model.score_pairs(doc, spans)
        assert calls == dict.fromkeys(["mention_repr", "local_score", "long_range_feature",
                                       "filter_voters", "vote_vector", "global_score",
                                       "combine_global"], 2)

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


def table_case(rng, dtype, case_no):
    """A seeded model and encoded document whose V and X are trainable
    matrices: case_no cycles attention, the global layer and frozen entities
    on and off, and a voting threshold that no pair, one span's pairs, some
    pairs or every pair reaches; half the documents draw X from three rows,
    so that attention scores tie; a fifth of the attention windows hold no
    context word; candidates include an entity without a vector."""
    use_attention, use_global, frozen = (bool(case_no >> bit & 1) for bit in range(3))
    dims = helpers.toy_dims(entity_dim=4, word_dim=4, char_dim=2, char_hidden=2,
                            ctx_hidden=2)
    ids = [f"E{i}" for i in range(8)]
    ents = helpers.entity_store(ids, dim=4, seed=int(rng.integers(1 << 30)))
    ents.frozen = frozen
    window = 1 if rng.random() < 0.2 else int(rng.integers(2, 50))
    votes = ["none", "one", "some", "all"][case_no // 8 % 4]
    model = helpers.build_model(helpers.word_store(["w"], dim=4), ents, dims=dims,
                                seed=int(rng.integers(1000)), use_attention=use_attention,
                                use_global=use_global, attention_window=window,
                                attention_keep=int(rng.integers(1, window + 1)),
                                global_cfg=GlobalConfig(gamma_prime={"none": 1e9, "one": 0.0,
                                                                     "some": 0.0,
                                                                     "all": -1e9}[votes]))
    for t in model.params.tensors().values():
        if t.data.ndim < 2:  # biases start at zero and att.a, att.b at one
            t.data = rng.standard_normal(t.shape).astype(dtype)
    n = int(rng.integers(2, 40))
    if rng.random() < 0.5:
        x = rng.standard_normal((3, dims.x_dim))[rng.integers(0, 3, size=n)]
    else:
        x = rng.standard_normal((n, dims.x_dim))
    enc = EncodedDocument("d", v=ad.parameter(rng.standard_normal((n, dims.v_dim))),
                          x=ad.parameter(x))
    spans = {}
    for _ in range(int(rng.integers(1, 9))):
        start = int(rng.integers(0, n))
        end = min(n - 1, start + int(rng.integers(0, 6)))
        chosen = rng.choice(ids + ["NOVEC"], size=int(rng.integers(1, 10)), replace=False)
        spans[start, end] = MentionSpan("d", start, end, "s", [
            CandidateEntry(str(e), float(rng.uniform(0.05, 1.0))) for e in chosen])
    spans = list(spans.values())
    model.encode = lambda doc, mode="eval", rng=None: enc
    if use_global and votes == "one":
        # halfway between the best and second-best span's best local score
        table = model.pair_scores(Document("d", ["w"] * n), spans)
        psi = table.psi.data.tolist()
        best = sorted((max(v for (span, _, _), v in zip(table.rows, psi) if span is s)
                       for s in spans), reverse=True) + [-1e9]
        model.global_cfg = GlobalConfig(gamma_prime=(best[0] + best[1]) / 2)
    return model, enc, spans


class TestPairTableMatchesPerPair:
    """`pair_scores` against `helpers.per_pair_scores`, on random documents."""

    @staticmethod
    def run(model, enc, spans, weights, table):
        inputs = [*model.params.tensors().values(), enc.v, enc.x]
        for t in inputs:
            t.grad = None
        fields = ("psi", "g", "phi") if model.use_global else ("psi",)
        if table:
            scores = model.pair_scores(Document("d", ["w"] * len(enc)), spans)
            vector = ad.concat([getattr(scores, f) for f in fields])
        else:
            pairs = helpers.per_pair_scores(model, enc, spans)
            vector = ad.stack([getattr(p, f) for f in fields for p in pairs])
        values = vector.data.astype(np.float64)
        loss = ad.dot(ad.constant(weights[:len(values)]), vector)
        if loss.requires_grad:
            ad.backward(loss)
        return values, [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                        for t in inputs]

    @staticmethod
    def coverage(model, enc, spans, psi):
        """The names of the cases the document covers, each with a count."""
        seen = {f"length {s.length}": 1 for s in spans}
        seen["unknown"] = sum(any(c.entity_id == "NOVEC" for c in s.candidates) for s in spans)
        seen["frozen" if model.entities.frozen else "trainable"] = 1
        if model.use_attention:
            window, keep, n = model.attention_window, model.attention_keep, len(enc)
            kept = [min(keep, len(helpers.context_window(s, n, window))) for s in spans]
            seen["clipped_left"] = sum(s.start - window // 2 < 0 for s in spans)
            seen["clipped_right"] = sum(s.end + window // 2 > n - 1 for s in spans)
            seen["all_kept"] = sum(keep >= len(helpers.context_window(s, n, window)) for s in spans)
            seen["kept 0"] = kept.count(0)
            seen["kept K"] = kept.count(keep)
            seen["kept between"] = sum(0 < k < keep for k in kept)
            seen["kept counts mixed"] = len(set(kept)) > 1
            seen["tied"] = len(np.unique(enc.x.data, axis=0)) <= 3
        if model.use_global and len(spans) > 1:
            span_of = np.repeat(np.arange(len(spans)), [len(s.candidates) for s in spans])
            voting = len(set(span_of[psi >= model.global_cfg.gamma_prime]))
            for count, name in ((0, "no_voters"), (1, "one voting span"),
                                (len(spans), "every span voting")):
                seen[name] = voting == count
        return seen

    @pytest.mark.parametrize("precision, tol", [("float64", 1e-9), ("float32", 1e-5)])
    def test_random_documents_agree(self, precision, tol):
        rng = np.random.default_rng(31)
        seen = dict.fromkeys(
            [f"length {k}" for k in range(1, 7)] + [
                "frozen", "trainable", "unknown", "clipped_left", "clipped_right", "all_kept",
                "kept 0", "kept between", "kept K", "kept counts mixed", "tied",
                "no_voters", "one voting span", "every span voting"], 0)
        with ad.precision(precision):
            dtype = ad.default_dtype()
            for case_no in range(128):
                model, enc, spans = table_case(rng, dtype, case_no)
                weights = rng.standard_normal(3 * sum(len(s.candidates) for s in spans))
                values, grads = self.run(model, enc, spans, weights, table=True)
                values_ref, grads_ref = self.run(model, enc, spans, weights, table=False)
                assert np.abs(values - values_ref).max() <= tol
                # the same rows of X reached: span, boundary and kept attention words
                assert np.array_equal(grads[-1].any(axis=1), grads_ref[-1].any(axis=1))
                for g, g_ref in zip(grads, grads_ref):
                    if precision == "float64":
                        rel = np.abs(g - g_ref) / np.maximum(
                            np.maximum(np.abs(g), np.abs(g_ref)), 1e-8)
                        assert rel.max() <= 1e-6
                psi = values[:sum(len(s.candidates) for s in spans)]
                for name, count in self.coverage(model, enc, spans, psi).items():
                    seen[name] += count
        assert min(seen.values()) >= 10, seen


class TestPairTableMatchesViews:
    """`pair_scores`, `score_pairs` and `document_loss` against the per-pair
    views of `helpers.view_pair_scores` and `helpers.view_document_loss`:
    the same floats and the same gradients, bit for bit."""

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_random_documents_equal(self, precision):
        rng = np.random.default_rng(47)
        seen = dict.fromkeys(["attention", "no attention", "global", "no global", "frozen",
                              "trainable", "unknown"], 0)
        with ad.precision(precision):
            for case_no in range(64):
                model, enc, spans = table_case(rng, ad.default_dtype(), case_no)
                doc = Document("d", ["w"] * len(enc))
                table = model.pair_scores(doc, spans)
                views = helpers.view_pair_scores(model, doc, spans)
                assert [row[1:] for row in table.rows] == [(p.entity_id, p.prior) for p in views]
                assert all(row[0] is p.span for row, p in zip(table.rows, views))
                for field in ("psi", "g", "phi"):
                    vector = getattr(table, field)
                    if vector is None:
                        assert all(getattr(p, field) is None for p in views)
                    else:
                        assert vector.data.tolist() == [getattr(p, field).item() for p in views]
                assert model.score_pairs(doc, spans) == [
                    scoring.ScoredPair(span=p.span, entity_id=p.entity_id, prior=p.prior,
                                       psi=p.psi.item(),
                                       g=None if p.g is None else p.g.item(),
                                       phi=None if p.phi is None else p.phi.item())
                    for p in views]

                gold = [(s.start, s.end, c.entity_id) for s in spans for c in s.candidates
                        if rng.random() < 0.3] + [(0, 0, "NOT_A_CANDIDATE")]
                cfg = training.TrainConfig(gamma=float(rng.uniform(0.05, 1.0)))
                inputs = [*model.params.tensors().values(), enc.v, enc.x]

                def loss_and_grads(loss_fn):
                    for t in inputs:
                        t.grad = None
                    loss = loss_fn()
                    ad.backward(loss)
                    return loss.item(), [t.grad for t in inputs]

                loss, grads = loss_and_grads(lambda: training.document_loss(
                    doc, spans, gold, model, cfg).loss)
                loss_ref, grads_ref = loss_and_grads(lambda: helpers.view_document_loss(
                    doc, spans, gold, model, cfg))
                assert loss == loss_ref
                for t, g, g_ref in zip(inputs, grads, grads_ref):
                    assert (g is None) == (g_ref is None), t
                    assert g is None or np.array_equal(g, g_ref), t
                seen["attention" if model.use_attention else "no attention"] += 1
                seen["global" if model.use_global else "no global"] += 1
                seen["frozen" if model.entities.frozen else "trainable"] += 1
                seen["unknown"] += any(c.entity_id == "NOVEC" for s in spans
                                       for c in s.candidates)
        assert min(seen.values()) >= 10, seen
