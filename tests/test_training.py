import gc

import numpy as np
import pytest

import helpers
from e2el import autodiff as ad
from e2el import inference, scoring, training
from e2el.candidates import CandidateEntry, MentionSpan
from e2el.corpus import Document
from e2el.model import LinkingModel, PairScore


class TestViolation:
    def v(self, score, is_gold, gamma=0.2):
        node = training.violation(ad.constant(np.asarray(score, dtype=np.float32)),
                                  is_gold, gamma)
        return node.item()

    def test_gold_margin_satisfied(self):
        assert self.v(0.5, True) == 0.0

    def test_gold_margin_violated(self):
        assert self.v(-0.1, True) == pytest.approx(0.3)

    def test_non_gold(self):
        assert self.v(0.3, False) == pytest.approx(0.3)
        assert self.v(-0.3, False) == 0.0

    def test_non_negative_everywhere(self):
        rng = np.random.default_rng(0)
        for s in rng.normal(scale=2.0, size=50):
            assert self.v(float(s), True) >= 0.0
            assert self.v(float(s), False) >= 0.0


class ConstantScoreModel:
    """pair_scores stub emitting fixed psi values as graph constants."""

    def __init__(self, scores):
        self.scores = scores  # entity_id -> value

    def pair_scores(self, doc, spans, mode="train", rng=None):
        out = []
        for s in spans:
            for c in s.candidates:
                psi = ad.constant(np.asarray(self.scores[c.entity_id], dtype=np.float32))
                out.append(PairScore(span=s, entity_id=c.entity_id, prior=c.prior, psi=psi))
        return out


def two_candidate_span(doc_id="d"):
    return MentionSpan(doc_id=doc_id, start=0, end=0, surface="s",
                       candidates=[CandidateEntry("GOLD", 0.6), CandidateEntry("OTHER", 0.4)])


class TestDocumentLoss:
    def run_loss(self, psis, cfg=None):
        cfg = cfg or training.TrainConfig(gamma=0.2)
        doc = Document("d", ["s"], gold=[(0, 0, "GOLD")])
        model = ConstantScoreModel({"GOLD": psis[0], "OTHER": psis[1]})
        return training.document_loss(doc, [two_candidate_span()], doc.gold, model, cfg)

    def test_both_hinges_inactive(self):
        assert self.run_loss((0.5, -0.5)).loss.item() == 0.0

    def test_sum_of_hinges(self):
        assert self.run_loss((0.0, 0.1)).loss.item() == pytest.approx(0.3)

    def test_gold_outside_candidates_counted(self):
        cfg = training.TrainConfig()
        doc = Document("d", ["s"], gold=[(0, 0, "MISSING")])
        model = ConstantScoreModel({"GOLD": 0.5, "OTHER": -0.5})
        result = training.document_loss(doc, [two_candidate_span()], doc.gold, model, cfg)
        assert result.gold_pairs == 1 and result.gold_covered == 0
        # both candidates are negatives now: max(0, 0.5) + max(0, -0.5)
        assert result.loss.item() == pytest.approx(0.5)

    def test_empty_span_set_warns_and_returns_zero(self, caplog):
        cfg = training.TrainConfig()
        doc = Document("d", ["s"], gold=[(0, 0, "GOLD")])
        with caplog.at_level("WARNING"):
            result = training.document_loss(doc, [], doc.gold, ConstantScoreModel({}), cfg)
        assert result.loss.item() == 0.0
        assert not result.trainable
        assert "no scorable spans" in caplog.text

    def test_gradient_matches_finite_differences(self):
        with ad.precision("float64"):
            table = {"surf0": [("E0", 0.5), ("E1", 0.5)],
                     "surf1": [("E2", 1.0)],
                     "surf2": [("E1", 0.7), ("E2", 0.3)]}
            words = helpers.word_store(["surf0", "surf1", "surf2", "pad"], dim=8, seed=1)
            ents = helpers.entity_store(["E0", "E1", "E2"], dim=8, seed=2)
            dims = helpers.toy_dims(entity_dim=8, word_dim=8, char_dim=3, char_hidden=3,
                                    ctx_hidden=4)
            model = helpers.build_model(words, ents, dims=dims, seed=3)
            index = helpers.alias_index(table)
            doc = Document("d", ["surf0", "pad", "surf1", "surf2"],
                           gold=[(0, 0, "E0"), (2, 2, "E2")])
            cfg = training.TrainConfig(gamma=0.2)
            spans = training.spans_for_regime(doc, index, cfg)
            assert len(spans) == 3

            def loss():
                return training.document_loss(doc, spans, doc.gold, model, cfg,
                                              mode="eval").loss

            for name in ("proj.w", "psi.w", "attn.w", "ctx_fwd.w_x", "char_table"):
                err = ad.grad_check(loss, model.params[name])
                assert err <= 1e-4, f"{name}: {err}"


class TestLossMatchesViews:
    """`document_loss` against `helpers.view_document_loss` on encoded
    documents in training mode, dropout on: the same loss and the same
    gradient of every parameter, bit for bit."""

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("frozen", [True, False])
    @pytest.mark.parametrize("use_attention, use_global", [(False, False), (True, False),
                                                           (False, True), (True, True)])
    def test_loss_and_gradients_equal(self, precision, frozen, use_attention, use_global):
        docs, table, tokens, entity_ids = helpers.overfit_corpus(n_docs=4, seed=3)
        with ad.precision(precision):
            # the last entity has no vector: a zero candidate row
            ents = helpers.entity_store(entity_ids[:-1], seed=2)
            ents.frozen = frozen
            model = helpers.build_model(
                helpers.word_store(tokens, seed=1), ents, seed=4,
                dims=helpers.toy_dims(dropout_keep=0.6), use_attention=use_attention,
                use_global=use_global, attention_window=6, attention_keep=3,
                global_cfg=scoring.GlobalConfig(gamma_prime=-0.5))
            index = helpers.alias_index(table)
            cfg = training.TrainConfig(gamma=0.2)
            params = model.params.tensors()
            unknown = 0
            for doc in docs:
                spans = training.spans_for_regime(doc, index, cfg)

                def loss_and_grads(loss_fn):
                    model.params.zero_grad()
                    loss = loss_fn(doc, spans, doc.gold, model, cfg,
                                   rng=np.random.default_rng(5))
                    ad.backward(loss)
                    return loss.item(), {n: t.grad for n, t in params.items()}

                loss, grads = loss_and_grads(
                    lambda *args, **kw: training.document_loss(*args, **kw).loss)
                loss_ref, grads_ref = loss_and_grads(helpers.view_document_loss)
                assert loss == loss_ref > 0.0
                unknown += sum(c.entity_id == entity_ids[-1] for s in spans
                               for c in s.candidates)
                for name in params:
                    assert (grads[name] is None) == (grads_ref[name] is None), name
                    assert grads[name] is None or np.array_equal(grads[name],
                                                                 grads_ref[name]), name
                assert ("entities" in grads) is not frozen
        assert unknown > 0

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_no_scorable_span(self, precision, caplog):
        docs, _, model = build_toy(seed=4)
        doc = docs[0]
        spans = [MentionSpan("doc0", 1, 1, "surf0")]  # no candidates
        cfg = training.TrainConfig()
        with ad.precision(precision), caplog.at_level("WARNING"):
            result = training.document_loss(doc, spans, doc.gold, model, cfg)
            ref = helpers.view_document_loss(doc, spans, doc.gold, model, cfg)
        assert result.loss.item() == ref.item() == 0.0
        assert not result.trainable and result.n_pairs == 0
        assert "doc0: no scorable spans" in caplog.text


def unambiguous_corpus(n_docs=20):
    table = {f"surf{i}": [(f"E{i}", 1.0)] for i in range(10)}
    docs = []
    for d in range(n_docs):
        i, j = d % 10, (d + 3) % 10
        docs.append(Document(f"doc{d}", ["the", f"surf{i}", "met", f"surf{j}"],
                             gold=[(1, 1, f"E{i}"), (3, 3, f"E{j}")]))
    word_tokens = [f"surf{i}" for i in range(10)] + ["the", "met"]
    return docs, helpers.alias_index(table), word_tokens, [f"E{i}" for i in range(10)]


def build_toy(seed=0, **model_kw):
    docs, index, tokens, entity_ids = unambiguous_corpus()
    words = helpers.word_store(tokens, seed=11)
    ents = helpers.entity_store(entity_ids, seed=12)
    model = helpers.build_model(words, ents, corpus_tokens=tokens, seed=seed, **model_kw)
    return docs, index, model


class TestTrain:
    def corpus_loss(self, docs, index, model, cfg):
        total = 0.0
        for doc in docs:
            spans = training.spans_for_regime(doc, index, cfg)
            total += training.document_loss(doc, spans, doc.gold, model, cfg,
                                            mode="eval").loss.item()
        return total

    def test_overfit_smoke(self):
        docs, index, model = build_toy(seed=1)
        cfg = training.TrainConfig(seed=1, eval_every=1000, max_steps=200)
        before = self.corpus_loss(docs, index, model, cfg)
        training.train(docs, docs, model, index, cfg)
        after = self.corpus_loss(docs, index, model, cfg)
        assert after < 0.1 * before

        # zero document loss means gold pairs score >= gamma and every other
        # candidate scores <= 0
        separated = 0
        for doc in docs:
            spans = training.spans_for_regime(doc, index, cfg)
            result = training.document_loss(doc, spans, doc.gold, model, cfg, mode="eval")
            if result.loss.item() != 0.0:
                continue
            separated += 1
            gold = set(doc.gold)
            for p in model.score_pairs(doc, spans):
                if (p.span.start, p.span.end, p.entity_id) in gold:
                    assert p.psi >= cfg.gamma - 1e-6
                else:
                    assert p.psi <= 1e-6
        assert separated > 0

    def test_patience_one_stops_after_first_flat_eval(self):
        docs, index, model = build_toy(seed=2)
        # single-candidate corpus scores a perfect F1 immediately, so the
        # second evaluation cannot improve and must stop the run
        cfg = training.TrainConfig(seed=2, eval_every=5, patience=1)
        result = training.train(docs, docs, model, index, cfg)
        assert len(result.history) == 2
        assert result.steps == 10
        assert result.history[0]["dev_macro_f1"] == pytest.approx(1.0)

    def test_deterministic_trajectories(self):
        states = []
        for _ in range(2):
            docs, index, model = build_toy(seed=5)
            cfg = training.TrainConfig(seed=5, eval_every=40, max_steps=100)
            training.train(docs, docs, model, index, cfg)
            states.append(model.params.state_dict())
        for name in states[0]:
            assert np.array_equal(states[0][name], states[1][name]), name

    def test_frozen_entities_never_change(self):
        docs, index, model = build_toy(seed=6)
        snapshot = model.entities.matrix.copy()
        cfg = training.TrainConfig(seed=6, eval_every=50, max_steps=60)
        training.train(docs, docs, model, index, cfg)
        assert model.entities.matrix.tobytes() == snapshot.tobytes()
        assert "entities" not in model.params

    def test_unfrozen_entities_receive_gradients(self):
        docs, index, model = build_toy(seed=7)
        model.entities.frozen = False
        # rebuild with the flag set so the rows register as parameters
        words, ents = model.words, model.entities
        model = helpers.build_model(words, ents, corpus_tokens=list(words.vocab), seed=7)
        assert "entities" in model.params
        before = model.params["entities"].data.copy()
        cfg = training.TrainConfig(seed=7, eval_every=50, max_steps=30)
        training.train(docs, docs, model, index, cfg)
        assert not np.array_equal(before, model.params["entities"].data)

    def test_non_finite_loss_names_document(self):
        docs, index, model = build_toy(seed=8)
        model.params["psi.w"].data = np.asarray([np.finfo(np.float32).max] * 2,
                                                dtype=np.float32)
        model.params["psi.b"].data = np.asarray(np.finfo(np.float32).max, dtype=np.float32)
        cfg = training.TrainConfig(seed=8, eval_every=1000, max_steps=10)
        with pytest.raises(FloatingPointError, match="doc"):
            training.train(docs, docs, model, index, cfg)

    def test_gold_spans_regime_trains(self):
        docs, index, model = build_toy(seed=9)
        cfg = training.TrainConfig(seed=9, regime="gold_spans", eval_every=20,
                                   max_steps=40)
        result = training.train(docs, docs, model, index, cfg)
        assert result.best_macro_f1 >= 0.0
        assert result.delta == float("-inf")

    @pytest.mark.parametrize("regime", ["all_spans", "gold_spans"])
    def test_spans_found_once_per_document_per_run(self, monkeypatch, regime):
        # three dev evaluations reuse the dev spans found at the start
        docs, index, model = build_toy(seed=13)
        found = []
        spans_for_regime = training.spans_for_regime

        def counting(doc, index, cfg):
            found.append(doc.doc_id)
            return spans_for_regime(doc, index, cfg)

        monkeypatch.setattr(training, "spans_for_regime", counting)
        cfg = training.TrainConfig(seed=13, regime=regime, eval_every=2, max_steps=6)
        result = training.train(docs[:8], docs[8:12], model, index, cfg)
        assert len(result.history) == 3
        assert sorted(found) == sorted(doc.doc_id for doc in docs[:12])

    def test_steps_and_evaluations_leave_the_collector_as_found(self, monkeypatch):
        # the CLI pauses the collector per command; the library leaves it be
        docs, index, model = build_toy(seed=11, use_global=True, use_attention=True)
        seen = {"backward": [], "score_pairs": []}
        backward, score_pairs = ad.backward, LinkingModel.score_pairs

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                seen[name].append(gc.isenabled())
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(ad, "backward", spy("backward", backward))
        monkeypatch.setattr(LinkingModel, "score_pairs", spy("score_pairs", score_pairs))
        cfg = training.TrainConfig(seed=11, eval_every=4, max_steps=8)
        result = training.train(docs, docs, model, index, cfg)
        assert result.steps == 8
        # two dev evaluations, each scoring every dev document
        assert seen == {"backward": [True] * 8, "score_pairs": [True] * (2 * len(docs))}
        assert gc.isenabled()
        # and a run leaves nothing behind that only the collector could free
        gc.disable()
        try:
            gc.collect()
            training.train(docs, docs, model, index, cfg)
            assert not gc.isenabled()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_corpus_pass_leaves_nothing_for_the_collector(self):
        # one score -> sweep -> decode pass, as annotate and select-threshold run it
        docs, index, model = build_toy(seed=12, use_global=True, use_attention=True)
        spans = [training.el_spans(doc, index, True) for doc in docs]
        gold = {doc.doc_id: list(doc.gold) for doc in docs}
        gc.disable()
        try:
            gc.collect()
            pairs = inference.score_corpus(model, docs, spans)
            delta = inference.select_threshold(pairs, gold)
            assert inference.greedy_decode(pairs, delta)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_global_training_runs(self):
        docs, index, model = build_toy(seed=10, use_global=True)
        cfg = training.TrainConfig(seed=10, eval_every=30, max_steps=30)
        result = training.train(docs, docs, model, index, cfg)
        assert result.steps == 30


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a.w": rng.standard_normal((3, 4)).astype(np.float32),
            "b": rng.standard_normal(7).astype(np.float32),
            "scalar": np.asarray(2.5, dtype=np.float32),
        }
        path = str(tmp_path / "model.ckpt")
        training.save_checkpoint(tensors, path)
        loaded = training.load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for k in tensors:
            assert np.array_equal(loaded[k], tensors[k])

    def test_crc_detects_corruption(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        training.save_checkpoint({"w": np.ones(4, dtype=np.float32)}, path)
        blob = bytearray(open(path, "rb").read())
        blob[-7] ^= 0xFF  # flip a payload byte
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ValueError, match="CRC"):
            training.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"XXXX")
        with pytest.raises(ValueError, match="magic"):
            training.load_checkpoint(str(p))

    def test_model_state_round_trip(self, tmp_path):
        _, _, model = build_toy(seed=11)
        state = model.state_arrays()
        state["meta.delta"] = np.asarray(0.125, dtype=np.float32)
        path = str(tmp_path / "m.ckpt")
        training.save_checkpoint(state, path)
        loaded = training.load_checkpoint(path)
        _, _, fresh = build_toy(seed=12)
        fresh.load_state_arrays(loaded)
        for name, t in model.params.items():
            assert np.array_equal(t.data, fresh.params[name].data)
        assert float(loaded["meta.delta"]) == 0.125


class TestConfigValidation:
    def test_bad_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            training.TrainConfig(gamma=0.0)

    def test_bad_patience(self):
        with pytest.raises(ValueError, match="patience"):
            training.TrainConfig(patience=0)

    def test_bad_regime(self):
        with pytest.raises(ValueError, match="regime"):
            training.TrainConfig(regime="sometimes")
