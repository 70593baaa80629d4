"""Guards on the shape of the hot paths: they fail if a per-span loop comes
back into the attention ranking, a scatter loop (`np.add.at`) into the
training step's gradient gathers, a whole-document rematch per threshold
into the threshold sweep, a `bilstm` call per word length into the
encoder, or a collector pause into the library's training and corpus
paths."""

import gc
import sys

import numpy as np
import pytest

import helpers
from e2el import autodiff as ad
from e2el import candidates, encoder, inference, scoring, training
from e2el.candidates import CandidateEntry, MentionSpan
from e2el.corpus import Document
from e2el.embeddings import CharTable
from e2el.encoder import EncodedDocument
from e2el.scoring import ScoredPair


def long_document(n_parts):
    """The first `n_parts` documents of `helpers.overfit_corpus` as one
    document, with the index, word tokens and entity ids of the corpus."""
    docs, table, tokens, entity_ids = helpers.overfit_corpus()
    words, gold = [], []
    for doc in docs[:n_parts]:
        gold += [(s + len(words), e + len(words), ent) for s, e, ent in doc.gold]
        words += doc.tokens
    return Document("long", words, gold), helpers.alias_index(table), tokens, entity_ids


def test_attention_makes_one_einsum_per_call(monkeypatch):
    einsum = np.einsum
    calls = []

    def counting(*args, **kwargs):
        calls.append(sys._getframe(1).f_globals.get("__name__"))
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    rng = np.random.default_rng(3)
    x = ad.parameter(rng.standard_normal((120, 6)))
    enc = EncodedDocument(doc_id="d", v=x, x=x)
    params = scoring.ScorerParams(psi_w=ad.parameter(np.ones(3)), psi_b=ad.parameter(0.0),
                                  att_a=ad.parameter(np.ones(6)), att_b=ad.parameter(np.ones(6)))
    for n_spans in (1, 5, 40):
        spans = [MentionSpan("d", 3 * k, 3 * k + k % 2, "s",
                             [CandidateEntry(f"E{j}", 0.5) for j in range(4)])
                 for k in range(n_spans)]
        y = ad.parameter(rng.standard_normal((4 * n_spans, 6)))
        calls.clear()
        scoring.long_range_feature(spans, enc, y, window=30, keep=5, params=params)
        assert calls.count("e2el.scoring") == 1, n_spans


class _AddSpy:
    """`np.add` with its `at` method counted."""

    def __init__(self, add):
        self._add = add
        self.at_calls = 0

    def __call__(self, *args, **kwargs):
        return self._add(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._add, name)

    def at(self, *args, **kwargs):
        self.at_calls += 1
        return self._add.at(*args, **kwargs)


def test_training_step_never_scatters_with_add_at(monkeypatch):
    doc, index, tokens, entity_ids = long_document(10)
    words = helpers.word_store(tokens, seed=5)
    ents = helpers.entity_store(entity_ids, seed=6)
    model = helpers.build_model(words, ents, corpus_tokens=tokens, seed=7,
                                use_attention=True, use_global=True, attention_window=12,
                                attention_keep=3)
    cfg = training.TrainConfig(seed=7)
    spans = training.spans_for_regime(doc, index, cfg)
    assert len(spans) >= 20
    spy = _AddSpy(np.add)
    monkeypatch.setattr(np, "add", spy)
    before = model.params.state_dict()
    loss = training._train_step(doc, spans, model, ad.AdamState(), cfg,
                                ad.rng_stream(7, "dropout"))
    assert loss > 0
    assert any(not np.array_equal(before[k], t.data) for k, t in model.params.items())
    assert spy.at_calls == 0


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_threshold_sweep_matches_each_annotation_a_bounded_number_of_times(monkeypatch,
                                                                           mode):
    # one document of 400 spans of 1-2 tokens, three candidates each; about
    # half the kept annotations have a weak-matching gold
    rng = np.random.default_rng(17)
    pairs, gold = [], []
    for k, start in enumerate(sorted(rng.choice(1000, size=400, replace=False))):
        span = MentionSpan("d", int(start), int(start) + int(rng.integers(0, 2)), "s",
                           [CandidateEntry(f"E{k}.{j}", 0.5) for j in range(3)])
        pairs += [ScoredPair(span=span, entity_id=c.entity_id, prior=c.prior,
                             psi=float(rng.normal())) for c in span.candidates]
        if rng.random() < 0.5:
            gold.append((span.start, span.end, f"E{k}.{int(rng.integers(0, 3))}"))
    kept = len(inference.greedy_decode(pairs, float("-inf")))
    assert kept > 300
    matched = []

    def spy(preds, golds, mode, _fn=inference._match_doc):
        matched.append(len(preds))
        return _fn(preds, golds, mode)

    monkeypatch.setattr(inference, "_match_doc", spy)
    inference.select_threshold(pairs, {"d": gold}, mode=mode)
    if mode == "strong":
        assert matched == [kept]  # `evaluate`'s one call for the document
    else:
        assert sum(matched) <= 2 * kept


def test_encoding_makes_one_char_and_one_context_bilstm_call(monkeypatch):
    calls = []

    def counting(*args, _fn=ad.bilstm, **kwargs):
        calls.append(args[0].shape)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(ad, "bilstm", counting)
    rng = np.random.default_rng(4)
    dims = helpers.toy_dims()
    tokens = ["a", "to", "the", "over", "alpha", "lambda", "epsilon"]
    words = helpers.word_store(tokens, seed=4)
    chars = CharTable.build(tokens, dims.char_dim, rng)
    params = encoder.init_encoder_params(dims, rng)
    for n_words in (1, 3, 7):  # 2, 4 and 7 distinct word lengths, with "unseen"
        doc = Document("d", tokens[:n_words] * 3 + ["unseen"])
        calls.clear()
        encoder.encode_document(doc, words, chars, params, dims)
        assert len(calls) == 2, n_words
        assert calls[1] == (len(doc.tokens), dims.v_dim)  # the context bi-LSTM


def test_library_corpus_paths_never_pause_the_collector(monkeypatch, tmp_path):
    # the CLI pauses the collector per command; the library makes no pause of
    # its own, but for the index decode
    disabled = []

    def counting(_fn=gc.disable):
        disabled.append(1)
        _fn()

    monkeypatch.setattr(gc, "disable", counting)
    doc, index, tokens, entity_ids = long_document(4)
    model = helpers.build_model(helpers.word_store(tokens, seed=5),
                                helpers.entity_store(entity_ids, seed=6),
                                corpus_tokens=tokens, seed=7, use_attention=True,
                                use_global=True, attention_window=12, attention_keep=3)
    docs = [doc, Document("other", doc.tokens[:40])]
    cfg = training.TrainConfig(seed=7, eval_every=2, max_steps=3)
    assert training.train(docs, docs, model, index, cfg).steps == 3
    for regime in ("all_spans", "gold_spans"):
        spans = [training.spans_for_regime(d, index, training.TrainConfig(regime=regime))
                 for d in docs]
        pairs = inference.score_corpus(model, docs, spans)
        assert inference.decode_ed(model, docs, spans)
        inference.select_threshold(pairs, {d.doc_id: list(d.gold) for d in docs})
    assert disabled == []
    candidates.save_index(index, str(tmp_path / "index.bin"))
    candidates.load_index(str(tmp_path / "index.bin"))
    assert disabled == [1]  # the spy sees a pause
