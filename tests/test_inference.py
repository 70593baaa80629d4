import contextlib
import gc
import json

import numpy as np
import pytest

import helpers
from e2el import inference
from e2el.candidates import CandidateEntry, MentionSpan
from e2el.corpus import Document
from e2el.scoring import ScoredPair


def pair(doc_id, start, end, entity, score, prior=1.0):
    span = MentionSpan(doc_id=doc_id, start=start, end=end, surface="s",
                       candidates=[CandidateEntry(entity, prior)])
    return ScoredPair(span=span, entity_id=entity, prior=prior, psi=score)


class TestGreedyDecode:
    def test_overlap_resolution(self):
        pairs = [pair("d", 0, 1, "E1", 0.9), pair("d", 1, 2, "E2", 0.8),
                 pair("d", 3, 3, "E3", 0.5)]
        out = inference.greedy_decode(pairs, 0.0)
        assert [(a.start, a.end) for a in out] == [(0, 1), (3, 3)]

    def test_all_below_threshold(self):
        pairs = [pair("d", 0, 0, "E1", 0.1), pair("d", 1, 1, "E2", -0.4)]
        assert inference.greedy_decode(pairs, 0.5) == []

    def test_threshold_is_strict(self):
        pairs = [pair("d", 0, 0, "E1", 0.5)]
        assert inference.greedy_decode(pairs, 0.5) == []
        assert len(inference.greedy_decode(pairs, 0.4999)) == 1

    def test_best_candidate_tie_breaking(self):
        span = MentionSpan(doc_id="d", start=0, end=0, surface="s",
                           candidates=[CandidateEntry("B", 0.6), CandidateEntry("A", 0.3),
                                       CandidateEntry("C", 0.6)])
        pairs = [ScoredPair(span=span, entity_id=e, prior=p, psi=0.7)
                 for e, p in (("B", 0.6), ("A", 0.3), ("C", 0.6))]
        out = inference.greedy_decode(pairs, 0.0)
        # equal scores: higher prior first, then lexicographic entity id
        assert out[0].entity_id == "B"

    def test_best_per_span_ties(self):
        span = MentionSpan(doc_id="d", start=0, end=0, surface="s", candidates=[])
        scored = [ScoredPair(span=span, entity_id=e, prior=p, psi=score)
                  for e, p, score in (("C", 0.5, 0.7), ("B", 0.5, 0.7), ("A", 0.2, 0.7),
                                      ("D", 0.9, 0.1), ("B", 0.5, 0.7))]
        # equal score: the higher prior wins, then the smaller id, then the first
        assert inference.best_per_span(scored)[0] is scored[1]
        other = MentionSpan(doc_id="d", start=1, end=2, surface="s", candidates=[])
        scored += [ScoredPair(span=other, entity_id=e, prior=p, psi=0.3)
                   for e, p in (("X", 0.4), ("Y", 0.6), ("Z", 0.6))]
        assert inference.best_per_span(scored) == [scored[1], scored[6]]

    def test_best_per_span_matches_min_oracle(self):
        # tied and NaN scores and priors, pairs of one span interleaved with
        # others', and distinct span objects with one (doc, start, end)
        rng = np.random.default_rng(11)
        for _ in range(300):
            spans = [MentionSpan(doc_id=f"d{int(rng.integers(0, 2))}",
                                 start=int(start), end=int(start) + int(rng.integers(0, 2)),
                                 surface="s", candidates=[])
                     for start in rng.integers(0, 4, size=int(rng.integers(1, 6)))]
            scored = [ScoredPair(span=spans[int(rng.integers(0, len(spans)))],
                                 entity_id=f"E{int(rng.integers(0, 3))}",
                                 prior=float(rng.choice([0.5, 1.0, float("nan")])),
                                 psi=float(rng.choice([0.25, 0.5, -0.5, float("nan"),
                                                       float("-inf"), float("inf")])))
                      for _ in range(int(rng.integers(1, 16)))]
            got = inference.best_per_span(scored)
            want = helpers.reference_best_per_span(scored)
            assert [id(p) for p in got] == [id(p) for p in want]

    def test_matches_reference_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            pairs = []
            for i in range(n):
                start = int(rng.integers(0, 10))
                end = start + int(rng.integers(0, 3))
                score = round(float(rng.normal()), 3)
                pairs.append(pair("d", start, end, f"E{i}", score))
            delta = round(float(rng.normal(scale=0.5)), 3)
            got = inference.greedy_decode(pairs, delta)

            # reference simulation of the sweep
            best = {}
            for p in pairs:
                key = (p.span.start, p.span.end)
                cur = best.get(key)
                if cur is None or (p.score, p.prior, -ord(p.entity_id[1])) > \
                        (cur.score, cur.prior, -ord(cur.entity_id[1])):
                    best[key] = p
            order = sorted([p for p in best.values() if p.score > delta],
                           key=lambda p: (-p.score, p.span.start,
                                          p.span.end - p.span.start, p.entity_id))
            chosen, used = [], set()
            for p in order:
                toks = set(range(p.span.start, p.span.end + 1))
                if not toks & used:
                    used |= toks
                    chosen.append(p)
            expect = sorted((p.span.start, p.span.end, p.entity_id) for p in chosen)
            assert [(a.start, a.end, a.entity_id) for a in got] == expect

    def test_matches_set_based_oracle_across_documents(self):
        # tied scores across documents, -inf scores, overlapping spans
        rng = np.random.default_rng(12)
        compared = 0
        while compared < 300:
            pairs, _ = random_dev_set(rng)
            for delta in (float("-inf"), -0.5, 0.0, 0.25):
                assert (inference.greedy_decode(pairs, delta)
                        == helpers.reference_greedy_decode(pairs, delta))
            compared += bool(pairs)

    def test_output_never_overlaps_and_monotone_in_delta(self):
        rng = np.random.default_rng(1)
        pairs = [pair("d", int(rng.integers(0, 12)), 0, f"E{i}",
                      round(float(rng.normal()), 2)) for i in range(20)]
        for p in pairs:
            p.span.end = p.span.start + int(rng.integers(0, 3))
        counts = []
        for delta in np.linspace(-2, 2, 9):
            out = inference.greedy_decode(pairs, float(delta))
            used = set()
            for a in out:
                toks = set(range(a.start, a.end + 1))
                assert not toks & used
                used |= toks
                assert a.score > delta
            counts.append(len(out))
        assert counts == sorted(counts, reverse=True)


class TestSelectThreshold:
    def test_separable_case(self):
        gold = {"d": [(0, 0, "G1"), (2, 2, "G2")]}
        pairs = [pair("d", 0, 0, "G1", 0.9), pair("d", 2, 2, "G2", 0.8),
                 pair("d", 4, 4, "BAD", -0.5)]
        delta = inference.select_threshold(pairs, gold)
        assert -0.5 <= delta < 0.8
        report = inference.evaluate(inference.greedy_decode(pairs, delta), gold)
        assert report.micro_f1 == 1.0

    def test_single_gold_pair(self):
        gold = {"d": [(0, 0, "G")]}
        pairs = [pair("d", 0, 0, "G", 0.4)]
        delta = inference.select_threshold(pairs, gold)
        assert delta <= 0.4
        assert inference.evaluate(inference.greedy_decode(pairs, delta), gold).micro_f1 == 1.0

    def test_ties_prefer_larger_delta(self):
        # emitting the second span never helps, so the larger delta wins
        gold = {"d": [(0, 0, "G")]}
        pairs = [pair("d", 0, 0, "G", 0.9), pair("d", 2, 2, "G", 0.1)]
        delta = inference.select_threshold(pairs, gold)
        assert delta == pytest.approx(0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            inference.select_threshold([], {"d": []})

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_matches_brute_force(self, mode):
        rng = np.random.default_rng(5 if mode == "strong" else 6)
        compared = 0
        while compared < 1000:
            pairs, gold = random_dev_set(rng)
            if pairs:
                delta = inference.select_threshold(pairs, gold, mode=mode)
                assert delta == helpers.brute_select_threshold(pairs, gold, mode=mode)
                assert delta == helpers.reference_select_threshold(pairs, gold, mode=mode)
                compared += 1

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_matches_document_rematch_on_long_documents(self, mode):
        rng = np.random.default_rng(7 if mode == "strong" else 8)
        for _ in range(150):
            pairs, gold = long_dev_set(rng)
            assert (inference.select_threshold(pairs, gold, mode=mode)
                    == helpers.reference_select_threshold(pairs, gold, mode=mode))

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_matches_document_rematch_on_shared_entity_documents(self, mode):
        # 400 spans whose candidates all come from the same 3 entities: long
        # displacement chains under weak matching
        for seed in [17] + list(range(100, 120)):
            pairs, gold = helpers.shared_entity_document(seed=seed)
            assert (inference.select_threshold(pairs, gold, mode=mode)
                    == helpers.reference_select_threshold(pairs, gold, mode=mode)), seed

    def test_weak_displacement_chain(self):
        # sweep order A, B, C; document order C, B, A. C takes g1 from B, B
        # takes g2 from A, and A moves on to g3: TP 2 -> 3
        pairs = [pair("d", 6, 7, "E", 0.9), pair("d", 3, 4, "E", 0.8),
                 pair("d", 0, 1, "E", 0.7)]
        kept = inference.greedy_decode(pairs, 0.5)[::-1]
        golds = [(1, 3, "E"), (4, 6, "E"), (7, 9, "E")]
        # with g3 gone, A has nowhere to go: TP stays 2
        for gold, gains in (({"d": golds}, [1, 1, 1]), ({"d": golds[:2]}, [1, 1, 0])):
            assert inference._tp_gains(kept, gold, "weak") == gains
            assert (inference.select_threshold(pairs, gold, mode="weak")
                    == helpers.brute_select_threshold(pairs, gold, mode="weak"))
        # every gold overlaps every annotation, and the sweep meets them in
        # reverse document order: each newcomer displaces along the whole chain
        pairs = [pair("d", 2 * k, 2 * k, "E", float(k)) for k in range(30)]
        kept = sorted(inference.greedy_decode(pairs, float("-inf")), key=lambda a: -a.score)
        for n_gold in (10, 30, 40):
            gold = {"d": [(0, 60 + j, "E") for j in range(n_gold)]}
            assert inference._tp_gains(kept, gold, "weak") == [k < n_gold for k in range(30)]
            assert (inference.select_threshold(pairs, gold, mode="weak")
                    == helpers.reference_select_threshold(pairs, gold, mode="weak"))

    def test_weak_newcomer_takes_a_held_gold(self):
        # A (3-4) is added first and holds the gold (2-4); B (0-2) comes later
        # in the sweep but first in document order and takes that gold
        pairs = [pair("d", 3, 4, "E", 0.9), pair("d", 0, 2, "E", 0.5)]
        alone = {"d": [(2, 4, "E")]}  # A is left with nothing: TP stays 1
        moved = {"d": [(2, 4, "E"), (4, 6, "E")]}  # A moves on to (4-6): TP 1 -> 2
        for gold, want in ((alone, 0.5), (moved, float("-inf"))):
            assert inference.select_threshold(pairs, gold, mode="weak") == want
            assert helpers.reference_select_threshold(pairs, gold, mode="weak") == want
            assert helpers.brute_select_threshold(pairs, gold, mode="weak") == want

    def test_decodes_and_evaluates_once(self, monkeypatch):
        pairs = [pair(doc, i, i + 1, "G", 0.1 * i) for doc in ("a", "b") for i in range(4)]
        gold = {"a": [(0, 1, "G"), (2, 3, "G")], "b": [(1, 2, "G")]}
        calls = {"greedy_decode": 0, "evaluate": 0}
        for name in calls:
            def counted(*args, _fn=getattr(inference, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(inference, name, counted)
        inference.select_threshold(pairs, gold, mode="weak")
        assert calls == {"greedy_decode": 1, "evaluate": 1}

    def test_best_per_span_sees_each_pair_once(self, monkeypatch):
        # the -inf decode runs over the best pairs again: one pass per span
        pairs = [pair(doc, i, i + 1, e, 0.1 * i + 0.01 * k)
                 for doc in ("a", "b") for i in range(4) for k, e in enumerate("GHK")]
        gold = {"a": [(0, 1, "G"), (2, 3, "H")], "b": [(1, 2, "K")]}
        seen = []

        def counted(ps, _fn=inference.best_per_span):
            seen.append(len(ps))
            return _fn(ps)

        monkeypatch.setattr(inference, "best_per_span", counted)
        inference.select_threshold(pairs, gold, mode="weak")
        assert sum(seen) <= len(pairs) + 8

    def test_unknown_document_and_mode_rejected(self):
        pairs = [pair("d", 0, 0, "G", 0.5), pair("zz", 1, 1, "G", 0.2)]
        for fn in (inference.select_threshold, helpers.brute_select_threshold):
            with pytest.raises(ValueError, match="unknown document 'zz'"):
                fn(pairs, {"d": [(0, 0, "G")]})
            with pytest.raises(ValueError, match="unknown matching mode"):
                fn(pairs[:1], {"d": [(0, 0, "G")]}, mode="loose")

    def test_nan_score_rejected(self):
        pairs = [pair("d", 0, 0, "G", 0.5), pair("d", 2, 3, "H", float("nan"))]
        with pytest.raises(ValueError, match="document 'd': span 2-3 scores NaN "
                                             "for entity 'H'"):
            inference.select_threshold(pairs, {"d": [(0, 0, "G")]})

    def test_matches_grid_scan(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(2, 12))
            pairs = []
            gold = {"d": []}
            for i in range(n):
                start = int(rng.integers(0, 14))
                entity = f"E{int(rng.integers(0, 4))}"
                score = round(float(rng.integers(-100, 100)) / 100.0, 2)
                pairs.append(pair("d", start, start, entity, score))
                if rng.random() < 0.5:
                    gold["d"].append((start, start, entity))
            gold["d"] = list(dict.fromkeys(gold["d"]))
            delta = inference.select_threshold(pairs, gold)
            ours = inference.evaluate(inference.greedy_decode(pairs, delta), gold).micro_f1
            best = -1.0
            for g in np.arange(-1.1, 1.1, 0.001):
                f1 = inference.evaluate(inference.greedy_decode(pairs, float(g)), gold).micro_f1
                best = max(best, f1)
            assert ours == pytest.approx(best, abs=1e-9)


def random_dev_set(rng):
    """1-4 documents of overlapping 1-3 token spans with 1-3 candidates
    each, scores and priors drawn from small sets (ties) with some -inf,
    and gold that may repeat an entry; a document may have gold and no
    pairs, or pairs and no gold."""
    pairs, gold = [], {}
    for d in range(int(rng.integers(1, 5))):
        doc_id = f"d{d}"
        kind = int(rng.integers(0, 4))  # 0: gold only, 1: pairs only, else both
        spans = [] if kind == 0 else sorted({
            (start, start + int(rng.integers(0, 3)))
            for start in rng.integers(0, 10, size=int(rng.integers(1, 8)))})
        for start, end in spans:
            ids = [f"E{int(j)}" for j in rng.choice(5, size=int(rng.integers(1, 4)),
                                                     replace=False)]
            span = MentionSpan(doc_id=doc_id, start=int(start), end=int(end), surface="s",
                               candidates=[CandidateEntry(e, float(rng.choice([0.2, 0.5, 1.0])))
                                           for e in ids])
            for c in span.candidates:
                score = (float("-inf") if rng.random() < 0.1
                         else float(rng.integers(-4, 5)) / 4.0)
                pairs.append(ScoredPair(span=span, entity_id=c.entity_id, prior=c.prior,
                                        psi=score))
        gold[doc_id] = []
        if kind != 1:
            for _ in range(int(rng.integers(1, 5))):
                if spans and rng.random() < 0.7:
                    start, end = spans[int(rng.integers(0, len(spans)))]
                else:
                    start = int(rng.integers(0, 10))
                    end = start + int(rng.integers(0, 3))
                gold[doc_id].append((int(start), int(end), f"E{int(rng.integers(0, 5))}"))
            if rng.random() < 0.3:
                gold[doc_id].append(gold[doc_id][0])
    return pairs, gold


def long_dev_set(rng):
    """1-3 documents of 20-60 overlapping 1-3 token spans whose candidates
    come from 2-3 entities per document, so that weak matches of one entity
    overlap often; gold may repeat an entry, and one more document has gold
    but no pairs."""
    pairs, gold = [], {}
    for d in range(int(rng.integers(1, 4))):
        doc_id = f"d{d}"
        entities = [f"E{d}{k}" for k in range(int(rng.integers(2, 4)))]
        spans = sorted({(start, start + int(rng.integers(0, 3)))
                        for start in rng.integers(0, 80, size=int(rng.integers(20, 61)))})
        for start, end in spans:
            ids = list(rng.choice(entities, size=int(rng.integers(1, 3)), replace=False))
            span = MentionSpan(doc_id=doc_id, start=int(start), end=int(end), surface="s",
                               candidates=[CandidateEntry(str(e), 0.5) for e in ids])
            for c in span.candidates:
                pairs.append(ScoredPair(span=span, entity_id=c.entity_id, prior=c.prior,
                                        psi=float(rng.integers(-8, 9)) / 8.0))
        gold[doc_id] = []
        for _ in range(int(rng.integers(5, 25))):
            start, end = spans[int(rng.integers(0, len(spans)))]
            shift = int(rng.integers(-1, 2))
            gs = max(0, int(start) + shift)
            gold[doc_id].append((gs, max(gs, int(end) + shift), str(rng.choice(entities))))
        gold[doc_id] += gold[doc_id][:int(rng.integers(0, 3))]
    gold["no-pairs"] = [(0, 1, "E00"), (4, 4, "E01")]
    return pairs, gold


@contextlib.contextmanager
def collector(enabled):
    """The cyclic collector on or off for the block, then as it was."""
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was_enabled else gc.disable()


class FakeModel:
    """score_pairs stub: psi comes from a fixed (entity -> score) table. It
    records each call's document and whether the collector was on, and
    raises on document `fail_on`."""

    def __init__(self, table, fail_on=None):
        self.table = table
        self.fail_on = fail_on
        self.calls = []

    def score_pairs(self, doc, spans):
        self.calls.append((doc.doc_id, gc.isenabled()))
        if doc.doc_id == self.fail_on:
            raise RuntimeError(f"scoring {doc.doc_id} failed")
        out = []
        for s in spans:
            for c in s.candidates:
                out.append(ScoredPair(span=s, entity_id=c.entity_id, prior=c.prior,
                                      psi=self.table[c.entity_id]))
        return out


def ed_span(start, end, cands, doc_id="d"):
    return MentionSpan(doc_id=doc_id, start=start, end=end, surface="s",
                       candidates=[CandidateEntry(e, p) for e, p in cands])


def ed_corpus(rng, n_docs, table):
    """Documents d0, d1, ... with random one-token spans, some without
    candidates; every third document has no scorable span."""
    docs, spans = [], []
    for i in range(n_docs):
        doc_id = f"d{i}"
        docs.append(Document(doc_id, ["t"] * 12))
        doc_spans = []
        for k in range(int(rng.integers(1, 5))):
            ids = [] if i % 3 == 2 or rng.random() < 0.2 else \
                [f"E{int(j)}" for j in rng.choice(len(table), size=3, replace=False)]
            doc_spans.append(ed_span(2 * k, 2 * k, [(e, 0.5) for e in ids], doc_id))
        spans.append(doc_spans)
    return docs, spans


class TestScoreCorpus:
    # the library leaves the collector as found: the CLI pauses it, per command
    def test_pairs_in_corpus_order_with_the_collector_as_found(self):
        table = {f"E{i}": float(i) for i in range(6)}
        docs, spans = ed_corpus(np.random.default_rng(4), 7, table)
        for enabled in (True, False):
            model = FakeModel(table)
            with collector(enabled):
                pairs = inference.score_corpus(model, docs, spans)
                assert gc.isenabled() == enabled
            assert pairs == [p for doc, doc_spans in zip(docs, spans)
                             for p in FakeModel(table).score_pairs(doc, doc_spans)]
            assert model.calls == [(doc.doc_id, enabled) for doc in docs]

    def test_collector_left_as_found_when_scoring_raises(self):
        table = {f"E{i}": float(i) for i in range(6)}
        docs, spans = ed_corpus(np.random.default_rng(4), 4, table)
        model = FakeModel(table, fail_on="d1")
        with pytest.raises(RuntimeError, match="scoring d1 failed"):
            inference.score_corpus(model, docs, spans)
        assert model.calls == [("d0", True), ("d1", True)]
        assert gc.isenabled()

    def test_spans_of_every_document_required(self):
        table = {f"E{i}": 0.0 for i in range(6)}
        docs, spans = ed_corpus(np.random.default_rng(4), 3, table)
        with pytest.raises(ValueError):
            inference.score_corpus(FakeModel(table), docs, spans[:2])
        assert gc.isenabled()


class TestDecodeEd:
    DOC = Document("d", ["t"] * 12)

    def test_argmax_candidate(self):
        model = FakeModel({"E1": 0.2, "E2": 0.7})
        spans = [ed_span(0, 0, [("E1", 0.9), ("E2", 0.1)])]
        out = inference.decode_ed(model, [self.DOC], [spans])
        assert [a.entity_id for a in out] == ["E2"]

    def test_single_candidate(self):
        model = FakeModel({"E1": -5.0})
        out = inference.decode_ed(model, [self.DOC], [[ed_span(0, 0, [("E1", 1.0)])]])
        # threshold plays no role in ED
        assert [a.entity_id for a in out] == ["E1"]

    def test_empty_candidates_emitted_unlinked(self):
        model = FakeModel({})
        out = inference.decode_ed(model, [self.DOC], [[ed_span(1, 2, [])]])
        assert len(out) == 1 and out[0].entity_id is None
        assert model.calls == []  # a document with no scorable span is not scored

    def test_matches_exhaustive_max(self):
        rng = np.random.default_rng(3)
        table = {f"E{i}": float(rng.normal()) for i in range(12)}
        model = FakeModel(table)
        spans = []
        for i in range(5):
            ids = [f"E{int(j)}" for j in rng.choice(12, size=3, replace=False)]
            spans.append(ed_span(2 * i, 2 * i, [(e, 0.5) for e in ids]))
        out = inference.decode_ed(model, [self.DOC], [spans])
        for a, s in zip(out, spans):
            assert a.entity_id == max((c.entity_id for c in s.candidates),
                                      key=lambda e: table[e])

    def test_corpus_equals_each_document_alone(self):
        rng = np.random.default_rng(5)
        table = {f"E{i}": float(rng.normal()) for i in range(8)}
        docs, spans = ed_corpus(rng, 9, table)
        model = FakeModel(table)
        out = inference.decode_ed(model, docs, spans)
        assert out == [a for doc, doc_spans in zip(docs, spans)
                       for a in inference.decode_ed(FakeModel(table), [doc], [doc_spans])]
        assert any(a.entity_id is None for a in out)
        scorable = [doc.doc_id for doc, doc_spans in zip(docs, spans)
                    if any(s.candidates for s in doc_spans)]
        assert model.calls == [(doc_id, True) for doc_id in scorable] != []  # collector as found
        assert len(scorable) < len(docs)


class TestEvaluate:
    def test_strong_vs_weak_definitions(self):
        gold = {"d": [(0, 1, "e1")]}
        pred = [inference.Annotation("d", 1, 1, "e1", 0.5)]
        strong = inference.evaluate(pred, gold, mode="strong")
        weak = inference.evaluate(pred, gold, mode="weak")
        assert strong.micro_f1 == 0.0
        assert weak.micro_f1 == 1.0

    def test_perfect_predictions(self):
        gold = {"a": [(0, 0, "e1"), (2, 3, "e2")], "b": [(1, 1, "e3")]}
        pred = [inference.Annotation(d, s, e, ent, 1.0)
                for d, spans in gold.items() for s, e, ent in spans]
        for mode in ("strong", "weak"):
            rep = inference.evaluate(pred, gold, mode=mode)
            assert rep.micro_f1 == rep.macro_f1 == 1.0

    def test_hand_built_micro_macro(self):
        # doc1: P=1, R=0.5; doc2: P=R=1
        gold = {"doc1": [(0, 0, "e1"), (2, 2, "e2")], "doc2": [(0, 0, "e3")]}
        pred = [inference.Annotation("doc1", 0, 0, "e1", 1.0),
                inference.Annotation("doc2", 0, 0, "e3", 1.0)]
        rep = inference.evaluate(pred, gold, mode="strong")
        assert rep.per_doc["doc1"] == (1, 0, 1)
        assert rep.per_doc["doc2"] == (1, 0, 0)
        assert rep.micro_precision == pytest.approx(1.0)
        assert rep.micro_recall == pytest.approx(2 / 3)
        assert rep.micro_f1 == pytest.approx(0.8)
        assert rep.macro_precision == pytest.approx(1.0)
        assert rep.macro_recall == pytest.approx(0.75)
        f1_doc1 = 2 * 1.0 * 0.5 / 1.5
        assert rep.macro_f1 == pytest.approx((f1_doc1 + 1.0) / 2)

    def test_empty_doc_scores_one(self):
        gold = {"d": [], "e": [(0, 0, "x")]}
        rep = inference.evaluate([], gold, mode="strong")
        assert rep.per_doc["d"] == (0, 0, 0)
        assert rep.macro_f1 == pytest.approx(0.5)  # 1.0 for d, 0.0 for e

    def test_duplicate_predictions_rejected(self):
        gold = {"d": [(0, 0, "e")]}
        pred = [inference.Annotation("d", 0, 0, "e", 1.0),
                inference.Annotation("d", 0, 0, "e", 0.9)]
        with pytest.raises(ValueError, match="duplicate"):
            inference.evaluate(pred, gold)

    def test_unknown_document_rejected(self):
        with pytest.raises(ValueError, match="unknown document"):
            inference.evaluate([inference.Annotation("zz", 0, 0, "e", 1.0)], {"d": []})

    def test_weak_gold_consumed_once(self):
        gold = {"d": [(0, 3, "e")]}
        pred = [inference.Annotation("d", 0, 1, "e", 1.0),
                inference.Annotation("d", 2, 3, "e", 0.9)]
        rep = inference.evaluate(pred, gold, mode="weak")
        assert rep.per_doc["d"] == (1, 1, 0)

    def test_self_evaluation_is_perfect_and_weak_dominates(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            gold = {}
            pred = []
            for d in range(3):
                doc_id = f"d{d}"
                gold[doc_id] = []
                for i in range(int(rng.integers(0, 5))):
                    start = int(rng.integers(0, 12))
                    end = start + int(rng.integers(0, 2))
                    ent = f"e{int(rng.integers(0, 5))}"
                    if (start, end, ent) in gold[doc_id]:
                        continue
                    gold[doc_id].append((start, end, ent))
                    if rng.random() < 0.7:
                        shift = int(rng.integers(-1, 2))
                        pred.append(inference.Annotation(
                            doc_id, max(0, start + shift), max(0, start + shift) + (end - start),
                            ent if rng.random() < 0.8 else "other", 1.0))
            dedup = {}
            for a in pred:
                dedup[(a.doc_id, a.start, a.end, a.entity_id)] = a
            pred = list(dedup.values())
            strong = inference.evaluate(pred, gold, mode="strong")
            weak = inference.evaluate(pred, gold, mode="weak")
            assert weak.micro_f1 >= strong.micro_f1 - 1e-12
            assert weak.macro_f1 >= strong.macro_f1 - 1e-12
            gold_as_pred = [inference.Annotation(d, s, e, ent, 1.0)
                            for d, spans in gold.items() for s, e, ent in spans]
            assert inference.evaluate(gold_as_pred, gold, mode="strong").micro_f1 == 1.0


def random_match_set(rng):
    """Predictions and gold of one document over few positions and
    entities, with repeated golds, and predictions that repeat, overlap or
    have entity None."""
    def span():
        start = int(rng.integers(0, 8))
        return start, start + int(rng.integers(0, 3))

    entities = ["E0", "E1", "E2"]
    golds = [(*span(), str(rng.choice(entities))) for _ in range(int(rng.integers(0, 8)))]
    golds += [golds[int(j)] for j in rng.integers(0, len(golds), size=len(golds) // 3)] \
        if golds else []
    preds = []
    for _ in range(int(rng.integers(0, 8))):
        if golds and rng.random() < 0.4:
            start, end, ent = golds[int(rng.integers(0, len(golds)))]
        else:
            (start, end), ent = span(), str(rng.choice(entities))
        preds.append(inference.Annotation("d", start, end,
                                          None if rng.random() < 0.15 else ent, 0.5))
    return preds, golds


class TestMatchDoc:
    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_matches_gold_scan_oracle(self, mode):
        # `_tp_gains` summed per document, over distinct linked predictions
        # of two documents in shuffled order
        rng = np.random.default_rng(21 if mode == "strong" else 22)
        for _ in range(400):
            gold, linked = {}, []
            for doc_id in ("d0", "d1"):
                preds, gold[doc_id] = random_match_set(rng)
                linked += {(a.start, a.end, a.entity_id): inference.Annotation(
                    doc_id, a.start, a.end, a.entity_id, a.score)
                    for a in preds if a.entity_id is not None}.values()
            rng.shuffle(linked)
            gains = inference._tp_gains(linked, gold, mode)
            for doc_id, golds in gold.items():
                preds = [a for a in linked if a.doc_id == doc_id]
                tp = sum(gain for a, gain in zip(linked, gains) if a.doc_id == doc_id)
                assert tp == helpers.reference_match_doc(preds, golds, mode)[0]

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_evaluate_counts_match_gold_scan_oracle(self, mode):
        rng = np.random.default_rng(23 if mode == "strong" else 24)
        for _ in range(300):
            gold, pred = {}, []
            for d in range(int(rng.integers(1, 4))):
                preds, gold[f"d{d}"] = random_match_set(rng)
                pred += list({(a.start, a.end, a.entity_id): inference.Annotation(
                    f"d{d}", a.start, a.end, a.entity_id, a.score) for a in preds}.values())
            report = inference.evaluate(pred, gold, mode=mode)
            for doc_id, golds in gold.items():
                linked = [a for a in pred if a.doc_id == doc_id and a.entity_id is not None]
                assert report.per_doc[doc_id] == helpers.reference_match_doc(linked, golds,
                                                                              mode)

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_evaluate_does_not_depend_on_prediction_order(self, mode):
        rng = np.random.default_rng(25 if mode == "strong" else 26)
        for _ in range(300):
            preds, golds = random_match_set(rng)
            pred = list({(a.start, a.end, a.entity_id): a for a in preds}.values())
            report = inference.evaluate(pred, {"d": golds}, mode=mode)
            for _ in range(3):
                rng.shuffle(pred)
                assert inference.evaluate(pred, {"d": golds}, mode=mode) == report


class TestAnnotationIo:
    def test_round_trip_sorted(self, tmp_path):
        anns = [inference.Annotation("b", 3, 4, "E2", 0.25),
                inference.Annotation("a", 7, 7, "E1", 1.5),
                inference.Annotation("a", 1, 2, "E3", -0.5)]
        path = str(tmp_path / "ann.jsonl")
        inference.write_annotations(anns, path)
        loaded = inference.read_annotations(path)
        assert [(a.doc_id, a.start) for a in loaded] == [("a", 1), ("a", 7), ("b", 3)]
        assert loaded[0].entity_id == "E3"

    def test_bad_record_names_line(self, tmp_path):
        p = tmp_path / "ann.jsonl"
        p.write_text('{"doc_id": "d"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":1"):
            inference.read_annotations(str(p))

    @pytest.mark.parametrize("field, value", [("start", "1.7"), ("end", "true"),
                                              ("start", '"1"'), ("end", "null"),
                                              ("doc_id", '["d1"]'), ("doc_id", "7"),
                                              ("entity", '["E1"]'), ("entity", "7"),
                                              ("score", '"nan"'), ("score", "true"),
                                              ("score", '"0.5"'), ("score", "NaN"),
                                              ("score", "[0.5]")])
    def test_non_integer_offset_rejected(self, tmp_path, field, value):
        rec = {"doc_id": '"d"', "start": "0", "end": "1", "entity": '"E"', "score": "0.5"}
        rec[field] = value
        p = tmp_path / "ann.jsonl"
        p.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in rec.items()) + "}\n",
                     encoding="utf-8")
        with pytest.raises(ValueError, match=f":1: bad annotation record: {field}"):
            inference.read_annotations(str(p))

    def test_score_null_missing_or_number(self, tmp_path):
        p = tmp_path / "ann.jsonl"
        records = [{"score": None}, {}, {"score": 2}, {"score": -0.25}, {"score": 1e300}]
        p.write_text("".join(json.dumps({"doc_id": "d", "start": i, "end": i, "entity": "E",
                                         **rec}) + "\n" for i, rec in enumerate(records)),
                     encoding="utf-8")
        scores = [a.score for a in inference.read_annotations(str(p))]
        assert scores == [float("-inf"), float("-inf"), 2.0, -0.25, 1e300]
        assert all(type(score) is float for score in scores)

    @pytest.mark.parametrize("start, end", [(-1, 1), (-2, -1), (3, 2), (0, -1)])
    def test_offsets_out_of_order_rejected(self, tmp_path, start, end):
        p = tmp_path / "ann.jsonl"
        p.write_text(json.dumps({"doc_id": "d", "start": start, "end": end, "entity": "E",
                                 "score": 0.5}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f":1: bad annotation record: start {start} "
                                             f"and end {end} break 0 <= start <= end"):
            inference.read_annotations(str(p))
