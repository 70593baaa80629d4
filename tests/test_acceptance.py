"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run as ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
output; every tolerance is asserted exactly as stated.
"""

import time

import numpy as np
import pytest

import helpers
from e2el import autodiff as ad
from e2el import candidates as cand
from e2el import inference, training
from e2el.candidates import CandidateEntry, MentionSpan
from e2el.cli import full_model_grad_check
from e2el.corpus import Document
from e2el.embeddings import save_text_embeddings, train_entity_embeddings, WordVectors
from e2el.scoring import ScoredPair


def verdict(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_c01_gradient_integrity():
    start = time.perf_counter()
    tol = 1e-4
    worst_op = _per_op_gradients()
    graph_errors = full_model_grad_check(seed=0)
    worst_graph = max(graph_errors.values())
    elapsed = time.perf_counter() - start
    ok = worst_op <= tol and worst_graph <= tol and elapsed < 60.0
    verdict(1, "gradient-integrity", ok,
            f"ops {worst_op:.2e}, graphs {worst_graph:.2e}, {elapsed:.1f}s")


def _per_op_gradients() -> float:
    """Finite differences over every differentiable primitive at h=1e-5."""
    rng = np.random.default_rng(0)
    worst = 0.0
    with ad.precision("float64"):
        x = ad.parameter(rng.normal(size=6))
        y = ad.parameter(rng.normal(size=6))
        s = ad.parameter(np.asarray(0.7))
        w = ad.parameter(rng.normal(size=(4, 6)))
        m2 = ad.parameter(rng.normal(size=(6, 3)))
        lstm = ad.init_lstm(3, 2, rng)
        probe3 = ad.constant(rng.normal(size=3))
        probe4 = ad.constant(rng.normal(size=4))
        probe6 = ad.constant(rng.normal(size=6))
        probe2 = ad.constant(rng.normal(size=2))
        xs = [ad.constant(rng.normal(size=3)) for _ in range(3)]

        def lstm_loss():
            h = ad.constant(np.zeros(2))
            c = ad.constant(np.zeros(2))
            for xi in xs:
                h, c = ad.lstm_cell(xi, h, c, lstm)
            return ad.dot(h, probe2)

        def dropout_loss():
            drop_rng = np.random.default_rng(5)  # same mask on every rebuild
            return ad.dot(ad.dropout(x, 0.6, training=True, rng=drop_rng), probe6)

        builders = {
            "add": lambda: ad.dot(ad.add(x, y), probe6),
            "sub": lambda: ad.dot(ad.sub(x, y), probe6),
            "mul": lambda: ad.dot(ad.mul(x, y), probe6),
            "addn": lambda: ad.dot(ad.addn([x, y, x]), probe6),
            "scale": lambda: ad.dot(ad.scale(x, s), probe6),
            "matmul": lambda: ad.dot(ad.row(ad.matmul(w, m2), 1), probe3),
            "matvec": lambda: ad.dot(ad.matvec(w, x), probe4),
            "dot": lambda: ad.dot(x, y),
            "sum1d": lambda: ad.sum1d(ad.mul(x, y)),
            "stack": lambda: ad.dot(ad.stack([ad.dot(x, y), ad.max1d(x), ad.sum1d(y)]),
                                    probe3),
            "concat": lambda: ad.dot(ad.slice1d(ad.concat([x, y]), 3, 6), probe6),
            "slice1d": lambda: ad.dot(ad.slice1d(ad.concat([x, y]), 0, 6), probe6),
            "row": lambda: ad.dot(ad.row(w, 2), probe6),
            "sigmoid": lambda: ad.dot(ad.sigmoid(x), probe6),
            "tanh": lambda: ad.dot(ad.tanh(x), probe6),
            "relu": lambda: ad.dot(ad.relu(x), probe6),
            "softmax": lambda: ad.dot(ad.softmax(x), probe6),
            "max1d": lambda: ad.max1d(x),
            "weighted_sum": lambda: ad.dot(
                ad.weighted_sum([x, y], ad.stack([s, ad.dot(x, probe6)])), probe6),
            "dropout": dropout_loss,
            "cosine": lambda: ad.cosine(x, y),
            "lstm_cell": lstm_loss,
        }
        params = [x, y, s, w, m2, lstm.w_x, lstm.w_h, lstm.b]
        for name, build in builders.items():
            for p in params:
                worst = max(worst, ad.grad_check(build, p, h=1e-5))
    return worst


# ---------------------------------------------------------------------------


def test_c02_overfit_reproduction():
    start = time.perf_counter()
    docs, table, tokens, entity_ids = helpers.overfit_corpus()
    index = helpers.alias_index(table)

    # corpus contract: >= 20 documents, >= 30 entities, ambiguous surfaces
    # with 2-4 candidates, gold always in the candidate set
    assert len(docs) >= 20
    assert len(entity_ids) >= 30
    assert all(2 <= len(v) <= 4 for v in table.values())
    for doc in docs:
        for s, e, ent in doc.gold:
            assert any(c.entity_id == ent for c in index.lookup(doc.surface(s, e)))

    words = helpers.word_store(tokens, seed=100)
    ents = helpers.entity_store(entity_ids, seed=200)
    model = helpers.build_model(words, ents, corpus_tokens=tokens, seed=0)
    cfg = training.TrainConfig(seed=0, regime="all_spans", learning_rate=0.01,
                               eval_every=200, max_steps=600)
    result = training.train(docs, docs, model, index, cfg)
    pairs = []
    for doc in docs:
        pairs.extend(model.score_pairs(doc, training.spans_for_regime(doc, index, cfg)))
    gold = {d.doc_id: list(d.gold) for d in docs}
    report = inference.evaluate(inference.greedy_decode(pairs, result.delta), gold,
                                mode="strong")
    elapsed = time.perf_counter() - start
    ok = report.micro_f1 >= 0.95 and elapsed < 300.0
    verdict(2, "overfit-reproduction", ok,
            f"train strong micro F1 {report.micro_f1:.4f}, {elapsed:.1f}s")


def test_c03_global_layer_efficacy():
    train_docs, dev, test, table, tokens, ents = helpers.coherence_corpus(seed=3)
    words = helpers.word_store(tokens, seed=50)
    index = helpers.alias_index(table)
    gold = {d.doc_id: list(d.gold) for d in test}
    corpus_tokens = [t for d in train_docs for t in d.tokens]

    def run(use_global):
        model = helpers.build_model(words, ents, corpus_tokens=corpus_tokens,
                                    seed=1, use_global=use_global)
        cfg = training.TrainConfig(seed=1, learning_rate=0.01, eval_every=150,
                                   max_steps=900)
        result = training.train(train_docs, dev, model, index, cfg)
        pairs = []
        for doc in test:
            pairs.extend(model.score_pairs(doc, training.spans_for_regime(doc, index, cfg)))
        return inference.evaluate(inference.greedy_decode(pairs, result.delta), gold,
                                  mode="strong").micro_f1

    base_f1 = run(False)
    global_f1 = run(True)
    ok = global_f1 - base_f1 >= 0.2
    verdict(3, "global-layer-efficacy", ok,
            f"base {base_f1:.4f} vs global {global_f1:.4f} on held-out")


# ---------------------------------------------------------------------------


def _oracle_match(preds, golds, mode):
    """Independent TP/FP/FN: set intersection for strong matching, greedy
    document-order pairing for weak."""
    if mode == "strong":
        pred_set = {(a.start, a.end, a.entity_id) for a in preds}
        gold_set = set(golds)
        tp = len(pred_set & gold_set)
        return tp, len(pred_set) - tp, len(gold_set) - tp
    remaining = list(golds)
    tp = 0
    for a in sorted(preds, key=lambda a: (a.start, a.end, a.entity_id)):
        for g in remaining:
            if g[2] == a.entity_id and a.start <= g[1] and g[0] <= a.end:
                remaining.remove(g)
                tp += 1
                break
    return tp, len(preds) - tp, len(golds) - tp


def _oracle_report(pred, gold, mode):
    def prf(tp, fp, fn):
        p = tp / (tp + fp) if tp + fp else 1.0
        r = tp / (tp + fn) if tp + fn else 1.0
        return p, r, (2 * p * r / (p + r) if p + r else 0.0)

    tots = [0, 0, 0]
    macro = [0.0, 0.0, 0.0]
    for doc_id, golds in gold.items():
        preds = [a for a in pred if a.doc_id == doc_id]
        tp, fp, fn = _oracle_match(preds, golds, mode)
        for i, v in enumerate((tp, fp, fn)):
            tots[i] += v
        for i, v in enumerate(prf(tp, fp, fn)):
            macro[i] += v
    n = len(gold)
    micro = prf(*tots)
    return micro, tuple(m / n for m in macro)


def test_c04_metric_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(100):
        gold = {}
        pred = []
        seen = set()
        for d in range(int(rng.integers(1, 4))):
            doc_id = f"d{case}_{d}"
            gold[doc_id] = []
            for _ in range(int(rng.integers(0, 11))):
                start = int(rng.integers(0, 15))
                end = start + int(rng.integers(0, 3))
                ent = f"e{int(rng.integers(0, 6))}"
                if (start, end, ent) not in gold[doc_id]:
                    gold[doc_id].append((start, end, ent))
            for _ in range(int(rng.integers(0, 11))):
                start = int(rng.integers(0, 15))
                end = start + int(rng.integers(0, 3))
                ent = f"e{int(rng.integers(0, 6))}"
                if (doc_id, start, end, ent) not in seen:
                    seen.add((doc_id, start, end, ent))
                    pred.append(inference.Annotation(doc_id, start, end, ent, 1.0))
        for mode in ("strong", "weak"):
            rep = inference.evaluate(pred, gold, mode=mode)
            micro, macro = _oracle_report(pred, gold, mode)
            for got, want in zip(
                    (rep.micro_precision, rep.micro_recall, rep.micro_f1,
                     rep.macro_precision, rep.macro_recall, rep.macro_f1),
                    micro + macro):
                worst = max(worst, abs(got - want))
    verdict(4, "metric-oracle-equivalence", worst == 0.0, f"max deviation {worst}")


def test_c05_decode_properties():
    rng = np.random.default_rng(8)
    checked = 0
    for case in range(1000):
        n = int(rng.integers(1, 10))
        pairs = []
        for i in range(n):
            start = int(rng.integers(0, 12))
            end = start + int(rng.integers(0, 3))
            span = MentionSpan(doc_id="d", start=start, end=end, surface="s",
                               candidates=[CandidateEntry(f"E{i}", 0.5)])
            pairs.append(ScoredPair(span=span, entity_id=f"E{i}", prior=0.5,
                                    psi=round(float(rng.normal()), 3)))
        delta = round(float(rng.normal(scale=0.5)), 3)
        out = inference.greedy_decode(pairs, delta)

        used = set()
        for a in out:
            toks = set(range(a.start, a.end + 1))
            assert not toks & used, "overlapping decode output"
            used |= toks
            assert a.score > delta

        # reference sweep simulation
        best = {}
        for p in pairs:
            key = (p.span.start, p.span.end)
            cur = best.get(key)
            if cur is None or (p.score, p.prior) > (cur.score, cur.prior) or \
                    ((p.score, p.prior) == (cur.score, cur.prior)
                     and p.entity_id < cur.entity_id):
                best[key] = p
        order = sorted([p for p in best.values() if p.score > delta],
                       key=lambda p: (-p.score, p.span.start,
                                      p.span.end - p.span.start, p.entity_id))
        chosen, taken = [], set()
        for p in order:
            toks = set(range(p.span.start, p.span.end + 1))
            if not toks & taken:
                taken |= toks
                chosen.append((p.span.start, p.span.end, p.entity_id))
        assert [(a.start, a.end, a.entity_id) for a in out] == sorted(chosen)

        counts = [len(inference.greedy_decode(pairs, float(d)))
                  for d in np.linspace(-2, 2, 7)]
        assert counts == sorted(counts, reverse=True), "raising delta added annotations"
        checked += 1
    verdict(5, "decode-properties", checked == 1000, f"{checked} random span sets")


def test_c06_threshold_selection():
    rng = np.random.default_rng(9)
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(2, 14))
        pairs = []
        gold = {"d": []}
        for i in range(n):
            start = int(rng.integers(0, 18))
            ent = f"E{int(rng.integers(0, 5))}"
            score = round(float(rng.integers(-100, 101)) / 100.0, 2)
            span = MentionSpan(doc_id="d", start=start, end=start, surface="s",
                               candidates=[CandidateEntry(ent, 1.0)])
            pairs.append(ScoredPair(span=span, entity_id=ent, prior=1.0, psi=score))
            if rng.random() < 0.5 and (start, start, ent) not in gold["d"]:
                gold["d"].append((start, start, ent))
        delta = inference.select_threshold(pairs, gold)
        ours = inference.evaluate(inference.greedy_decode(pairs, delta), gold).micro_f1
        grid_best = max(
            inference.evaluate(inference.greedy_decode(pairs, float(g)), gold).micro_f1
            for g in np.arange(-1.05, 1.05, 0.001))
        worst = max(worst, abs(ours - grid_best))
    verdict(6, "threshold-selection", worst <= 1e-9, f"max |F1 - grid F1| = {worst}")


def test_c07_violation_loss_closed_forms():
    gamma = 0.2

    def v(score, is_gold):
        return training.violation(ad.constant(np.asarray(score, dtype=np.float32)),
                                  is_gold, gamma).item()

    checks = [
        (v(0.5, True), 0.0),
        (v(-0.1, True), pytest.approx(0.3)),
        (v(0.3, False), pytest.approx(0.3)),
        (v(-0.3, False), 0.0),
    ]
    doc = Document("d", ["s"], gold=[(0, 0, "GOLD")])
    span = MentionSpan(doc_id="d", start=0, end=0, surface="s",
                       candidates=[CandidateEntry("GOLD", 0.6), CandidateEntry("OTHER", 0.4)])

    class Fixed:
        def __init__(self, scores):
            self.scores = scores

        def pair_scores(self, doc, spans, mode="train", rng=None):
            from e2el.model import PairScore
            return [PairScore(span=s, entity_id=c.entity_id, prior=c.prior,
                              psi=ad.constant(np.asarray(self.scores[c.entity_id],
                                                         dtype=np.float32)))
                    for s in spans for c in s.candidates]

    cfg = training.TrainConfig(gamma=gamma)
    loss1 = training.document_loss(doc, [span], doc.gold,
                                   Fixed({"GOLD": 0.5, "OTHER": -0.5}), cfg).loss.item()
    loss2 = training.document_loss(doc, [span], doc.gold,
                                   Fixed({"GOLD": 0.0, "OTHER": 0.1}), cfg).loss.item()
    checks += [(loss1, 0.0), (loss2, pytest.approx(0.3))]
    ok = all(got == want for got, want in checks)
    verdict(7, "violation-loss-closed-forms", ok, f"6 closed forms at gamma={gamma}")


def test_c08_entity_embedding_trainer(tmp_path):
    rng = np.random.default_rng(11)
    vocab = {f"w{i:02d}": i for i in range(20)}
    matrix = rng.standard_normal((20, 16)).astype(np.float32)
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    path = str(tmp_path / "words.txt")
    save_text_embeddings(vocab, matrix, path)
    words = WordVectors.from_file(path)
    corpus = {}
    for i in range(5):
        dominant = f"w{(4 * i) % 20:02d}"
        corpus[f"E{i}"] = {dominant: 60,
                           f"w{(4 * i + 1) % 20:02d}": 3,
                           f"w{(4 * i + 2) % 20:02d}": 2}
    ents = train_entity_embeddings(corpus, words, steps=400, seed=13)
    hits = 0
    for eid, counts in corpus.items():
        dominant = max(counts, key=counts.get)
        y = ents.vector(eid)
        nearest = max(words.vocab, key=lambda w: float(words.lookup(w) @ y))
        hits += nearest == dominant
    verdict(8, "entity-embedding-trainer", hits == 5, f"{hits}/5 dominant words nearest")


def test_c09_determinism(tmp_path):
    from e2el import cli

    outputs = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        paths, _ = helpers.write_pipeline_fixture(root, seed=4, max_steps=100,
                                                  eval_every=50)
        assert cli.run_command(["build-candidates", "--counts", paths["counts"],
                                "--out", paths["index"]]) == 0
        assert cli.run_command(["train", "--config", paths["config"]]) == 0
        assert cli.run_command(["annotate", "--config", paths["config"],
                                "--in", paths["corpus"],
                                "--out", paths["annotations"]]) == 0
        outputs.append((open(paths["checkpoint"], "rb").read(),
                        open(paths["annotations"], "rb").read()))
    same_ckpt = outputs[0][0] == outputs[1][0]
    same_anns = outputs[0][1] == outputs[1][1]
    verdict(9, "determinism", same_ckpt and same_anns,
            f"checkpoints identical: {same_ckpt}, annotations identical: {same_anns}")


def test_c10_candidate_recall_reporter(tmp_path):
    rows = [("big", f"E{i:02d}", 1000 - i) for i in range(35)]
    rows += [("mid", f"M{i:02d}", 500 - i) for i in range(15)]
    rows += [("easy", "TOP", 10)]
    counts = tmp_path / "counts.tsv"
    counts.write_text("".join(f"{s}\t{e}\t{c}\n" for s, e, c in rows), encoding="utf-8")
    index = cand.build_index([str(counts)], s=30)
    # hand count: gold ranks are 32 (out of both), 12 (in 30, out of 10),
    # 1 and 1 (in both) -> recall30 = 3/4, recall10 = 2/4
    docs = [
        Document("d1", ["big"], gold=[(0, 0, "E31")]),
        Document("d2", ["mid"], gold=[(0, 0, "M11")]),
        Document("d3", ["easy"], gold=[(0, 0, "TOP")]),
        Document("d4", ["easy"], gold=[(0, 0, "TOP")]),
    ]
    recall = cand.candidate_recall(docs, index, ks=(30, 10))
    ok = recall[30] == 0.75 and recall[10] == 0.5
    verdict(10, "candidate-recall-reporter", ok,
            f"recall30 {recall[30]}, recall10 {recall[10]}")
