import math

import numpy as np
import pytest

from e2el import autodiff as ad
from e2el import scoring
from e2el.candidates import CandidateEntry, MentionSpan
from e2el.encoder import EncodedDocument


def scalar(x):
    return ad.constant(np.asarray(x, dtype=ad.default_dtype()))


def vec(*vals):
    return ad.constant(np.asarray(vals, dtype=ad.default_dtype()))


def span(start=0, end=0, cands=(("E", 1.0),)):
    return MentionSpan(doc_id="d", start=start, end=end, surface="s",
                       candidates=[CandidateEntry(e, p) for e, p in cands])


def scorer(w, b):
    return scoring.ScorerParams(psi_w=vec(*w), psi_b=scalar(b))


class TestLocalScore:
    def test_projector_weights_give_dot(self):
        params = scorer((0.0, 1.0), 0.0)
        x = vec(1.0, 2.0)
        y = vec(3.0, 4.0)
        out = scoring.local_score(x, CandidateEntry("E", 0.5), y, None, params)
        assert out.item() == pytest.approx(11.0)

    def test_prior_one_gives_zero(self):
        params = scorer((1.0, 0.0), 0.0)
        out = scoring.local_score(vec(1.0), CandidateEntry("E", 1.0), vec(1.0), None, params)
        assert out.item() == pytest.approx(0.0)

    def test_hand_computed(self):
        # 0.5*ln(0.5) + 0.25*11 + 0.1 = 2.50343
        params = scorer((0.5, 0.25), 0.1)
        out = scoring.local_score(vec(1.0, 2.0), CandidateEntry("E", 0.5),
                                  vec(3.0, 4.0), None, params)
        assert out.item() == pytest.approx(2.50343, abs=1e-4)

    def test_nonpositive_prior_rejected(self):
        params = scorer((1.0, 1.0), 0.0)
        with pytest.raises(ValueError, match="prior"):
            scoring.local_score(vec(1.0), CandidateEntry("E", 0.0), vec(1.0), None, params)

    def test_attention_arity_enforced(self):
        params = scorer((1.0, 1.0), 0.0)
        with pytest.raises(ValueError, match="context feature"):
            scoring.local_score(vec(1.0), CandidateEntry("E", 0.5), vec(1.0),
                                scalar(0.3), params)
        params3 = scorer((1.0, 1.0, 1.0), 0.0)
        with pytest.raises(ValueError, match="context feature"):
            scoring.local_score(vec(1.0), CandidateEntry("E", 0.5), vec(1.0), None, params3)

    def test_attention_feature_enters_affine(self):
        params = scorer((0.0, 0.0, 2.0), 0.5)
        out = scoring.local_score(vec(1.0), CandidateEntry("E", 0.5), vec(1.0),
                                  scalar(0.25), params)
        assert out.item() == pytest.approx(1.0)


def enc_from(xs, vs=None):
    x = [vec(*row) for row in xs]
    v = [vec(*row) for row in (vs if vs is not None else xs)]
    return EncodedDocument(doc_id="d", v=v, x=x)


def att_params(dim, a=None, b=None):
    p = scoring.ScorerParams(psi_w=vec(1.0, 1.0, 1.0), psi_b=scalar(0.0))
    p.att_a = ad.constant(np.ones(dim) if a is None else np.asarray(a, dtype=np.float32))
    p.att_b = ad.constant(np.ones(dim) if b is None else np.asarray(b, dtype=np.float32))
    return p


class TestLongRangeFeature:
    def test_degenerate_window(self):
        # identity diagonals, one candidate, one context word: feature = <y, x_w>
        enc = enc_from([[1.0, 2.0], [0.5, -1.0]])
        y = vec(2.0, 3.0)
        feats = scoring.long_range_feature(span(0, 0), enc, [y], window=4, keep=1,
                                           params=att_params(2))
        assert len(feats) == 1
        assert feats[0].item() == pytest.approx(0.5 * 2.0 + -1.0 * 3.0)

    def test_equal_scores_give_uniform_beta(self):
        # all context words identical, so kept scores tie and beta is uniform
        enc = enc_from([[1.0, 0.0]] * 5)
        y = vec(1.0, 0.0)
        feats = scoring.long_range_feature(span(2, 2), enc, [y], window=8, keep=2,
                                           params=att_params(2))
        # context embedding is the word vector itself under uniform weights
        assert feats[0].item() == pytest.approx(1.0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        dim = 4
        n = 12
        xs = rng.standard_normal((n, dim)).astype(np.float32)
        enc = enc_from(xs.tolist())
        a = rng.standard_normal(dim).astype(np.float32)
        b = rng.standard_normal(dim).astype(np.float32)
        ys = rng.standard_normal((3, dim)).astype(np.float32)
        sp = span(5, 6)
        window, keep = 8, 2
        feats = scoring.long_range_feature(
            sp, enc, [vec(*y) for y in ys], window=window, keep=keep,
            params=att_params(dim, a, b))

        # independent evaluation of the formula
        half = window // 2
        positions = [k for k in range(max(0, 5 - half), min(n - 1, 6 + half) + 1)
                     if k < 5 or k > 6]
        u = {k: max(float(y @ (a * xs[k])) for y in ys) for k in positions}
        kept = sorted(sorted(positions, key=lambda k: (-u[k], k))[:keep])
        e = np.exp([u[k] - max(u[k] for k in kept) for k in kept])
        beta = e / e.sum()
        c = sum(bk * xs[k] for bk, k in zip(beta, kept))
        for j, y in enumerate(ys):
            assert feats[j].item() == pytest.approx(float(y @ (b * c)), abs=1e-5)

    def test_informative_word_gets_max_beta(self):
        rng = np.random.default_rng(1)
        dim = 6
        xs = rng.standard_normal((12, dim)).astype(np.float32) * 0.1
        gold_dir = np.zeros(dim, dtype=np.float32)
        gold_dir[0] = 1.0
        xs[9] = gold_dir * 3.0  # exactly one context word correlates with the entity
        enc = enc_from(xs.tolist())
        y = vec(*gold_dir)
        feats = scoring.long_range_feature(span(4, 4), enc, [y], window=12, keep=2,
                                           params=att_params(dim))
        u = {k: float(gold_dir @ xs[k]) for k in range(12) if k != 4}
        best = max(u, key=u.get)
        assert best == 9
        # the kept soft weights concentrate on that word
        assert feats[0].item() == pytest.approx(
            float(gold_dir @ xs[9]), rel=0.2)

    def test_window_smaller_than_keep_keeps_all(self):
        enc = enc_from([[1.0], [2.0], [3.0]])
        feats = scoring.long_range_feature(span(1, 1), enc, [vec(1.0)], window=200,
                                           keep=10, params=att_params(1))
        assert np.isfinite(feats[0].item())

    def test_bad_window_config(self):
        enc = enc_from([[1.0]])
        with pytest.raises(ValueError, match="keep"):
            scoring.long_range_feature(span(0, 0), enc, [vec(1.0)], window=2, keep=3,
                                       params=att_params(1))


def per_word_long_range_feature(sp, enc, entity_vectors, window, keep, params):
    """Every window word as graph nodes, ranked from the node values; the
    reference the off-graph ranking of `long_range_feature` must match."""
    positions = scoring.context_window(sp, len(enc), window)
    if not positions:
        zero = ad.constant(np.asarray(0.0, dtype=ad.default_dtype()))
        return [zero for _ in entity_vectors]
    scores = []
    for k in positions:
        ax = ad.mul(params.att_a, enc.x[k])
        scores.append(ad.max1d(ad.stack([ad.dot(y, ax) for y in entity_vectors])))
    ranked = sorted(range(len(positions)), key=lambda i: (-float(scores[i].data), positions[i]))
    kept = sorted(ranked[:keep])
    beta = ad.softmax(ad.stack([scores[i] for i in kept]))
    c = ad.weighted_sum([enc.x[positions[i]] for i in kept], beta)
    bc = ad.mul(params.att_b, c)
    return [ad.dot(y, bc) for y in entity_vectors]


def reachable(roots):
    """Ids of the nodes reachable from `roots` through parent links."""
    seen = {id(r) for r in roots}
    todo = list(roots)
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return seen


def attention_case(rng, dtype):
    """A random document, span, window and candidate set with trainable
    inputs; half the cases draw words from a pool of three vectors so that
    scores tie."""
    n = int(rng.integers(2, 40))
    dim = int(rng.choice([1, 3, 8]))
    start = int(rng.integers(0, n))
    end = min(n - 1, start + int(rng.integers(0, 3)))
    if end - start + 1 == n:  # keep at least one context word
        end = start
    window = int(rng.integers(2, 60))
    keep = int(rng.integers(1, window + 1))
    if rng.random() < 0.5:
        pool = rng.standard_normal((3, dim))
        xs = pool[rng.integers(0, 3, size=n)]
    else:
        xs = rng.standard_normal((n, dim))
    n_cands = int(rng.integers(1, 11))
    ys = rng.standard_normal((n_cands, dim))
    x = [ad.parameter(r.astype(dtype)) for r in xs]
    enc = EncodedDocument(doc_id="d", v=x, x=x)
    params = scoring.ScorerParams(psi_w=vec(1.0, 1.0, 1.0), psi_b=scalar(0.0))
    params.att_a = ad.parameter(rng.standard_normal(dim).astype(dtype))
    params.att_b = ad.parameter(rng.standard_normal(dim).astype(dtype))
    y = [ad.parameter(r.astype(dtype)) for r in ys]
    return span(start, end), enc, y, window, keep, params


class TestLongRangeOracle:
    """The off-graph ranking against the per-word graph it replaced."""

    @staticmethod
    def run(fn, case, weights):
        sp, enc, y, window, keep, params = case
        for t in [params.att_a, params.att_b, *enc.x, *y]:
            t.grad = None
        feats = fn(sp, enc, y, window, keep, params)
        kept = sorted(k for k, xk in enumerate(enc.x) if id(xk) in reachable(feats))
        ad.backward(ad.dot(ad.constant(weights), ad.stack(feats)))
        grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                 for t in [params.att_a, params.att_b, *enc.x, *y]]
        return kept, np.array([f.item() for f in feats]), grads

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_random_cases_agree(self, precision):
        rng = np.random.default_rng(11)
        clipped_left = clipped_right = all_kept = 0
        with ad.precision(precision):
            dtype = ad.default_dtype()
            for _ in range(150):
                case = attention_case(rng, dtype)
                sp, enc, y, window, keep, _ = case
                positions = scoring.context_window(sp, len(enc), window)
                clipped_left += sp.start - window // 2 < 0
                clipped_right += sp.end + window // 2 > len(enc) - 1
                all_kept += keep >= len(positions)
                weights = rng.standard_normal(len(y)).astype(dtype)
                kept, feats, grads = self.run(scoring.long_range_feature, case, weights)
                kept_ref, feats_ref, grads_ref = self.run(per_word_long_range_feature,
                                                          case, weights)
                assert kept == kept_ref
                assert len(kept) == min(keep, len(positions))
                np.testing.assert_allclose(feats, feats_ref, rtol=1e-6, atol=0)
                if precision == "float64":
                    for g, g_ref in zip(grads, grads_ref):
                        np.testing.assert_allclose(g, g_ref, rtol=1e-6, atol=0)
        assert min(clipped_left, clipped_right, all_kept) >= 10

    def test_tied_scores_keep_lower_positions(self):
        # six identical words around the span: the two kept are the first two
        x = [ad.parameter(np.array([1.0, 0.0])) for _ in range(7)]
        enc = EncodedDocument(doc_id="d", v=x, x=x)
        feats = scoring.long_range_feature(span(3, 3), enc, [vec(1.0, 0.0)], window=8,
                                           keep=2, params=att_params(2))
        assert [k for k, xk in enumerate(x) if id(xk) in reachable(feats)] == [0, 1]

    @pytest.mark.parametrize("n_cands", [1, 2])
    def test_overflow_in_dropped_word_raises(self, n_cands):
        # word 4 scores -inf against the first candidate; with keep=1 it would
        # be dropped, and the second candidate leaves its row maximum finite
        xs = [[1.0, 1.0], [0.5, 0.5], [0.2, 0.1], [1.0, 0.3], [-1e30, -1e30]]
        ys = [vec(1e9, 1e9), vec(1.0, 1.0)][:n_cands]
        with pytest.raises(FloatingPointError, match="attention word scores"):
            scoring.long_range_feature(span(0, 0), enc_from(xs), ys, window=10, keep=1,
                                       params=att_params(2))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            per_word_long_range_feature(span(0, 0), enc_from(xs), ys, window=10, keep=1,
                                        params=att_params(2))

    def test_graph_size_does_not_grow_with_window(self, monkeypatch):
        # both the nodes built by one call and those reachable from its
        # features; per-word nodes would make the first grow tenfold
        rng = np.random.default_rng(5)
        x = [ad.parameter(r) for r in rng.standard_normal((300, 8))]
        enc = EncodedDocument(doc_id="d", v=x, x=x)
        y = [ad.parameter(r) for r in rng.standard_normal((9, 8))]
        params = att_params(8)
        params.att_a = ad.parameter(np.ones(8))
        params.att_b = ad.parameter(np.ones(8))
        built = [0]
        init = ad.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        sizes = []
        for window in (20, 200):
            built[0] = 0
            feats = scoring.long_range_feature(span(150, 151), enc, y, window=window,
                                               keep=10, params=params)
            sizes.append((built[0], len(reachable(feats))))
        assert sizes[0] == sizes[1]

    def test_scaled_context_follows_in_place_updates(self):
        enc = enc_from([[1.0, 2.0], [3.0, 4.0]])
        a = np.array([1.0, 1.0], dtype=np.float32)
        assert np.array_equal(enc.scaled_context(a), [[1.0, 2.0], [3.0, 4.0]])
        a[1] = 2.0
        assert np.array_equal(enc.scaled_context(a), [[1.0, 4.0], [3.0, 8.0]])


class TestFilterVoters:
    def make_pairs(self, psis):
        return [scoring.ScoredPair(span(i, i), f"E{i}", 1.0, psi)
                for i, psi in enumerate(psis)]

    def test_very_negative_threshold_keeps_all(self):
        pairs = self.make_pairs([-5.0, 0.0, 3.0])
        cfg = scoring.GlobalConfig(gamma_prime=-1e18)
        assert len(scoring.filter_voters(pairs, cfg)) == 3

    def test_boundary_inclusive(self):
        pairs = self.make_pairs([-0.1, 0.0, 0.2])
        voters = scoring.filter_voters(pairs, scoring.GlobalConfig(gamma_prime=0.0))
        assert [v.entity_id for v in voters] == ["E1", "E2"]

    def test_empty(self):
        assert scoring.filter_voters([], scoring.GlobalConfig()) == []

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        pairs = self.make_pairs(rng.normal(size=20).tolist())
        sizes = [len(scoring.filter_voters(pairs, scoring.GlobalConfig(gamma_prime=g)))
                 for g in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        assert sizes == sorted(sizes, reverse=True)


def voter(i, entity_id):
    """A voting pair of the one-token mention at position i."""
    return scoring.ScoredPair(span(i, i), entity_id, 1.0, 0.0)


def per_span_vote_vector(sp, voters, entity_tensor):
    """The entity vectors of the voters from other mentions, summed by a
    scan of every voter; the reference `vote_vector` must match."""
    contributing = [v for v in voters if (v.span.start, v.span.end) != (sp.start, sp.end)]
    if not contributing:
        return None
    return ad.addn([entity_tensor(v.entity_id) for v in contributing])


class TestGlobalScore:
    @staticmethod
    def vote_of(sp, voters, table):
        votes = scoring.vote_vector([sp], voters, lambda eid: vec(*table[eid]))
        return votes[sp.start, sp.end]

    def test_closed_form(self):
        voters = [voter(1, "A"), voter(2, "B")]
        table = {"A": (1.0, 0.0), "B": (0.0, 1.0)}
        vote = self.vote_of(span(0, 0), voters, table)
        g = scoring.global_score(vec(1.0, 0.0), vote)
        assert g.item() == pytest.approx(0.70710, abs=1e-5)

    def test_self_votes_excluded(self):
        vote = self.vote_of(span(0, 0), [voter(0, "A")], {"A": (1.0, 0.0)})
        assert vote is None
        assert scoring.global_score(vec(1.0, 0.0), vote).item() == 0.0

    def test_duplicate_entities_counted_per_mention(self):
        voters = [voter(1, "A"), voter(2, "A"), voter(3, "B")]
        table = {"A": (1.0, 0.0), "B": (0.0, 1.0)}
        vote = self.vote_of(span(0, 0), voters, table)
        assert np.allclose(vote.data, [2.0, 1.0])

    def test_four_mention_brute_force(self):
        rng = np.random.default_rng(3)
        table = {f"E{i}": tuple(rng.standard_normal(3).astype(np.float32)) for i in range(6)}
        voters = [voter(i, f"E{rng.integers(0, 6)}") for i in range(4)]
        for m in range(4):
            vote = self.vote_of(span(m, m), voters, table)
            expect = np.zeros(3)
            for v in voters:
                if v.span.start != m:
                    expect += np.asarray(table[v.entity_id])
            y = np.asarray(table["E0"])
            g = scoring.global_score(vec(*table["E0"]), vote).item()
            denom = np.linalg.norm(y) * np.linalg.norm(expect)
            assert g == pytest.approx(float(y @ expect) / denom, abs=1e-5)

    def test_g_in_range(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            y = vec(*rng.standard_normal(4))
            v = vec(*rng.standard_normal(4))
            assert -1.0 - 1e-6 <= scoring.global_score(y, v).item() <= 1.0 + 1e-6

    def test_scale_invariance_exact(self):
        # doubling all entity vectors is exact in floats and leaves G unchanged
        table = {"A": (0.3, -1.7, 0.4), "B": (2.0, 0.1, -0.6)}
        doubled = {k: tuple(2.0 * x for x in v) for k, v in table.items()}
        voters = [voter(1, "A"), voter(2, "B")]
        g1 = scoring.global_score(vec(*table["A"]),
                                  self.vote_of(span(0, 0), voters, table)).item()
        g2 = scoring.global_score(vec(*doubled["A"]),
                                  self.vote_of(span(0, 0), voters, doubled)).item()
        assert g1 == g2


def vote_case(rng, dtype, kind):
    """A random document's pairs over a trainable entity matrix, with the
    voting threshold set so that no pair votes ("none"), the pairs of one
    span vote ("one"), every pair votes ("all") or a random share does."""
    n_entities = int(rng.integers(9, 20))  # fewer than the pairs, so entities repeat
    matrix = ad.parameter(rng.standard_normal((n_entities, 8)).astype(dtype))
    spans, pairs = [], []
    for i in range(int(rng.integers(1, 31))):
        ids = rng.choice(n_entities, size=int(rng.integers(1, 10)), replace=False)
        sp = span(i, i + int(rng.integers(0, 3)), [(f"E{k}", 1.0) for k in ids])
        spans.append(sp)
        pairs += [scoring.ScoredPair(sp, f"E{k}", 1.0, float(rng.standard_normal()))
                  for k in ids]
    psis = [p.psi for p in pairs]
    if kind == "one":
        sp = spans[int(rng.integers(0, len(spans)))]
        for p in pairs:
            if p.span is sp:
                p.psi += 20.0
        gamma_prime = 10.0
    else:
        gamma_prime = {"none": max(psis) + 1.0, "all": min(psis) - 1.0,
                       "some": float(rng.choice(psis))}[kind]
    return matrix, spans, pairs, scoring.GlobalConfig(gamma_prime=gamma_prime)


class TestVoteOracle:
    """The document sum minus own votes against the per-span scan it replaced."""

    @staticmethod
    def run(votes_of, case, weights):
        matrix, spans, pairs, cfg = case
        matrix.grad = None
        rows: dict[str, ad.Tensor] = {}

        def y_of(eid):
            if eid not in rows:
                rows[eid] = ad.row(matrix, int(eid[1:]))
            return rows[eid]

        votes = votes_of(spans, scoring.filter_voters(pairs, cfg), y_of)
        g = [scoring.global_score(y_of(p.entity_id), votes[p.span.start, p.span.end])
             for p in pairs]
        loss = ad.dot(ad.constant(weights), ad.stack(g))
        if loss.requires_grad:
            ad.backward(loss)
        grad = np.zeros_like(matrix.data) if matrix.grad is None else matrix.grad.copy()
        return np.array([t.item() for t in g]), grad

    @staticmethod
    def oracle(spans, voters, y_of):
        return {(sp.start, sp.end): per_span_vote_vector(sp, voters, y_of) for sp in spans}

    @pytest.mark.parametrize("precision, g_tol", [("float32", 1e-5), ("float64", 1e-9)])
    def test_random_documents_agree(self, precision, g_tol):
        rng = np.random.default_rng(21)
        kinds = ["none", "one", "all", "some"]
        seen = dict.fromkeys(kinds, 0)
        with ad.precision(precision):
            dtype = ad.default_dtype()
            for n in range(120):
                kind = kinds[n % 4]
                case = vote_case(rng, dtype, kind)
                voters = scoring.filter_voters(case[2], case[3])
                voting_spans = {(v.span.start, v.span.end) for v in voters}
                assert len(voting_spans) == {"none": 0, "one": 1}.get(kind, len(voting_spans))
                seen[kind] += len(case[1]) > 1
                weights = rng.standard_normal(len(case[2])).astype(dtype)
                g, grad = self.run(scoring.vote_vector, case, weights)
                g_ref, grad_ref = self.run(self.oracle, case, weights)
                np.testing.assert_allclose(g, g_ref, rtol=0, atol=g_tol)
                if precision == "float64":
                    np.testing.assert_allclose(grad, grad_ref, rtol=1e-6, atol=0)
        assert min(seen.values()) >= 10


class TestCombineGlobal:
    def make(self, w, b):
        p = scoring.ScorerParams(psi_w=vec(1.0, 1.0), psi_b=scalar(0.0))
        p.phi_w = vec(*w)
        p.phi_b = scalar(b)
        return p

    def test_identity_on_psi(self):
        p = self.make((1.0, 0.0), 0.0)
        assert scoring.combine_global(scalar(0.7), scalar(0.2), p).item() == pytest.approx(0.7)

    def test_identity_on_g(self):
        p = self.make((0.0, 1.0), 0.0)
        assert scoring.combine_global(scalar(0.7), scalar(0.2), p).item() == pytest.approx(0.2)

    def test_arithmetic(self):
        p = self.make((0.7, 0.3), -0.05)
        out = scoring.combine_global(scalar(0.4), scalar(0.5), p)
        assert out.item() == pytest.approx(0.38, abs=1e-6)
