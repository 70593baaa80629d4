import warnings

import numpy as np
import pytest

import helpers
from e2el import autodiff as ad
from e2el import scoring
from e2el.candidates import CandidateEntry, MentionSpan
from e2el.encoder import EncodedDocument


def scalar(x):
    return ad.constant(np.asarray(x, dtype=ad.default_dtype()))


def vec(*vals):
    return ad.constant(np.asarray(vals, dtype=ad.default_dtype()))


def mat(*rows):
    return ad.constant(np.asarray(rows, dtype=ad.default_dtype()))


def span(start=0, end=0, cands=(("E", 1.0),)):
    return MentionSpan(doc_id="d", start=start, end=end, surface="s",
                       candidates=[CandidateEntry(e, p) for e, p in cands])


def candidates(n):
    """n distinct candidates of prior 1."""
    return [(f"E{j}", 1.0) for j in range(n)]


def scorer(w, b):
    return scoring.ScorerParams(psi_w=vec(*w), psi_b=scalar(b))


class TestLocalScore:
    def test_projector_weights_give_dot(self):
        params = scorer((0.0, 1.0), 0.0)
        out = scoring.local_score(mat((1.0, 2.0)), [span(cands=(("E", 0.5), ("F", 0.25)))],
                                  mat((3.0, 4.0), (-1.0, 0.5)), None, params)
        assert out.shape == (2,)
        assert out.data == pytest.approx([11.0, 0.0])

    def test_prior_one_gives_zero(self):
        params = scorer((1.0, 0.0), 0.0)
        out = scoring.local_score(mat((1.0,)), [span()], mat((1.0,)), None, params)
        assert out.data[0] == pytest.approx(0.0)

    def test_hand_computed(self):
        # 0.5*ln(0.5) + 0.25*11 + 0.1 = 2.50343
        params = scorer((0.5, 0.25), 0.1)
        out = scoring.local_score(mat((1.0, 2.0)), [span(cands=(("E", 0.5),))],
                                  mat((3.0, 4.0)), None, params)
        assert out.data[0] == pytest.approx(2.50343, abs=1e-4)

    def test_nonpositive_prior_rejected(self):
        params = scorer((1.0, 1.0), 0.0)
        with pytest.raises(ValueError, match="prior"):
            scoring.local_score(mat((1.0,)), [span(cands=(("E", 0.5), ("F", 0.0)))],
                                mat((1.0,), (1.0,)), None, params)
        # the first bad pair, in pair order, across spans, is named
        spans = [span(cands=(("E", 0.5), ("F", 0.25))), span(cands=(("G", -0.5), ("H", 0.0)))]
        with pytest.raises(ValueError,
                           match=r"^candidate 'G' has non-positive prior -0\.5$"):
            scoring.local_score(mat((1.0,), (1.0,)), spans, mat(*[(1.0,)] * 4), None, params)

    def test_attention_arity_enforced(self):
        params = scorer((1.0, 1.0), 0.0)
        with pytest.raises(ValueError, match="context feature"):
            scoring.local_score(mat((1.0,)), [span(cands=(("E", 0.5),))], mat((1.0,)),
                                vec(0.3), params)
        params3 = scorer((1.0, 1.0, 1.0), 0.0)
        with pytest.raises(ValueError, match="context feature"):
            scoring.local_score(mat((1.0,)), [span(cands=(("E", 0.5),))], mat((1.0,)), None,
                                params3)

    def test_attention_feature_enters_affine(self):
        params = scorer((0.0, 0.0, 2.0), 0.5)
        out = scoring.local_score(mat((1.0,)), [span(cands=(("E", 0.5), ("F", 0.5)))],
                                  mat((1.0,), (1.0,)), vec(0.25, -1.0), params)
        assert out.data == pytest.approx([1.0, -1.5])


def enc_from(xs, vs=None):
    return EncodedDocument(doc_id="d", v=mat(*(vs if vs is not None else xs)), x=mat(*xs))


def att_params(dim, a=None, b=None):
    p = scoring.ScorerParams(psi_w=vec(1.0, 1.0, 1.0), psi_b=scalar(0.0))
    p.att_a = ad.constant(np.ones(dim) if a is None else np.asarray(a, dtype=np.float32))
    p.att_b = ad.constant(np.ones(dim) if b is None else np.asarray(b, dtype=np.float32))
    return p


class TestLongRangeFeature:
    def test_degenerate_window(self):
        # identity diagonals, one candidate, one context word: feature = <y, x_w>
        enc = enc_from([[1.0, 2.0], [0.5, -1.0]])
        feats = scoring.long_range_feature([span(0, 0)], enc, mat((2.0, 3.0)), window=4,
                                           keep=1, params=att_params(2))
        assert feats.shape == (1,)
        assert feats.data[0] == pytest.approx(0.5 * 2.0 + -1.0 * 3.0)

    def test_equal_scores_give_uniform_beta(self):
        # all context words identical, so kept scores tie and beta is uniform
        enc = enc_from([[1.0, 0.0]] * 5)
        feats = scoring.long_range_feature([span(2, 2)], enc, mat((1.0, 0.0)), window=8,
                                           keep=2, params=att_params(2))
        # context embedding is the word vector itself under uniform weights
        assert feats.data[0] == pytest.approx(1.0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        dim = 4
        n = 12
        xs = rng.standard_normal((n, dim)).astype(np.float32)
        enc = enc_from(xs.tolist())
        a = rng.standard_normal(dim).astype(np.float32)
        b = rng.standard_normal(dim).astype(np.float32)
        ys = rng.standard_normal((3, dim)).astype(np.float32)
        sp = span(5, 6, candidates(3))
        window, keep = 8, 2
        feats = scoring.long_range_feature([sp], enc, mat(*ys), window=window, keep=keep,
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
            assert feats.data[j] == pytest.approx(float(y @ (b * c)), abs=1e-5)

    def test_informative_word_gets_max_beta(self):
        rng = np.random.default_rng(1)
        dim = 6
        xs = rng.standard_normal((12, dim)).astype(np.float32) * 0.1
        gold_dir = np.zeros(dim, dtype=np.float32)
        gold_dir[0] = 1.0
        xs[9] = gold_dir * 3.0  # exactly one context word correlates with the entity
        enc = enc_from(xs.tolist())
        feats = scoring.long_range_feature([span(4, 4)], enc, mat(gold_dir), window=12, keep=2,
                                           params=att_params(dim))
        u = {k: float(gold_dir @ xs[k]) for k in range(12) if k != 4}
        best = max(u, key=u.get)
        assert best == 9
        # the kept soft weights concentrate on that word
        assert feats.data[0] == pytest.approx(float(gold_dir @ xs[9]), rel=0.2)

    def test_window_smaller_than_keep_keeps_all(self):
        enc = enc_from([[1.0], [2.0], [3.0]])
        feats = scoring.long_range_feature([span(1, 1)], enc, mat((1.0,)), window=200,
                                           keep=10, params=att_params(1))
        assert np.isfinite(feats.data[0])

    def test_bad_window_config(self):
        enc = enc_from([[1.0]])
        with pytest.raises(ValueError, match="keep"):
            scoring.long_range_feature([span(0, 0)], enc, mat((1.0,)), window=2, keep=3,
                                       params=att_params(1))


def per_word_long_range_feature(spans, enc, y, window, keep, params):
    """Every window word as graph nodes, one per candidate, on row views of
    X and Y, ranked from the node values, span by span; the reference the
    off-graph ranking and kept-word batches of `long_range_feature` must
    match."""
    x = [ad.row(enc.x, k) for k in range(len(enc))]
    rows = iter(ad.row(y, j) for j in range(y.shape[0]))
    features = []
    for sp in spans:
        entity_vectors = [next(rows) for _ in sp.candidates]
        positions = helpers.context_window(sp, len(enc), window)
        if not positions:
            features += [ad.constant(np.asarray(0.0)) for _ in entity_vectors]
            continue
        scores = []
        for k in positions:
            ax = ad.mul(params.att_a, x[k])
            scores.append(ad.max1d(ad.stack([ad.dot(yj, ax) for yj in entity_vectors])))
        ranked = sorted(range(len(positions)),
                        key=lambda i: (-float(scores[i].data), positions[i]))
        kept = sorted(ranked[:keep])
        beta = ad.softmax(ad.stack([scores[i] for i in kept]))
        c = ad.weighted_sum([x[positions[i]] for i in kept], beta)
        bc = ad.mul(params.att_b, c)
        features += [ad.dot(yj, bc) for yj in entity_vectors]
    return ad.stack(features)


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
    x = ad.parameter(xs.astype(dtype))
    enc = EncodedDocument(doc_id="d", v=x, x=x)
    params = scoring.ScorerParams(psi_w=vec(1.0, 1.0, 1.0), psi_b=scalar(0.0))
    params.att_a = ad.parameter(rng.standard_normal(dim).astype(dtype))
    params.att_b = ad.parameter(rng.standard_normal(dim).astype(dtype))
    y = ad.parameter(rng.standard_normal((n_cands, dim)).astype(dtype))
    return [span(start, end, candidates(n_cands))], enc, y, window, keep, params


def kept_words(x):
    """Rows of X that received a gradient: the kept words."""
    return [] if x.grad is None else np.flatnonzero(x.grad.any(axis=1)).tolist()


class TestLongRangeOracle:
    """The off-graph ranking and kept-word block against the per-word graph
    they replaced."""

    @staticmethod
    def run(fn, case, weights):
        spans, enc, y, window, keep, params = case
        for t in [params.att_a, params.att_b, enc.x, y]:
            t.grad = None
        feats = fn(spans, enc, y, window, keep, params)
        ad.backward(ad.dot(ad.constant(weights), feats))
        grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                 for t in [params.att_a, params.att_b, enc.x, y]]
        return kept_words(enc.x), feats.data.copy(), grads

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_random_cases_agree(self, precision):
        rng = np.random.default_rng(11)
        clipped_left = clipped_right = all_kept = 0
        with ad.precision(precision):
            dtype = ad.default_dtype()
            for _ in range(150):
                case = attention_case(rng, dtype)
                (sp,), enc, y, window, keep, _ = case
                positions = helpers.context_window(sp, len(enc), window)
                clipped_left += sp.start - window // 2 < 0
                clipped_right += sp.end + window // 2 > len(enc) - 1
                all_kept += keep >= len(positions)
                weights = rng.standard_normal(y.shape[0]).astype(dtype)
                kept, feats, grads = self.run(scoring.long_range_feature, case, weights)
                kept_ref, feats_ref, grads_ref = self.run(per_word_long_range_feature,
                                                          case, weights)
                assert kept == kept_ref
                assert len(kept) == min(keep, len(positions))
                np.testing.assert_allclose(feats, feats_ref, rtol=0,
                                           atol=1e-9 if precision == "float64" else 1e-5)
                if precision == "float64":
                    # a gradient that is 0 in exact arithmetic (tied kept words
                    # leave softmax nothing to move) rounds to ~1e-17 in one path
                    for g, g_ref in zip(grads, grads_ref):
                        np.testing.assert_allclose(g, g_ref, rtol=1e-6, atol=1e-14)
        assert min(clipped_left, clipped_right, all_kept) >= 10

    def test_tied_scores_keep_lower_positions(self):
        # six identical words around the span: the two kept are the first two
        x = ad.parameter(np.tile([1.0, 0.0], (7, 1)))
        enc = EncodedDocument(doc_id="d", v=x, x=x)
        feats = scoring.long_range_feature([span(3, 3)], enc, mat((1.0, 0.0)), window=8,
                                           keep=2, params=att_params(2))
        ad.backward(ad.sum1d(feats))
        assert kept_words(x) == [0, 1]

    @pytest.mark.parametrize("n_cands", [1, 2])
    def test_overflow_in_dropped_word_raises(self, n_cands):
        # word 4 scores -inf against the first candidate; with keep=1 it would
        # be dropped, and the second candidate leaves its row maximum finite
        xs = [[1.0, 1.0], [0.5, 0.5], [0.2, 0.1], [1.0, 0.3], [-1e30, -1e30]]
        ys = mat(*[(1e9, 1e9), (1.0, 1.0)][:n_cands])
        with pytest.raises(FloatingPointError, match="attention word scores"):
            scoring.long_range_feature([span(0, 0, candidates(n_cands))], enc_from(xs), ys,
                                       window=10, keep=1, params=att_params(2))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            per_word_long_range_feature([span(0, 0, candidates(n_cands))], enc_from(xs), ys,
                                        window=10, keep=1, params=att_params(2))

    def test_graph_size_does_not_grow_with_window(self, monkeypatch):
        # both the nodes built by one call and those reachable from its
        # features; per-word nodes would make the first grow tenfold
        rng = np.random.default_rng(5)
        x = ad.parameter(rng.standard_normal((300, 8)))
        enc = EncodedDocument(doc_id="d", v=x, x=x)
        y = ad.parameter(rng.standard_normal((9, 8)))
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
            feats = scoring.long_range_feature([span(150, 151, candidates(9))], enc, y,
                                               window=window,
                                               keep=10, params=params)
            sizes.append((built[0], len(reachable([feats]))))
        assert sizes[0] == sizes[1]

    def test_scaled_context_follows_in_place_updates(self):
        # an in-place update of A re-ranks the window: word 1 overtakes word 0
        enc = enc_from([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        params = att_params(2, a=[1.0, 1.0], b=[1.0, 3.0])
        y = mat((1.0, 1.0))
        feats = scoring.long_range_feature([span(2, 2)], enc, y, window=4, keep=1,
                                           params=params)
        assert feats.data[0] == pytest.approx(1.0)  # the tie keeps word 0
        params.att_a.data[1] = 2.0
        feats = scoring.long_range_feature([span(2, 2)], enc, y, window=4, keep=1,
                                           params=params)
        assert feats.data[0] == pytest.approx(3.0)


def multi_span_case(rng, dtype):
    """A random document of several spans with trainable inputs. Spans draw
    their candidate lists from three shared lists; one entity id may share
    its vector with another id, and one pair may carry a row that differs
    from the other rows of its id. Half the documents draw words from a
    pool of three vectors, so scores tie. Windows are clipped at both ends,
    and a window of 1 leaves a span no context word."""
    n = int(rng.integers(1, 50))
    dim = int(rng.choice([1, 3, 8]))
    if rng.random() < 0.5:
        xs = rng.standard_normal((3, dim))[rng.integers(0, 3, size=n)]
    else:
        xs = rng.standard_normal((n, dim))
    table = rng.standard_normal((6, dim))
    table[1] = table[0]  # equal rows under different ids
    lists = [[f"E{j}" for j in rng.choice(6, size=int(rng.integers(1, 6)), replace=False)]
             for _ in range(3)]
    spans, rows = [], []
    for _ in range(int(rng.integers(1, 13))):
        start = int(rng.integers(0, n))
        ids = lists[int(rng.integers(0, 3))]
        spans.append(MentionSpan(doc_id="d", start=start,
                                 end=min(n - 1, start + int(rng.integers(0, 3))), surface="s",
                                 candidates=[CandidateEntry(e, 0.5) for e in ids]))
        rows += [table[int(e[1:])] for e in ids]
    rows = np.array(rows)
    if rng.random() < 0.3:  # a different row under an id that other pairs share
        rows[int(rng.integers(0, len(rows)))] += 1.0
    window = 1 if rng.random() < 0.15 else int(rng.integers(2, 40))
    keep = int(rng.integers(1, window + 1))
    x = ad.parameter(xs.astype(dtype))
    params = scoring.ScorerParams(psi_w=vec(1.0, 1.0, 1.0), psi_b=scalar(0.0))
    params.att_a = ad.parameter(rng.standard_normal(dim).astype(dtype))
    params.att_b = ad.parameter(rng.standard_normal(dim).astype(dtype))
    return (spans, EncodedDocument(doc_id="d", v=x, x=x), ad.parameter(rows.astype(dtype)),
            window, keep, params)


class TestLongRangeMultiSpanOracle:
    """The document-wide ranking against the per-span loop it replaced, on
    documents of many spans: the same kept words, and the same bits in the
    features and in the gradients of X, Y, A and B."""

    @staticmethod
    def run(fn, case, weights, monkeypatch):
        spans, enc, y, window, keep, params = case
        kept = []
        take_rows = ad.take_rows

        def spy(m, idx):
            if m is enc.x:
                kept.append(np.asarray(idx).tolist())
            return take_rows(m, idx)

        monkeypatch.setattr(ad, "take_rows", spy)
        for t in (enc.x, y, params.att_a, params.att_b):
            t.grad = None
        try:
            feats = fn(spans, enc, y, window, keep, params)
            ad.backward(ad.dot(ad.constant(weights), feats))
        finally:
            monkeypatch.setattr(ad, "take_rows", take_rows)
        grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                 for t in (enc.x, y, params.att_a, params.att_b)]
        return kept, feats.data.copy(), grads

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_random_documents_agree(self, precision, monkeypatch):
        rng = np.random.default_rng(23)
        seen = dict.fromkeys(["clipped_left", "clipped_right", "empty", "shared", "tied"], 0)
        with ad.precision(precision):
            dtype = ad.default_dtype()
            for _ in range(200):
                case = multi_span_case(rng, dtype)
                spans, enc, y, window, keep, _ = case
                n = len(enc)
                windows = [helpers.context_window(sp, n, window) for sp in spans]
                seen["clipped_left"] += any(sp.start < window // 2 for sp in spans)
                seen["clipped_right"] += any(sp.end + window // 2 >= n for sp in spans)
                seen["empty"] += any(not w for w in windows)
                seen["shared"] += len({tuple(c.entity_id for c in sp.candidates)
                                       for sp in spans}) < len(spans)
                seen["tied"] += len(np.unique(enc.x.data, axis=0)) < n
                weights = rng.standard_normal(y.shape[0]).astype(dtype)
                got = self.run(scoring.long_range_feature, case, weights, monkeypatch)
                ref = self.run(helpers.per_span_long_range_feature, case, weights, monkeypatch)
                assert got[0] == ref[0]
                assert got[1].tobytes() == ref[1].tobytes()
                for g, g_ref in zip(got[2], ref[2]):
                    assert g.tobytes() == g_ref.tobytes()
        assert min(seen.values()) >= 20, seen

    def test_overflow_raises_exactly_where_the_per_span_check_does(self):
        # one word blown up against one candidate vector: the per-span loop
        # raises only when that word is in the window of a span whose own
        # candidates include that vector
        rng = np.random.default_rng(29)
        outcomes = set()
        for _ in range(300):
            spans, enc, y, window, keep, params = multi_span_case(rng, np.float32)
            enc.x.data[int(rng.integers(0, len(enc)))] = 1e30
            y.data[int(rng.integers(0, y.shape[0]))] = 1e20
            results = []
            for fn in (scoring.long_range_feature, helpers.per_span_long_range_feature):
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        results.append(fn(spans, enc, y, window, keep, params).data.tobytes())
                except FloatingPointError as exc:
                    results.append(str(exc))
            assert results[0] == results[1]
            outcomes.add(results[0] == "non-finite values in attention word scores")
        assert outcomes == {True, False}

    def test_overflow_outside_every_window_is_not_read(self):
        xs = [[1.0, 1.0], [0.5, 0.5], [0.2, 0.1], [1.0, 0.3], [-1e30, -1e30]]
        ys = mat((1e9, 1e9), (1e9, 1e9))
        spans = [span(0, 0), span(1, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            feats = scoring.long_range_feature(spans, enc_from(xs), ys, window=4, keep=1,
                                               params=att_params(2))
        ref = helpers.per_span_long_range_feature(spans, enc_from(xs), ys, window=4, keep=1,
                                                  params=att_params(2))
        assert feats.data.tobytes() == ref.data.tobytes()
        with pytest.raises(FloatingPointError, match="attention word scores"):
            scoring.long_range_feature(spans + [span(3, 3)], enc_from(xs), mat(*[(1e9, 1e9)] * 3),
                                       window=4, keep=1, params=att_params(2))

    def test_spans_without_candidates_rejected(self):
        enc = enc_from([[1.0], [2.0]])
        for spans in ([], [span(0, 0, cands=())]):
            with pytest.raises(ValueError, match="each with candidates"):
                scoring.long_range_feature(spans, enc, mat((1.0,)), window=4, keep=1,
                                           params=att_params(1))


class TestFilterVoters:
    def test_very_negative_threshold_keeps_all(self):
        psi = np.array([-5.0, 0.0, 3.0])
        cfg = scoring.GlobalConfig(gamma_prime=-1e18)
        assert len(scoring.filter_voters(psi, cfg)) == 3

    def test_boundary_inclusive(self):
        voters = scoring.filter_voters(np.array([-0.1, 0.0, 0.2]),
                                       scoring.GlobalConfig(gamma_prime=0.0))
        assert voters.tolist() == [1, 2]

    def test_threshold_compared_in_64_bits(self):
        # a float32 score just below the threshold, which rounds onto it in 32 bits
        psi = np.array([0.1], dtype=np.float32)
        cfg = scoring.GlobalConfig(gamma_prime=float(psi[0]) + 1e-12)
        assert scoring.filter_voters(psi, cfg).size == 0

    def test_empty(self):
        assert scoring.filter_voters(np.zeros(0), scoring.GlobalConfig()).size == 0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        psi = rng.normal(size=20)
        sizes = [len(scoring.filter_voters(psi, scoring.GlobalConfig(gamma_prime=g)))
                 for g in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        assert sizes == sorted(sizes, reverse=True)


def voter(i, entity_id):
    """The one-token mention at position i, whose one candidate is
    `entity_id`; it votes for that candidate."""
    return span(i, i, ((entity_id, 1.0),))


def per_span_vote_vector(sp, voters, entity_tensor):
    """The entity vectors of the voting pairs from other mentions, summed
    by a scan of every voter; the reference `vote_vector` must match."""
    contributing = [v for v in voters if (v.span.start, v.span.end) != (sp.start, sp.end)]
    if not contributing:
        return None
    return ad.addn([entity_tensor(v.entity_id) for v in contributing])


class TestGlobalScore:
    @staticmethod
    def vote_of(sp, voters, table):
        """The vote `sp` gets among the voting mentions; an entity missing
        from `table` has a zero row."""
        zero = (0.0,) * len(next(iter(table.values())))
        spans = {(v.start, v.end): v for v in voters}
        spans.setdefault((sp.start, sp.end), sp)
        keys, spans = list(spans), list(spans.values())
        y = mat(*(table.get(c.entity_id, zero) for s in spans for c in s.candidates))
        first = np.cumsum([0] + [len(s.candidates) for s in spans])
        voting = [first[i] for i, s in enumerate(spans) if s in voters]
        votes = scoring.vote_vector(spans, y, np.asarray(voting, dtype=np.intp))
        return ad.row(votes, first[keys.index((sp.start, sp.end))])

    def test_closed_form(self):
        voters = [voter(1, "A"), voter(2, "B")]
        table = {"A": (1.0, 0.0), "B": (0.0, 1.0)}
        vote = self.vote_of(span(0, 0), voters, table)
        g = scoring.global_score(mat((1.0, 0.0), (0.0, 1.0)), vote)
        assert g.data == pytest.approx([0.70710, 0.70710], abs=1e-5)

    def test_self_votes_excluded(self):
        vote = self.vote_of(span(0, 0), [voter(0, "A")], {"A": (1.0, 0.0)})
        assert not vote.data.any()
        g = scoring.global_score(mat((1.0, 0.0), (0.0, 1.0)), vote)
        assert g.shape == (2,) and not g.data.any()

    def test_duplicate_entities_counted_per_mention(self):
        voters = [voter(1, "A"), voter(2, "A"), voter(3, "B")]
        table = {"A": (1.0, 0.0), "B": (0.0, 1.0)}
        vote = self.vote_of(span(0, 0), voters, table)
        assert np.allclose(vote.data, [2.0, 1.0])

    def test_four_mention_brute_force(self):
        rng = np.random.default_rng(3)
        table = {f"E{i}": tuple(rng.standard_normal(3).astype(np.float32)) for i in range(6)}
        voters = [voter(i, f"E{rng.integers(0, 6)}") for i in range(4)]
        y = np.asarray([table[f"E{i}"] for i in range(6)])
        for m in range(4):
            vote = self.vote_of(span(m, m), voters, table)
            expect = np.zeros(3)
            for v in voters:
                if v.start != m:
                    expect += np.asarray(table[v.candidates[0].entity_id])
            g = scoring.global_score(mat(*y), vote).data
            denom = np.linalg.norm(y, axis=1) * np.linalg.norm(expect)
            assert g == pytest.approx(y @ expect / denom, abs=1e-5)

    def test_g_in_range(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            y = mat(*rng.standard_normal((5, 4)))
            v = mat(*rng.standard_normal((5, 4)))
            g = scoring.global_score(y, v).data
            assert np.all(-1.0 - 1e-6 <= g) and np.all(g <= 1.0 + 1e-6)

    def test_scale_invariance_exact(self):
        # doubling all entity vectors is exact in floats and leaves G unchanged
        table = {"A": (0.3, -1.7, 0.4), "B": (2.0, 0.1, -0.6)}
        doubled = {k: tuple(2.0 * x for x in v) for k, v in table.items()}
        voters = [voter(1, "A"), voter(2, "B")]
        g1 = scoring.global_score(mat(*table.values()),
                                  self.vote_of(span(0, 0), voters, table)).data
        g2 = scoring.global_score(mat(*doubled.values()),
                                  self.vote_of(span(0, 0), voters, doubled)).data
        assert np.array_equal(g1, g2)


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


def table_votes(matrix, spans, pairs, voters):
    """Each pair's g from `vote_vector` and `global_score` on the table of
    the pairs' gathered candidate rows; `voters` indexes the voting pairs."""
    y = ad.take_rows(matrix, [int(p.entity_id[1:]) for p in pairs])
    g = scoring.global_score(y, scoring.vote_vector(spans, y, voters))
    return [ad.row(g, j) for j in range(len(pairs))]


def per_pair_votes(matrix, spans, pairs, voters):
    """Each pair's g from the per-span scan, one cosine per pair on entity
    row views."""
    rows = {}

    def y_of(eid):
        if eid not in rows:
            rows[eid] = ad.row(matrix, int(eid[1:]))
        return rows[eid]

    g = []
    for sp in spans:
        vote = per_span_vote_vector(sp, [pairs[i] for i in voters], y_of)
        for c in sp.candidates:
            g.append(ad.constant(np.asarray(0.0, dtype=ad.default_dtype())) if vote is None
                     else ad.cosine(y_of(c.entity_id), vote))
    return g


class TestVoteOracle:
    """The document sum minus own votes, over the pair table, against the
    per-span scan and per-pair cosines it replaced."""

    @staticmethod
    def voters(pairs, cfg):
        return scoring.filter_voters(np.array([p.psi for p in pairs]), cfg)

    def run(self, g_of, case, weights):
        matrix, spans, pairs, cfg = case
        matrix.grad = None
        g = g_of(matrix, spans, pairs, self.voters(pairs, cfg))
        loss = ad.dot(ad.constant(weights), ad.stack(g))
        if loss.requires_grad:
            ad.backward(loss)
        grad = np.zeros_like(matrix.data) if matrix.grad is None else matrix.grad.copy()
        return np.array([t.item() for t in g]), grad

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
                voters = [case[2][i] for i in self.voters(case[2], case[3])]
                voting_spans = {(v.span.start, v.span.end) for v in voters}
                assert len(voting_spans) == {"none": 0, "one": 1}.get(kind, len(voting_spans))
                seen[kind] += len(case[1]) > 1
                weights = rng.standard_normal(len(case[2])).astype(dtype)
                g, grad = self.run(table_votes, case, weights)
                g_ref, grad_ref = self.run(per_pair_votes, case, weights)
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
        out = scoring.combine_global(vec(0.7, -0.1), vec(0.2, 0.9), p)
        assert out.data == pytest.approx([0.7, -0.1])

    def test_identity_on_g(self):
        p = self.make((0.0, 1.0), 0.0)
        out = scoring.combine_global(vec(0.7, -0.1), vec(0.2, 0.9), p)
        assert out.data == pytest.approx([0.2, 0.9])

    def test_arithmetic(self):
        p = self.make((0.7, 0.3), -0.05)
        out = scoring.combine_global(vec(0.4), vec(0.5), p)
        assert out.data[0] == pytest.approx(0.38, abs=1e-6)
