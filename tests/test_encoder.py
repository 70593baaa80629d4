import dataclasses

import numpy as np
import pytest

import helpers
from e2el import autodiff as ad
from e2el import encoder as enc
from e2el.candidates import CandidateEntry, MentionSpan
from e2el.corpus import Document
from e2el.embeddings import CharTable, WordVectors


TOY = enc.EncoderDims(word_dim=6, char_dim=3, char_hidden=3, ctx_hidden=4,
                      entity_dim=5, dropout_keep=0.5)


def make_words(rng, dim=6, tokens=("alpha", "beta", "gamma", "delta")):
    vocab = {t: i for i, t in enumerate(tokens)}
    matrix = rng.standard_normal((len(tokens) + 1, dim)).astype(np.float32)
    return WordVectors(vocab=vocab, matrix=matrix, unk_index=len(tokens))


def make_model(seed=0, dims=TOY):
    rng = np.random.default_rng(seed)
    words = make_words(rng, dims.word_dim)
    chars = CharTable.build(list(words.vocab), dims.char_dim, rng)
    params = enc.init_encoder_params(dims, rng)
    return words, chars, params


def span_at(doc, start, end):
    return MentionSpan(doc_id=doc.doc_id, start=start, end=end,
                       surface=doc.surface(start, end),
                       candidates=[CandidateEntry("E", 1.0)])


def zero_lstm(w: ad.LstmWeights):
    for t in (w.w_x, w.w_h, w.b):
        t.data = np.zeros_like(t.data)


class TestCharEmbed:
    def test_zero_weights_give_zero_vector(self):
        words, chars, params = make_model()
        zero_lstm(params.char_fwd)
        zero_lstm(params.char_bwd)
        out = enc.char_embed(["a"], chars, params)
        assert np.allclose(out.data, 0.0)
        assert out.shape == (1, 2 * TOY.char_hidden)

    def test_word_differs_from_its_reverse(self):
        words, chars, params = make_model(seed=3)
        a = enc.char_embed(["abc"], chars, params)
        b = enc.char_embed(["cba"], chars, params)
        assert not np.allclose(a.data, b.data)

    def test_empty_word_rejected(self):
        words, chars, params = make_model()
        with pytest.raises(ValueError, match="empty word"):
            enc.char_embed([""], chars, params)
        with pytest.raises(ValueError, match="no words"):
            enc.char_embed([], chars, params)

    def test_unknown_chars_use_unknown_row(self):
        words, chars, params = make_model()
        a = enc.char_embed(["☃"], chars, params)  # not in the inventory
        b = enc.char_embed(["☄"], chars, params)
        assert np.array_equal(a.data, b.data)

    def test_rows_follow_the_word_order_across_lengths(self):
        words, chars, params = make_model(seed=4)
        batch = ["alpha", "b", "ga", "delta", "b"]
        out = enc.char_embed(batch, chars, params)
        assert out.shape == (5, 2 * TOY.char_hidden)
        for k, word in enumerate(batch):
            alone = enc.char_embed([word], chars, params).data[0]
            assert np.abs(out.data[k] - alone).max() <= 1e-6
            assert np.abs(out.data[k] - helpers.per_step_char_embed(word, chars, params).data
                          ).max() <= 1e-6

    def test_final_states_gradients_match_finite_differences(self):
        # each word's row is its last forward and first backward state, picked
        # from one packed bilstm node
        with ad.precision("float64"):
            words, chars, params = make_model(seed=6)
            probe = ad.constant(np.random.default_rng(6).normal(size=(4, 2 * TOY.char_hidden)))

            def loss():
                out = enc.char_embed(["ab", "c", "bca", "ba"], chars, params)
                return ad.sum1d(ad.dot(out, probe))

            for p in (chars.rows, params.char_fwd.w_h, params.char_bwd.w_x, params.char_bwd.b):
                assert ad.grad_check(loss, p) <= 1e-6


def random_case(seed):
    """A seeded encoder and document: 1-40 tokens of 1-15 characters, with
    repeated tokens and characters outside the char inventory."""
    rng = np.random.default_rng(seed)
    dims = enc.EncoderDims(word_dim=5, char_dim=3, char_hidden=3, ctx_hidden=4,
                           entity_dim=5, dropout_keep=0.7)
    letters = list("abcdefgh")
    vocab = ["".join(rng.choice(letters, size=int(rng.integers(1, 16)))) for _ in range(12)]
    words = WordVectors(vocab={t: i for i, t in enumerate(vocab)},
                        matrix=rng.standard_normal((len(vocab) + 1, 5)).astype(np.float32),
                        unk_index=len(vocab))
    chars = CharTable.build(["abcdef"], 3, rng)  # g and h fall on the unknown row
    params = enc.init_encoder_params(dims, rng)
    for w in (params.char_fwd, params.char_bwd, params.ctx_fwd, params.ctx_bwd):
        w.b.data = 0.5 * rng.standard_normal(w.b.shape).astype(w.b.data.dtype)
    n = int(rng.integers(1, 41))
    tokens = [vocab[i] if rng.random() < 0.8 else "xyz☃"[:int(rng.integers(1, 5))]
              for i in rng.integers(0, len(vocab), size=n)]
    probes = (rng.standard_normal((n, dims.v_dim)), rng.standard_normal((n, dims.x_dim)))
    return Document(f"r{seed}", tokens), words, chars, params, dims, probes


def fused_rows(*args, **kwargs):
    """`encode_document` as per-token row views of V and X, the shape of
    `helpers.per_step_encode_document`."""
    e = enc.encode_document(*args, **kwargs)
    return ([ad.row(e.v, k) for k in range(len(e))], [ad.row(e.x, k) for k in range(len(e))])


def encode_with_grads(encode, case, mode, grads=True):
    """(V, X, gradient per trainable tensor) of a probe loss over V and X;
    without `grads`, just (V, X). `encode` returns per-token (v, x) nodes."""
    doc, words, chars, params, dims, (probe_v, probe_x) = case
    trainable = [chars.rows] + [t for w in (params.char_fwd, params.char_bwd,
                                            params.ctx_fwd, params.ctx_bwd)
                                for t in (w.w_x, w.w_h, w.b)]
    for t in trainable:
        t.grad = None
    v, x = encode(doc, words, chars, params, dims, mode=mode, rng=np.random.default_rng(5))
    out = (np.stack([t.data for t in v]), np.stack([t.data for t in x]))
    if not grads:
        return out
    loss = ad.addn([ad.dot(t, ad.constant(p)) for rows, probe in ((v, probe_v), (x, probe_x))
                    for t, p in zip(rows, probe)])
    ad.backward(loss)
    return out + ([t.grad for t in trainable],)


class TestFusedMatchesPerStep:
    """The fused encoder against `helpers.per_step_encode_document`."""

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_float64_outputs_and_gradients(self, mode):
        worst_out, worst_grad = 0.0, 0.0
        with ad.precision("float64"):
            for seed in range(100):
                fused = encode_with_grads(fused_rows, random_case(seed), mode)
                oracle = encode_with_grads(helpers.per_step_encode_document,
                                           random_case(seed), mode)
                for a, b in zip(fused[:2], oracle[:2]):
                    worst_out = max(worst_out, float(np.abs(a - b).max()))
                for a, b in zip(fused[2], oracle[2]):
                    rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
                    worst_grad = max(worst_grad, float(rel.max()))
        assert worst_out <= 1e-9
        assert worst_grad <= 1e-6

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_float32_outputs(self, mode):
        for seed in range(100):
            fused = encode_with_grads(fused_rows, random_case(seed), mode, False)
            oracle = encode_with_grads(helpers.per_step_encode_document,
                                       random_case(seed), mode, False)
            assert fused[0].dtype == np.float32
            for a, b in zip(fused, oracle):
                assert np.abs(a - b).max() <= 1e-5

    def test_dropout_masks_are_the_per_token_draws(self):
        case = random_case(7)
        fused = encode_with_grads(fused_rows, case, "train", False)
        oracle = encode_with_grads(helpers.per_step_encode_document, case, "train", False)
        for a, b in zip(fused, oracle):
            assert np.array_equal(a == 0, b == 0)


class TestEncodeDocument:
    def test_single_token_shape(self):
        words, chars, params = make_model()
        out = enc.encode_document(Document("d", ["alpha"]), words, chars, params, TOY)
        assert len(out) == 1
        assert out.x.shape == (1, TOY.x_dim)
        assert out.v.shape == (1, TOY.v_dim)

    def test_eval_mode_deterministic(self):
        words, chars, params = make_model(seed=5)
        doc = Document("d", ["alpha", "beta", "gamma"])
        a = enc.encode_document(doc, words, chars, params, TOY, mode="eval")
        b = enc.encode_document(doc, words, chars, params, TOY, mode="eval")
        assert np.array_equal(a.x.data, b.x.data)

    def test_backward_lstm_flows_leftward(self):
        # changing the last token must change x_0
        words, chars, params = make_model(seed=7)
        a = enc.encode_document(Document("d", ["alpha", "beta", "gamma"]),
                                words, chars, params, TOY)
        b = enc.encode_document(Document("d", ["alpha", "beta", "delta"]),
                                words, chars, params, TOY)
        assert not np.allclose(a.x.data[0], b.x.data[0])

    def test_zeroed_context_lstm_localizes_mentions(self):
        # with all context-LSTM weights zeroed, x_k is zero and the mention
        # representation reduces to the span's own word-char vectors, so a
        # distant token edit cannot change it while an in-span edit does
        words, chars, params = make_model(seed=9)
        for w in (params.ctx_fwd, params.ctx_bwd):
            zero_lstm(w)
        doc_a = Document("d", ["alpha", "beta", "gamma"])
        doc_b = Document("d", ["alpha", "beta", "delta"])   # edit outside span
        doc_c = Document("d", ["alpha", "delta", "gamma"])  # edit inside span
        reprs = {}
        for key, doc in (("a", doc_a), ("b", doc_b), ("c", doc_c)):
            e = enc.encode_document(doc, words, chars, params, TOY)
            assert np.allclose(e.x.data[0], 0.0)
            reprs[key] = enc.mention_repr([span_at(doc, 0, 1)], e, params).data
        assert np.array_equal(reprs["a"], reprs["b"])
        assert not np.allclose(reprs["a"], reprs["c"])

    def test_empty_document_rejected(self):
        words, chars, params = make_model()
        doc = Document("d", ["x"])
        doc.tokens = []
        with pytest.raises(ValueError):
            enc.encode_document(doc, words, chars, params, TOY)

    def test_train_mode_needs_rng(self):
        words, chars, params = make_model()
        with pytest.raises(ValueError, match="rng"):
            enc.encode_document(Document("d", ["alpha"]), words, chars, params, TOY,
                                mode="train")

    def test_token_cap(self):
        words, chars, params = make_model()
        dims = enc.EncoderDims(word_dim=6, char_dim=3, char_hidden=3, ctx_hidden=4,
                               entity_dim=5, max_tokens=2)
        with pytest.raises(ValueError, match="cap"):
            enc.encode_document(Document("d", ["a", "b", "c"]), words, chars, params, dims)

    def test_graph_size_is_linear_in_tokens(self, monkeypatch):
        # a handful of nodes per distinct token length, none per token
        words, chars, params = make_model(seed=12)
        rng = np.random.default_rng(12)
        tokens = ["".join(rng.choice(list("abcdefg"), size=int(rng.integers(1, 13))))
                  for _ in range(200)]
        lengths = len({len(t) for t in tokens})
        built = [0]
        init = ad.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        enc.encode_document(Document("d", tokens), words, chars, params, TOY, mode="train",
                            rng=np.random.default_rng(0))
        assert built[0] <= 8 * lengths + 20

    def test_long_document_outputs_finite(self):
        words, chars, params = make_model(seed=11)
        tokens = ["alpha", "beta", "gamma", "delta"] * 2500
        out = enc.encode_document(Document("d", tokens), words, chars, params, TOY)
        assert len(out) == 10_000
        assert np.isfinite(out.x.data).all()


def heads(spans, e, params):
    """The soft heads `mention_repr` builds for `spans`, one row per span:
    its output under a projection that keeps the head part of
    [x_start; x_end; head]."""
    x_dim, v_dim = e.x.shape[1], e.v.shape[1]
    select = np.hstack([np.zeros((v_dim, 2 * x_dim)), np.eye(v_dim)])
    keep_head = dataclasses.replace(params, proj_w=ad.constant(select),
                                    proj_b=ad.constant(np.zeros(v_dim)))
    return enc.mention_repr(spans, e, keep_head)


class TestSoftHead:
    def test_single_token_span_returns_v(self):
        words, chars, params = make_model(seed=13)
        doc = Document("d", ["alpha", "beta"])
        e = enc.encode_document(doc, words, chars, params, TOY)
        head = heads([span_at(doc, 1, 1)], e, params)
        assert np.allclose(head.data, e.v.data[1])

    def test_zero_attention_is_uniform_average(self):
        words, chars, params = make_model(seed=15)
        params.attn_w.data = np.zeros_like(params.attn_w.data)
        doc = Document("d", ["alpha", "beta", "gamma"])
        e = enc.encode_document(doc, words, chars, params, TOY)
        head = heads([span_at(doc, 0, 2)], e, params)
        mean = (e.v.data[0] + e.v.data[1] + e.v.data[2]) / 3.0
        assert np.allclose(head.data, mean, atol=1e-6)

    def test_hand_computed_weighted_sum(self):
        words, chars, params = make_model(seed=17)
        doc = Document("d", ["alpha", "beta"])
        e = enc.encode_document(doc, words, chars, params, TOY)
        head = heads([span_at(doc, 0, 1)], e, params)
        # independent evaluation of the attention formula
        a0 = float(params.attn_w.data @ e.x.data[0])
        a1 = float(params.attn_w.data @ e.x.data[1])
        m = max(a0, a1)
        w0 = np.exp(a0 - m) / (np.exp(a0 - m) + np.exp(a1 - m))
        expect = w0 * e.v.data[0] + (1 - w0) * e.v.data[1]
        assert np.allclose(head.data, expect, atol=1e-5)

    def test_weights_sum_to_one_and_shift_invariant(self):
        words, chars, params = make_model(seed=19)
        doc = Document("d", ["alpha", "beta", "gamma"])
        e = enc.encode_document(doc, words, chars, params, TOY)
        head1 = heads([span_at(doc, 0, 2)], e, params)
        # adding a constant to every logit happens when attn_w gets a shift
        # along a direction constant across x_k; emulate by direct check on
        # softmax instead
        logits = ad.constant(np.array([1.0, 2.0, 3.0]))
        w = ad.softmax(logits).data
        w2 = ad.softmax(ad.constant(np.array([11.0, 12.0, 13.0]))).data
        assert abs(w.sum() - 1.0) <= 1e-6
        assert np.allclose(w, w2, atol=1e-6)
        assert np.isfinite(head1.data).all()

    def test_length_batches_match_per_span_heads(self):
        # spans of every length 1-6 out of length order, so that the batches
        # must be put back in span order; values and gradients against the
        # per-span oracle
        rng = np.random.default_rng(29)
        with ad.precision("float64"):
            _, _, params = make_model(seed=29)
            params.attn_w = ad.parameter(rng.standard_normal(TOY.x_dim))
            e = enc.EncodedDocument("d", v=ad.parameter(rng.standard_normal((9, TOY.v_dim))),
                                    x=ad.parameter(rng.standard_normal((9, TOY.x_dim))))
            doc = Document("d", ["w"] * 9)
            spans = []
            for length in (3, 1, 6, 2, 1, 5, 4, 3):
                start = int(rng.integers(0, 10 - length))
                spans.append(span_at(doc, start, start + length - 1))
            probe = rng.standard_normal((len(spans), TOY.v_dim))

            def run(head_rows):
                for t in (params.attn_w, e.v, e.x):
                    t.grad = None
                rows = head_rows()
                ad.backward(ad.addn([ad.dot(row, ad.constant(p)) for row, p in zip(rows, probe)]))
                return ([row.data for row in rows],
                        [t.grad.copy() for t in (params.attn_w, e.v, e.x)])

            table, grads = run(lambda: [ad.row(heads(spans, e, params), i)
                                        for i in range(len(spans))])
            oracle, grads_ref = run(lambda: [helpers.soft_head(sp, e, params) for sp in spans])
        np.testing.assert_allclose(table, oracle, rtol=0, atol=1e-12)
        for g, g_ref in zip(grads, grads_ref):
            np.testing.assert_allclose(g, g_ref, rtol=1e-9, atol=1e-12)


class TestMentionRepr:
    def test_zero_projection_gives_zero(self):
        words, chars, params = make_model(seed=21)
        params.proj_w.data = np.zeros_like(params.proj_w.data)
        params.proj_b.data = np.zeros_like(params.proj_b.data)
        doc = Document("d", ["alpha", "beta"])
        e = enc.encode_document(doc, words, chars, params, TOY)
        out = enc.mention_repr([span_at(doc, 0, 1)], e, params)
        assert np.allclose(out.data, 0.0)
        assert out.shape == (1, TOY.entity_dim)

    def test_single_token_concat_structure(self):
        words, chars, params = make_model(seed=23)
        doc = Document("d", ["alpha", "beta"])
        e = enc.encode_document(doc, words, chars, params, TOY)
        span = span_at(doc, 1, 1)
        head = heads([span], e, params)
        g = np.concatenate([e.x.data[1], e.x.data[1], e.v.data[1]])
        assert np.allclose(head.data, e.v.data[1])
        expect = params.proj_w.data @ g + params.proj_b.data
        out = enc.mention_repr([span], e, params)
        assert np.allclose(out.data, expect, atol=1e-5)

    def test_dimension_mismatch(self):
        words, chars, params = make_model(seed=25)
        params.proj_w = ad.parameter(np.zeros((TOY.entity_dim, TOY.g_dim + 1)))
        doc = Document("d", ["alpha"])
        e = enc.encode_document(doc, words, chars, params, TOY)
        with pytest.raises(ValueError, match="projection"):
            enc.mention_repr([span_at(doc, 0, 0)], e, params)

    def test_gradient_wrt_attention_vector(self):
        rng = np.random.default_rng(27)
        with ad.precision("float64"):
            dims = enc.EncoderDims(word_dim=4, char_dim=2, char_hidden=2, ctx_hidden=3,
                                   entity_dim=4)
            words = make_words(rng, 4, tokens=("aa", "bb", "cc"))
            chars = CharTable.build(["aa", "bb", "cc"], 2, rng)
            params = enc.init_encoder_params(dims, rng)
            doc = Document("d", ["aa", "bb", "cc"])
            probe = ad.constant(rng.standard_normal(4))

            def loss():
                e = enc.encode_document(doc, words, chars, params, dims)
                return ad.dot(ad.row(enc.mention_repr([span_at(doc, 0, 1)], e, params), 0),
                              probe)

            assert ad.grad_check(loss, params.attn_w) <= 1e-4
