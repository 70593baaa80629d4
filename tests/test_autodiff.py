import gc

import numpy as np
import pytest

import helpers
from e2el import autodiff as ad


def f64(x):
    return np.asarray(x, dtype=np.float64)


class TestMatmul:
    def test_identity(self):
        a = ad.constant(np.eye(2))
        b = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(ad.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_projector_row(self):
        a = ad.constant([[1.0, 0.0], [0.0, 0.0]])
        b = ad.constant([[5.0, 6.0], [7.0, 8.0]])
        assert np.allclose(ad.matmul(a, b).data, [[5, 6], [0, 0]])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        with ad.precision("float64"):
            a = ad.parameter(rng.normal(size=(3, 4)))
            b = ad.parameter(rng.normal(size=(4, 2)))
            w = ad.constant(rng.normal(size=(3, 2)))

            def loss():
                prod = ad.matmul(a, b)
                terms = [ad.dot(ad.row(prod, i), ad.row(w, i)) for i in range(3)]
                return ad.addn(terms)

            assert ad.grad_check(loss, a) <= 1e-4
            assert ad.grad_check(loss, b) <= 1e-4


class TestLstmCell:
    def zero_weights(self, d_in, h):
        z = lambda *s: ad.constant(np.zeros(s))
        return ad.LstmWeights(w_x=z(4 * h, d_in), w_h=z(4 * h, h), b=z(4 * h))

    def test_zero_weight_fixpoint(self):
        w = self.zero_weights(3, 2)
        h, c = ad.lstm_cell(ad.constant(np.ones(3)), ad.constant(np.zeros(2)),
                            ad.constant(np.zeros(2)), w)
        assert np.allclose(h.data, 0) and np.allclose(c.data, 0)

    def test_zero_weights_carry_cell(self):
        # all gates are sigmoid(0) = 0.5, candidate tanh(0) = 0
        w = self.zero_weights(3, 2)
        h, c = ad.lstm_cell(ad.constant(np.ones(3)), ad.constant(np.zeros(2)),
                            ad.constant(np.ones(2)), w)
        assert np.allclose(c.data, 0.5)
        assert np.allclose(h.data, 0.5 * np.tanh(0.5))

    def test_dim_mismatch(self):
        w = self.zero_weights(3, 2)
        with pytest.raises(ValueError):
            ad.lstm_cell(ad.constant(np.ones(4)), ad.constant(np.zeros(2)),
                         ad.constant(np.zeros(2)), w)

    def test_unrolled_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        with ad.precision("float64"):
            w = ad.init_lstm(3, 2, rng)
            xs = [ad.constant(rng.normal(size=3)) for _ in range(3)]
            probe = ad.constant(rng.normal(size=2))

            def loss():
                h = ad.constant(np.zeros(2))
                c = ad.constant(np.zeros(2))
                for x in xs:
                    h, c = ad.lstm_cell(x, h, c, w)
                return ad.dot(h, probe)

            for p in (w.w_x, w.w_h, w.b):
                assert ad.grad_check(loss, p) <= 1e-4


class TestLstmSequence:
    """`helpers.lstm_sequence`, the one-direction oracle for `ad.bilstm`,
    against chained `lstm_cell`s."""

    def per_step(self, xs, w, reverse):
        """Hidden states from chained `lstm_cell`s, in input order."""
        h = ad.constant(np.zeros(w.hidden))
        c = ad.constant(np.zeros(w.hidden))
        out = [None] * len(xs)
        for t in (reversed(range(len(xs))) if reverse else range(len(xs))):
            h, c = ad.lstm_cell(ad.constant(xs[t]), h, c, w)
            out[t] = h.data
        return np.stack(out)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_chained_cells(self, reverse):
        rng = np.random.default_rng(2)
        with ad.precision("float64"):
            w = ad.init_lstm(3, 4, rng)
            w.b.data = rng.normal(size=w.b.shape)
            xs = rng.normal(size=(6, 2, 3))
            out = helpers.lstm_sequence(ad.constant(xs), w, reverse=reverse)
            single = helpers.lstm_sequence(ad.constant(xs[:, 1]), w, reverse=reverse)
            assert out.shape == (6, 2, 4) and single.shape == (6, 4)
            for b in range(2):
                assert np.abs(out.data[:, b] - self.per_step(xs[:, b], w, reverse)).max() <= 1e-12
            assert np.abs(single.data - out.data[:, 1]).max() <= 1e-12

    def test_reverse_entry_zero_sees_whole_sequence(self):
        rng = np.random.default_rng(3)
        w = ad.init_lstm(2, 3, rng)
        xs = rng.normal(size=(4, 2))
        edited = xs.copy()
        edited[-1] += 1.0
        a = helpers.lstm_sequence(ad.constant(xs), w, reverse=True).data
        b = helpers.lstm_sequence(ad.constant(edited), w, reverse=True).data
        assert not np.allclose(a[0], b[0])
        fa = helpers.lstm_sequence(ad.constant(xs), w).data
        fb = helpers.lstm_sequence(ad.constant(edited), w).data
        assert np.array_equal(fa[:-1], fb[:-1])

    def test_dim_mismatch(self):
        w = ad.init_lstm(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="inconsistent"):
            helpers.lstm_sequence(ad.constant(np.ones((5, 4))), w)
        with pytest.raises(ValueError, match="input expected"):
            helpers.lstm_sequence(ad.constant(np.ones(3)), w)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("shape", [(5, 3), (5, 1, 3), (4, 3, 3)])
    def test_gradients_match_finite_differences(self, reverse, shape):
        rng = np.random.default_rng(4)
        with ad.precision("float64"):
            w = ad.init_lstm(3, 2, rng)
            w.b.data = rng.normal(size=w.b.shape)
            x = ad.parameter(rng.normal(size=shape))
            probe = ad.constant(rng.normal(size=shape[:-1] + (2,)))

            def loss():
                out = helpers.lstm_sequence(x, w, reverse=reverse)
                return _total(ad.mul(out, probe))

            for p in (x, w.w_x, w.w_h, w.b):
                err = ad.grad_check(loss, p)
                assert err <= 1e-6, f"{p.op} {shape} reverse={reverse}: {err}"


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_two_branch_formula(self, dtype):
        rng = np.random.default_rng(5)
        tiny = np.finfo(dtype).smallest_subnormal
        specials = [0.0, -0.0, 80.0, -80.0, 1e30, -1e30, np.inf, -np.inf, np.nan, -np.nan,
                    tiny, -tiny, 3 * tiny, -3 * tiny, np.finfo(dtype).tiny / 2]
        wide = rng.normal(scale=4.0, size=(2, 112, 200))  # a char-gate block
        blocks = [np.concatenate([rng.normal(scale=s, size=500) for s in (0.1, 1.0, 10.0, 100.0)]
                                 + [np.array(specials, dtype=dtype)]), wide]
        for d in (block.astype(dtype) for block in blocks):
            got = ad._sigmoid(d)
            want = helpers.reference_sigmoid(d)
            assert got.dtype == want.dtype == dtype
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_writes_in_place(self):
        d = np.array([[-3.0, 0.0], [2.0, -0.5]], dtype=np.float32)
        want = helpers.reference_sigmoid(d)
        assert ad._sigmoid(d, out=d) is d
        assert np.array_equal(d, want)


class TestBilstm:
    """`helpers.reference_bilstm`, the oracle for `ad.bilstm`, against the
    two-call oracle `helpers.two_call_bilstm`, which joins one
    `helpers.lstm_sequence` node per direction; and `ad.bilstm`'s checks
    and finite differences."""

    @staticmethod
    def run(bilstm, x, fwd, bwd, probe):
        """The output, and the gradients of x and of every weight, of the
        probed sum of `bilstm`'s output plus a sum of tanh(x), so that x's
        gradient adds up three terms, whose order decides its last bits."""
        tensors = (x, fwd.w_x, fwd.w_h, fwd.b, bwd.w_x, bwd.w_h, bwd.b)
        for t in tensors:
            t.grad = None
        out = bilstm(x, fwd, bwd)
        ad.backward(ad.addn([_total(ad.tanh(x)), _total(ad.mul(out, probe))]))
        return out.data, [t.grad for t in tensors]

    @pytest.mark.parametrize("trainable", [True, False])
    @pytest.mark.parametrize("shape", [(5, 3), (6, 2, 3), (1, 3), (1, 4, 3), (4, 1, 3)])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_matches_two_call_oracle(self, precision, shape, trainable):
        rng = np.random.default_rng(6)
        with ad.precision(precision):
            fwd, bwd = ad.init_lstm(3, 4, rng), ad.init_lstm(3, 4, rng)
            for w in (fwd, bwd):
                w.b.data = rng.normal(size=w.b.shape).astype(w.b.data.dtype)
            x = (ad.parameter if trainable else ad.constant)(rng.normal(size=shape))
            probe = ad.constant(rng.normal(size=shape[:-1] + (8,)))
            out, grads = self.run(helpers.reference_bilstm, x, fwd, bwd, probe)
            want, want_grads = self.run(helpers.two_call_bilstm, x, fwd, bwd, probe)
        assert out.shape == shape[:-1] + (8,) and out.dtype == want.dtype
        assert np.array_equal(out, want)
        assert (grads[0] is None) == (not trainable)
        for got, expected in zip(grads, want_grads):
            assert (got is None and expected is None) or np.array_equal(got, expected)

    def test_shared_weights_match_two_call_oracle(self):
        rng = np.random.default_rng(7)
        w = ad.init_lstm(3, 2, rng)
        x = ad.parameter(rng.normal(size=(4, 2, 3)))
        probe = ad.constant(rng.normal(size=(4, 2, 4)))
        out, grads = self.run(helpers.reference_bilstm, x, w, w, probe)
        want, want_grads = self.run(helpers.two_call_bilstm, x, w, w, probe)
        assert np.array_equal(out, want)
        for got, expected in zip(grads, want_grads):
            assert np.array_equal(got, expected)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(0)
        fwd, bwd = ad.init_lstm(3, 2, rng), ad.init_lstm(4, 2, rng)
        with pytest.raises(ValueError, match="bilstm: weight dims .* inconsistent"):
            ad.bilstm(ad.constant(np.ones((5, 3))), fwd, bwd)
        with pytest.raises(ValueError, match="bilstm: .* input expected"):
            ad.bilstm(ad.constant(np.ones(3)), fwd, fwd)

    @pytest.mark.parametrize("shape", [(5, 3), (4, 3, 3)])
    def test_gradients_match_finite_differences(self, shape):
        rng = np.random.default_rng(8)
        with ad.precision("float64"):
            fwd, bwd = ad.init_lstm(3, 2, rng), ad.init_lstm(3, 2, rng)
            for w in (fwd, bwd):
                w.b.data = rng.normal(size=w.b.shape)
            x = ad.parameter(rng.normal(size=shape))
            probe = ad.constant(rng.normal(size=shape[:-1] + (4,)))

            def loss():
                return _total(ad.mul(ad.bilstm(x, fwd, bwd), probe))

            for p in (x, fwd.w_x, fwd.w_h, fwd.b, bwd.w_x, bwd.w_h, bwd.b):
                err = ad.grad_check(loss, p)
                assert err <= 1e-6, f"{p.op} {shape}: {err}"


def _assert_close(got, want, precision, outputs=1):
    """The first `outputs` arrays are outputs, within 1e-9 in float64, the
    rest gradients, within 1e-6 of their larger magnitude; all within 1e-5
    in float32."""
    for k, (a, b) in enumerate(zip(got, want)):
        if a is None or b is None:
            assert a is None and b is None
            continue
        assert a.shape == b.shape and a.dtype == b.dtype
        err = np.abs(a - b)
        if precision == "float32":
            assert err.max() <= 1e-5
        elif k < outputs:
            assert err.max() <= 1e-9
        else:
            assert (err / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)).max() <= 1e-6


class TestGateMajorBilstm:
    """`ad.bilstm` against `helpers.reference_bilstm`, on TestBilstm's cases."""

    @pytest.mark.parametrize("trainable", [True, False])
    @pytest.mark.parametrize("shape", [(5, 3), (6, 2, 3), (1, 3), (1, 4, 3), (4, 1, 3)])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_matches_reference(self, precision, shape, trainable):
        rng = np.random.default_rng(6)
        with ad.precision(precision):
            fwd, bwd = ad.init_lstm(3, 4, rng), ad.init_lstm(3, 4, rng)
            for w in (fwd, bwd):
                w.b.data = rng.normal(size=w.b.shape).astype(w.b.data.dtype)
            x = (ad.parameter if trainable else ad.constant)(rng.normal(size=shape))
            probe = ad.constant(rng.normal(size=shape[:-1] + (8,)))
            out, grads = TestBilstm.run(ad.bilstm, x, fwd, bwd, probe)
            want, want_grads = TestBilstm.run(helpers.reference_bilstm, x, fwd, bwd, probe)
        assert (grads[0] is None) == (not trainable)
        _assert_close([out] + grads, [want] + want_grads, precision)

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_shared_weights_match_reference(self, precision):
        rng = np.random.default_rng(7)
        with ad.precision(precision):
            w = ad.init_lstm(3, 2, rng)
            x = ad.parameter(rng.normal(size=(4, 2, 3)))
            probe = ad.constant(rng.normal(size=(4, 2, 4)))
            out, grads = TestBilstm.run(ad.bilstm, x, w, w, probe)
            want, want_grads = TestBilstm.run(helpers.reference_bilstm, x, w, w, probe)
        _assert_close([out] + grads, [want] + want_grads, precision)

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_equals_derived_weights_kernel(self, precision):
        # halving the projection in place of the weights is exact: the
        # outputs and every gradient are those of the kernel that derived
        # halved, reordered weights per call, bit for bit
        rng = np.random.default_rng(61)
        with ad.precision(precision):
            for case in range(60):
                d, h, steps = (int(v) for v in rng.integers(1, [13, 11, 9]))
                kind = ("lone", "batch", "packed")[case % 3]
                batch = int(rng.integers(1, 6))
                shape = (steps, d) if kind == "lone" else (steps, batch, d)
                lengths = rng.integers(1, steps + 1, size=batch) if kind == "packed" else None
                fwd, bwd = ad.init_lstm(d, h, rng), ad.init_lstm(d, h, rng)
                for w in (fwd, bwd):
                    w.b.data = rng.normal(size=w.b.shape).astype(w.b.data.dtype)
                x = ad.parameter(rng.normal(size=shape))
                probe = ad.constant(rng.normal(size=shape[:-1] + (2 * h,)))
                runs = [TestBilstm.run(lambda *a, fn=fn: fn(*a, lengths=lengths), x, fwd, bwd,
                                       probe)
                        for fn in (ad.bilstm, helpers.derived_weights_bilstm)]
                (out, grads), (want, want_grads) = runs
                assert out.dtype == want.dtype and np.array_equal(out, want)
                for got, expected in zip(grads, want_grads):
                    assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_weights_are_read_afresh_in_every_call(self):
        rng = np.random.default_rng(8)
        fwd, bwd = ad.init_lstm(3, 2, rng), ad.init_lstm(3, 2, rng)
        x = ad.constant(rng.normal(size=(5, 3)))
        before = ad.bilstm(x, fwd, bwd).data
        for t in (fwd.w_x, fwd.w_h, fwd.b, bwd.w_x, bwd.w_h, bwd.b):
            t.data += 0.25  # in place, as Adam updates them
            assert not np.array_equal(ad.bilstm(x, fwd, bwd).data, before)
            before = ad.bilstm(x, fwd, bwd).data
        want = helpers.reference_bilstm(x, fwd, bwd).data
        assert np.abs(before - want).max() <= 1e-5


class TestPackedBilstm:
    """`ad.bilstm` with `lengths`: each sequence of a right-padded batch
    against its own unpadded call."""

    @staticmethod
    def case(lengths, d=3, h=4, seed=9):
        rng = np.random.default_rng(seed)
        fwd, bwd = ad.init_lstm(d, h, rng), ad.init_lstm(d, h, rng)
        for w in (fwd, bwd):
            w.b.data = rng.normal(size=w.b.shape).astype(w.b.data.dtype)
        shape = (max(lengths), len(lengths))
        x = ad.parameter(rng.normal(size=shape + (d,)))
        probe = ad.constant(rng.normal(size=shape + (2 * h,)))
        return x, fwd, bwd, probe

    @pytest.mark.parametrize("lengths", [[1, 6, 3, 3, 6, 2, 4, 5],  # 1 to T, with ties
                                         [9, 1, 2, 1, 2],  # one long outlier
                                         [1], [2, 1]])
    def test_each_sequence_matches_its_own_call(self, lengths):
        with ad.precision("float64"):
            x, fwd, bwd, probe = self.case(lengths)
            out, grads = TestBilstm.run(
                lambda *a: ad.bilstm(*a, lengths=np.array(lengths)), x, fwd, bwd, probe)
            steps = np.arange(x.shape[0])[:, None]
            padding = steps >= np.array(lengths)
            assert out.shape == probe.shape
            assert not out[padding].any()
            # the padding rows of x get only the gradient of the tanh term
            assert np.array_equal(grads[0][padding], 1.0 - np.tanh(x.data[padding]) ** 2)
            weight_grads = [np.zeros_like(g) for g in grads[1:]]
            for b, n in enumerate(lengths):
                xb = ad.parameter(x.data[:n, b])
                own, own_grads = TestBilstm.run(ad.bilstm, xb, fwd, bwd,
                                                ad.constant(probe.data[:n, b]))
                _assert_close([out[:n, b], grads[0][:n, b]], [own, own_grads[0]], "float64")
                for total, g in zip(weight_grads, own_grads[1:]):
                    total += g
            _assert_close(grads[1:], weight_grads, "float64", outputs=0)

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_equal_lengths_equal_the_unpadded_batch(self, precision):
        with ad.precision(precision):
            x, fwd, bwd, probe = self.case([5, 5, 5])
            out, grads = TestBilstm.run(ad.bilstm, x, fwd, bwd, probe)
            packed, packed_grads = TestBilstm.run(
                lambda *a: ad.bilstm(*a, lengths=[5, 5, 5]), x, fwd, bwd, probe)
        assert np.array_equal(packed, out)
        for got, want in zip(packed_grads, grads):
            assert np.array_equal(got, want)

    def test_gradients_match_finite_differences(self):
        with ad.precision("float64"):
            x, fwd, bwd, probe = self.case([3, 1, 4, 3], h=2)

            def loss():
                return _total(ad.mul(ad.bilstm(x, fwd, bwd, lengths=[3, 1, 4, 3]), probe))

            for p in (x, fwd.w_x, fwd.w_h, fwd.b, bwd.w_x, bwd.w_h, bwd.b):
                err = ad.grad_check(loss, p)
                assert err <= 1e-6, f"{p.op}: {err}"

    def test_bad_lengths_rejected(self):
        x, fwd, bwd, _ = self.case([3, 2])
        for lengths, problem in [([3], r"shape \(1,\) for a batch of 2"),
                                 ([3, 2, 1], r"shape \(3,\) for a batch of 2"),
                                 ([[3, 2]], r"shape \(1, 2\) for a batch of 2"),
                                 ([0, 2], r"in \[1, 3\], got 0\.\.2"),
                                 ([3, 4], r"in \[1, 3\], got 3\.\.4"),
                                 ([3, -1], r"in \[1, 3\]"),
                                 ([3.0, 2.0], "integers, got float64"),
                                 ([True, True], "integers, got bool")]:
            with pytest.raises(ValueError, match=f"bilstm: .*{problem}"):
                ad.bilstm(x, fwd, bwd, lengths=lengths)
        with pytest.raises(ValueError, match=r"bilstm: lengths need a \(T, B, d\) input"):
            ad.bilstm(ad.constant(np.ones((3, 3))), fwd, bwd, lengths=[3])


class TestTakeRowsByTuple:
    """`take_rows` with a tuple of index arrays over the leading axes."""

    def test_picks_and_scatters_back(self):
        m = ad.parameter(np.arange(24.0).reshape(2, 3, 4))
        steps = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0]])
        p = ad.take_rows(m, (steps, np.array([[0], [1], [0]]), np.arange(4)))
        assert np.array_equal(p.data, [[12, 13, 2, 3], [4, 5, 18, 19], [12, 13, 2, 3]])
        ad.backward(_total(p))
        want = np.zeros((2, 3, 4))
        want[1, 0, :2] = want[0, 0, 2:] = 2.0  # picked twice, added up
        want[0, 1, :2] = want[1, 1, 2:] = 1.0
        assert np.array_equal(m.grad, want)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        with ad.precision("float64"):
            m = ad.parameter(rng.normal(size=(3, 2, 4)))
            probe = ad.constant(rng.normal(size=(5, 4)))
            rows = (np.array([2, 0, 2, 1, 0]), np.array([1, 0, 1, 1, 0]))

            def loss():
                return _total(ad.mul(ad.tanh(ad.take_rows(m, rows)), probe))

            assert ad.grad_check(loss, m) <= 1e-6

    def test_bad_indices_rejected(self):
        m = ad.constant(np.zeros((2, 3)))
        for idx in ((np.array([2]), np.array([0])), (np.array([0]), np.array([3])),
                    (np.array([0]), np.array([0]), np.array([0]))):
            with pytest.raises(ValueError, match="take_rows"):
                ad.take_rows(m, idx)


def _total(t):
    """Sum of every entry of a tensor of any rank, as a scalar node."""
    while t.data.ndim > 1:
        t = ad.addn([ad.row(t, k) for k in range(t.shape[0])])
    return ad.sum1d(t)


class TestGatherOps:
    def test_take_rows_repeated_indices_sum(self):
        with ad.precision("float64"):
            m = ad.parameter(np.arange(12.0).reshape(4, 3))
            idx = np.array([[2, 0], [2, 2]])
            out = ad.take_rows(m, idx)
            assert out.shape == (2, 2, 3)
            assert np.array_equal(out.data[1, 1], m.data[2])
            ad.backward(_total(out))
            assert np.array_equal(m.grad[:, 0], [1.0, 0.0, 3.0, 0.0])

    def test_take_rows_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ad.take_rows(ad.constant(np.zeros((2, 3))), [0, 2])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        with ad.precision("float64"):
            m = ad.parameter(rng.normal(size=(4, 3)))
            a = ad.parameter(rng.normal(size=(2, 3)))
            cube = ad.parameter(rng.normal(size=(3, 2, 4)))
            p23 = ad.constant(rng.normal(size=(3, 2, 3)))
            p26 = ad.constant(rng.normal(size=(2, 6)))
            p56 = ad.constant(rng.normal(size=(5, 3)))
            p24 = ad.constant(rng.normal(size=(2, 4)))
            builders = {
                "take_rows": lambda: _total(ad.mul(
                    ad.take_rows(m, [[1, 1], [3, 1], [0, 1]]), p23)),
                "concat last axis": lambda: _total(ad.mul(
                    ad.concat([ad.take_rows(m, [0, 3]), a]), p26)),
                "concat rows": lambda: _total(ad.mul(
                    ad.concat([a, ad.take_rows(m, [0, 1, 2])], axis=0), p56)),
                "row of 3-d": lambda: _total(ad.mul(ad.row(cube, 2), p24)),
            }
            for name, build in builders.items():
                for p in (m, a, cube):
                    err = ad.grad_check(build, p)
                    assert err <= 1e-6, f"{name} wrt {p.shape}: {err}"

    def test_row_backward_adds_in_place(self):
        with ad.precision("float64"):
            m = ad.parameter(np.zeros((3, 2)))
            views = [ad.row(m, k) for k in (0, 2, 2)]
            ad.backward(ad.addn([ad.sum1d(v) for v in views]))
            assert np.array_equal(m.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])


    def test_take_rows_backward_adds_in_place(self, monkeypatch):
        # k gathers from one matrix allocate its gradient once, not once each
        allocated = []
        zeros_like = np.zeros_like

        def counting_zeros_like(a, *args, **kwargs):
            allocated.append(np.shape(a))
            return zeros_like(a, *args, **kwargs)

        m = ad.parameter(np.zeros((50, 4)))
        gathers = [ad.take_rows(m, [k, k + 1, k]) for k in range(10)]
        monkeypatch.setattr(np, "zeros_like", counting_zeros_like)
        ad.backward(ad.addn([_total(g) for g in gathers]))
        assert allocated.count((50, 4)) == 1
        assert m.grad[:12, 0].tolist() == [2.0] + [3.0] * 9 + [1.0, 0.0]


class TestScatterAdd:
    """`take_rows`' backward, one fancy-indexed add per occurrence rank,
    against `np.add.at`: the same bits for any index and existing gradient."""

    @staticmethod
    def index(rng, n_rows):
        size = int(rng.choice([0, 1, 5, 40, 300]))
        if rng.random() < 0.3:  # few rows, each repeated up to ~60 times
            idx = rng.integers(0, min(n_rows, 5), size=size)
        else:
            idx = rng.integers(0, n_rows, size=size)
        if rng.random() < 0.5:
            idx = np.sort(idx)  # as the pair→span gather has it
        if size and size % 5 == 0 and rng.random() < 0.5:
            idx = idx.reshape(5, -1)  # a batch of row blocks, as attention gathers
        return idx

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_indexes_agree(self, dtype):
        rng = np.random.default_rng(31)
        most = 0
        for _ in range(400):
            n_rows = int(rng.integers(1, 30))
            shape = (n_rows,) + tuple(int(k) for k in rng.integers(1, 5, size=rng.integers(0, 3)))
            idx = self.index(rng, n_rows)
            g = rng.standard_normal(idx.shape + shape[1:]).astype(dtype)
            g[rng.random(g.shape) < 0.1] = -0.0
            t = ad.Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
            if rng.random() < 0.5:
                t.grad = rng.standard_normal(shape).astype(dtype)
                t.grad[rng.random(shape) < 0.2] = -0.0
            expect = np.zeros(shape, dtype=dtype) if t.grad is None else t.grad.copy()
            np.add.at(expect, idx, g)
            ad._accumulate(t, g, at=idx)
            assert t.grad.tobytes() == expect.tobytes()
            if idx.size:
                most = max(most, np.bincount(idx.reshape(-1)).max())
        assert most >= 60

    def test_wider_gradient_into_narrower_slot(self):
        # a float64 gradient into a float32 slot rounds as np.add.at rounds it
        rng = np.random.default_rng(37)
        idx = rng.integers(0, 4, size=50)
        g = rng.standard_normal((50, 3))
        t = ad.Tensor(np.zeros((4, 3), dtype=np.float32), requires_grad=True)
        t.grad = rng.standard_normal((4, 3)).astype(np.float32)
        expect = t.grad.copy()
        np.add.at(expect, idx, g)
        ad._accumulate(t, g, at=idx)
        assert t.grad.tobytes() == expect.tobytes()


class TestBlockOps:
    """The vector ops generalized to the rows of a matrix."""

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        with ad.precision("float64"):
            m = ad.parameter(rng.normal(size=(3, 4)))
            n = ad.parameter(rng.normal(size=(3, 4)))
            v = ad.parameter(rng.normal(size=4))
            w = ad.parameter(rng.normal(size=3))
            s = ad.parameter(np.asarray(0.3))
            cube = ad.parameter(rng.normal(size=(2, 3, 4)))
            cw = ad.parameter(rng.normal(size=(2, 3)))
            w2 = ad.parameter(rng.normal(size=(2, 4)))
            p3 = ad.constant(rng.normal(size=3))
            p34 = ad.constant(rng.normal(size=(3, 4)))
            p32 = ad.constant(rng.normal(size=(3, 2)))
            p23 = ad.constant(rng.normal(size=(2, 3)))
            p24 = ad.constant(rng.normal(size=(2, 4)))
            p234 = ad.constant(rng.normal(size=(2, 3, 4)))
            p334 = ad.constant(rng.normal(size=(3, 3, 4)))
            builders = {
                "add scalar": lambda: _total(ad.mul(ad.add(m, s), p34)),
                "add row": lambda: _total(ad.mul(ad.add(m, v), p34)),
                "mul row": lambda: _total(ad.mul(ad.mul(m, v), p34)),
                "mul scalar": lambda: _total(ad.mul(ad.mul(m, s), p34)),
                "dot rows": lambda: ad.dot(ad.dot(m, n), p3),
                "stack vectors": lambda: _total(ad.mul(ad.stack([w, p3]), p32)),
                "row of vector": lambda: ad.row(ad.matvec(m, v), 1),
                "weighted_sum rows": lambda: ad.dot(ad.weighted_sum(m, w), v),
                "cosine rows": lambda: ad.dot(ad.cosine(m, v), p3),
                "take_rows of vector": lambda: ad.dot(ad.take_rows(w, [2, 0, 2]), p3),
                "take_rows of 3-d": lambda: _total(ad.mul(ad.take_rows(cube, [1, 1, 0]), p334)),
                "softmax rows": lambda: _total(ad.mul(ad.softmax(m), p34)),
                "softmax batch": lambda: _total(ad.mul(ad.softmax(cube), p234)),
                "weighted_sum batch": lambda: _total(ad.mul(ad.weighted_sum(cube, cw), p24)),
                "matvec rows": lambda: _total(ad.mul(ad.matvec(w2, m), p32)),
                "dot batch": lambda: _total(ad.mul(ad.dot(cube, ad.mul(cube, v)), p23)),
                "cosine matrices": lambda: ad.dot(ad.cosine(m, n), p3),
            }
            for name, build in builders.items():
                for p in (m, n, v, w, s, cube, cw, w2):
                    err = ad.grad_check(build, p)
                    assert err <= 1e-6, f"{name} wrt {p.shape}: {err}"

    def test_rows_match_the_vector_ops(self):
        rng = np.random.default_rng(7)
        m, n = rng.normal(size=(2, 3, 4))
        v, w = rng.normal(size=(2, 4))
        rows = [ad.constant(r) for r in m]
        assert np.allclose(ad.dot(ad.constant(m), ad.constant(n)).data,
                           [ad.dot(r, ad.constant(q)).item() for r, q in zip(rows, n)])
        assert np.allclose(ad.cosine(ad.constant(m), ad.constant(v)).data,
                           [ad.cosine(r, ad.constant(v)).item() for r in rows])
        assert np.allclose(ad.weighted_sum(ad.constant(m), ad.constant(w[:3])).data,
                           ad.weighted_sum(rows, ad.constant(w[:3])).data)
        assert np.allclose(ad.mul(ad.constant(m), ad.constant(v)).data, m * v)
        assert ad.stack([ad.constant(v), ad.constant(w)]).shape == (4, 2)
        assert ad.row(ad.constant(v), 2).shape == ()

    def test_batches_match_the_vector_ops(self):
        # each new shape against the vector form, row by row or block by block
        rng = np.random.default_rng(8)
        cube, other = rng.normal(size=(2, 2, 3, 4)).astype(np.float32)
        m, n = rng.normal(size=(2, 3, 4)).astype(np.float32)
        weights = rng.normal(size=(2, 3)).astype(np.float32)
        w = rng.normal(size=(5, 4)).astype(np.float32)
        c = ad.constant
        assert np.array_equal(ad.take_rows(c(w[0]), [[3, 0], [1, 1]]).data, w[0][[[3, 0], [1, 1]]])
        assert np.array_equal(ad.take_rows(c(cube), [1, 0, 1]).data, cube[[1, 0, 1]])
        softmax = ad.softmax(c(cube)).data
        dots = ad.dot(c(cube), c(other)).data
        sums = ad.weighted_sum(c(cube), c(weights)).data
        for b in range(2):
            assert np.allclose(sums[b], ad.weighted_sum(c(cube[b]), c(weights[b])).data)
            for i in range(3):
                assert np.allclose(softmax[b, i], ad.softmax(c(cube[b, i])).data)
                assert np.isclose(dots[b, i], ad.dot(c(cube[b, i]), c(other[b, i])).item())
        assert np.allclose(ad.softmax(c(m)).data, [ad.softmax(c(r)).data for r in m])
        assert np.allclose(ad.matvec(c(w), c(m)).data, [ad.matvec(c(w), c(r)).data for r in m])
        assert np.allclose(ad.cosine(c(m), c(n)).data,
                           [ad.cosine(c(r), c(q)).item() for r, q in zip(m, n)])

    def test_cosine_zero_norm_row_is_zero_without_gradient(self):
        with ad.precision("float64"):
            m = ad.parameter(np.array([[0.0, 0.0], [3.0, 4.0]]))
            g = ad.cosine(m, ad.constant(np.array([1.0, 0.0])))
            assert np.allclose(g.data, [0.0, 0.6])
            ad.backward(ad.sum1d(g))
            assert np.array_equal(m.grad[0], [0.0, 0.0]) and np.all(np.isfinite(m.grad))
            m.grad = None
            zero_vote = ad.cosine(m, ad.constant(np.zeros(2)))
            ad.backward(ad.sum1d(zero_vote))
            assert not zero_vote.data.any() and not m.grad.any()

    def test_broadcast_shapes_checked(self):
        a = ad.constant(np.zeros((3, 4)))
        for b in (np.zeros(3), np.zeros((4, 4)), np.zeros((2, 3, 4))):
            for op in (ad.add, ad.mul):
                with pytest.raises(ValueError, match="shape mismatch"):
                    op(a, ad.constant(b))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(ad.softmax(ad.constant([0.0, 0.0])).data, [0.5, 0.5])

    def test_stability(self):
        out = ad.softmax(ad.constant([1000.0, 0.0])).data
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0, abs=1e-6)
        assert out[1] == pytest.approx(0.0, abs=1e-6)

    def test_direct_formula(self):
        # exp(1,2,3) / sum = (0.0900, 0.2447, 0.6652)
        out = ad.softmax(ad.constant([1.0, 2.0, 3.0])).data
        expect = np.exp([1.0, 2.0, 3.0]) / np.exp([1.0, 2.0, 3.0]).sum()
        assert np.allclose(out, expect, atol=1e-6)
        assert np.allclose(out, [0.0900, 0.2447, 0.6652], atol=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ad.softmax(ad.constant(np.zeros(0)))

    def test_sums_to_one_without_overflow(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.uniform(-1e4, 1e4, size=rng.integers(1, 9))
            out = ad.softmax(ad.constant(v)).data
            assert abs(out.sum() - 1.0) <= 1e-6
            assert np.isfinite(out).all()

    def test_shift_invariance(self):
        v = np.array([0.3, -1.2, 2.0])
        a = ad.softmax(ad.constant(v)).data
        b = ad.softmax(ad.constant(v + 7.5)).data
        assert np.allclose(a, b, atol=1e-6)


class TestConcat:
    def test_basic(self):
        out = ad.concat([ad.constant([1.0, 2.0]), ad.constant([3.0])])
        assert np.allclose(out.data, [1, 2, 3])

    def test_single_part_identity(self):
        v = ad.constant([4.0, 5.0])
        assert np.array_equal(ad.concat([v]).data, v.data)

    def test_round_trip_split(self):
        rng = np.random.default_rng(3)
        parts = [ad.constant(rng.normal(size=300)) for _ in range(3)]
        cat = ad.concat(parts)
        assert cat.shape == (900,)
        for i, p in enumerate(parts):
            back = ad.slice1d(cat, 300 * i, 300)
            assert np.array_equal(back.data, p.data)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ad.concat([])

    def test_matrices_join_on_the_last_axis(self):
        a = ad.constant(np.ones((2, 3)))
        b = ad.constant(np.zeros((2, 1)))
        assert ad.concat([a, b]).shape == (2, 4)
        assert ad.concat([a, a], axis=0).shape == (4, 3)
        with pytest.raises(ValueError):
            ad.concat([a, ad.constant(np.zeros((3, 1)))])
        with pytest.raises(ValueError):
            ad.concat([a, ad.constant(np.zeros(3))])

    def test_backward_splits_by_offsets(self):
        with ad.precision("float64"):
            a = ad.parameter([1.0, 2.0])
            b = ad.parameter([3.0])
            probe = ad.constant([1.0, 10.0, 100.0])
            ad.backward(ad.dot(ad.concat([a, b]), probe))
            assert np.allclose(a.grad, [1, 10])
            assert np.allclose(b.grad, [100])


class TestDropout:
    def test_keep_prob_one_is_identity(self):
        v = ad.constant(np.arange(5.0))
        rng = np.random.default_rng(0)
        out = ad.dropout(v, 1.0, training=True, rng=rng)
        assert out.data is v.data

    def test_eval_mode_is_bitwise_identity(self):
        v = ad.constant(np.arange(5.0))
        out = ad.dropout(v, 0.3, training=False)
        assert out is v

    def test_out_of_range(self):
        v = ad.constant(np.arange(3.0))
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                ad.dropout(v, bad, training=True, rng=np.random.default_rng(0))

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(4)
        v = ad.constant(np.ones(10**5))
        out = ad.dropout(v, 0.5, training=True, rng=rng)
        assert 0.97 <= out.data.mean() <= 1.03


class TestCosine:
    def test_parallel(self):
        assert ad.cosine(ad.constant([1.0, 0.0]), ad.constant([1.0, 0.0])).item() == pytest.approx(1.0)

    def test_orthogonal(self):
        assert ad.cosine(ad.constant([1.0, 0.0]), ad.constant([0.0, 1.0])).item() == pytest.approx(0.0)

    def test_closed_form(self):
        got = ad.cosine(ad.constant([1.0, 0.0]), ad.constant([1.0, 1.0])).item()
        assert got == pytest.approx(0.70710, abs=1e-5)

    def test_zero_norm_is_zero(self):
        assert ad.cosine(ad.constant([0.0, 0.0]), ad.constant([1.0, 1.0])).item() == 0.0

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = ad.constant(rng.normal(size=4))
            b = ad.constant(rng.normal(size=4))
            assert -1.0 - 1e-6 <= ad.cosine(a, b).item() <= 1.0 + 1e-6


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = ad.parameter([1.0, -2.0])
        st = ad.AdamState(lr=0.001)
        ad.adam_step(st, {"p": p}, {"p": np.zeros(2)})
        assert np.allclose(p.data, [1.0, -2.0])
        assert st.step == 1

    def test_first_step_closed_form(self):
        # bias correction gives m̂ = g and v̂ = g², so the move is ≈ lr
        p = ad.parameter(np.asarray(0.0))
        st = ad.AdamState(lr=0.001)
        ad.adam_step(st, {"p": p}, {"p": np.asarray(1.0)})
        assert float(p.data) == pytest.approx(-0.001, rel=1e-4)

    def test_converges_on_quadratic(self):
        p = ad.parameter(np.asarray(1.0))
        st = ad.AdamState(lr=0.05)
        for _ in range(100):
            ad.adam_step(st, {"p": p}, {"p": 2.0 * p.data})
        assert abs(float(p.data)) < 1.0

    def test_non_finite_gradient_rejected(self):
        p = ad.parameter(np.asarray(0.0))
        with pytest.raises(FloatingPointError):
            ad.adam_step(ad.AdamState(), {"p": p}, {"p": np.asarray(np.nan)})

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_matches_allocating_update(self, precision):
        # five steps of the in-place update against the one that makes a new
        # array per operation: the same bits in the parameters and moments
        rng = np.random.default_rng(41)
        shapes = {"w": (7, 5), "b": (5,), "s": (), "big": (40, 30), "frozen": (3, 2)}
        with ad.precision(precision):
            start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
            ours = {name: ad.parameter(v) for name, v in start.items()}
            theirs = {name: ad.parameter(v) for name, v in start.items()}
            st, st_ref = ad.AdamState(lr=0.01), ad.AdamState(lr=0.01)
            for step in range(5):
                grads = {name: rng.standard_normal(shape).astype(ad.default_dtype())
                         for name, shape in shapes.items()}
                grads["frozen"] = np.zeros(shapes["frozen"], dtype=ad.default_dtype())
                if step == 2:
                    grads["s"] = np.zeros((), dtype=ad.default_dtype())
                ad.adam_step(st, ours, grads)
                helpers.reference_adam_step(st_ref, theirs, grads)
                for name in shapes:
                    assert np.asarray(ours[name].data).tobytes() == \
                        np.asarray(theirs[name].data).tobytes(), (step, name)
                    assert ours[name].data.dtype == np.asarray(theirs[name].data).dtype
                    assert st.m[name].tobytes() == st_ref.m[name].tobytes()
                    assert st.v[name].tobytes() == st_ref.v[name].tobytes()
            assert st.step == st_ref.step == 5
            assert st.work[0].nbytes == 40 * 30 * np.dtype(ad.default_dtype()).itemsize

    def test_wider_gradient_matches_allocating_update(self):
        # a float64 gradient for a float32 parameter forms the moment terms
        # in float64, as the allocating update does
        rng = np.random.default_rng(43)
        start = rng.standard_normal((4, 3))
        ours, theirs = ad.parameter(start), ad.parameter(start)
        st, st_ref = ad.AdamState(), ad.AdamState()
        for _ in range(3):
            g = rng.standard_normal((4, 3))
            ad.adam_step(st, {"p": ours}, {"p": g})
            helpers.reference_adam_step(st_ref, {"p": theirs}, {"p": g})
            assert ours.data.tobytes() == theirs.data.tobytes()

    def test_update_in_place_leaves_snapshots_alone(self):
        store = ad.ParamStore()
        p = store.add("p", ad.parameter(np.ones((3, 2))))
        data = p.data
        snapshot = store.state_dict()
        ad.adam_step(ad.AdamState(lr=0.1), store.tensors(), {"p": np.ones((3, 2))})
        assert p.data is data  # updated in place
        assert not np.array_equal(p.data, np.ones((3, 2)))
        assert np.array_equal(snapshot["p"], np.ones((3, 2)))

    def test_parameter_holds_its_own_copy(self):
        value = np.ones(3, dtype=ad.default_dtype())
        p = ad.parameter(value)
        ad.adam_step(ad.AdamState(lr=0.1), {"p": p}, {"p": np.ones(3)})
        assert np.array_equal(value, np.ones(3))


class TestGradCheck:
    def test_dot_with_itself(self):
        with ad.precision("float64"):
            x = ad.parameter([0.7, -1.3, 0.2])
            assert ad.grad_check(lambda: ad.dot(x, x), x) <= 1e-6
            x.zero_grad()
            ad.backward(ad.dot(x, x))
            assert np.allclose(x.grad, 2.0 * x.data)

    def test_constant_function(self):
        with ad.precision("float64"):
            x = ad.parameter([1.0, 2.0])
            c = ad.constant(np.asarray(3.0))
            assert ad.grad_check(lambda: ad.add(c, ad.constant(np.asarray(0.0))), x) <= 1e-8

    def test_requires_float64(self):
        x = ad.parameter([1.0])
        with pytest.raises(ValueError):
            ad.grad_check(lambda: ad.sum1d(x), x)


class TestElementwiseGradients:
    """Central finite differences over every differentiable primitive."""

    def test_all_ops(self):
        rng = np.random.default_rng(6)
        with ad.precision("float64"):
            x = ad.parameter(rng.normal(size=5))
            y = ad.parameter(rng.normal(size=5))
            s = ad.parameter(np.asarray(0.6))
            w = ad.parameter(rng.normal(size=(3, 5)))
            probe3 = ad.constant(rng.normal(size=3))
            probe5 = ad.constant(rng.normal(size=5))

            builders = {
                "add": lambda: ad.dot(ad.add(x, y), probe5),
                "sub": lambda: ad.dot(ad.sub(x, y), probe5),
                "mul": lambda: ad.dot(ad.mul(x, y), probe5),
                "addn": lambda: ad.dot(ad.addn([x, y, x]), probe5),
                "scale": lambda: ad.dot(ad.scale(x, s), probe5),
                "matvec": lambda: ad.dot(ad.matvec(w, x), probe3),
                "dot": lambda: ad.dot(x, y),
                "sum1d": lambda: ad.sum1d(ad.mul(x, y)),
                "sigmoid": lambda: ad.dot(ad.sigmoid(x), probe5),
                "tanh": lambda: ad.dot(ad.tanh(x), probe5),
                "relu": lambda: ad.dot(ad.relu(x), probe5),
                "softmax": lambda: ad.dot(ad.softmax(x), probe5),
                "max1d": lambda: ad.max1d(x),
                "stack": lambda: ad.dot(
                    ad.stack([ad.dot(x, y), ad.sum1d(x), ad.max1d(y)]), probe3),
                "concat+slice": lambda: ad.dot(
                    ad.slice1d(ad.concat([x, y]), 2, 5), probe5),
                "row": lambda: ad.dot(ad.row(w, 1), probe5),
                "weighted_sum": lambda: ad.dot(
                    ad.weighted_sum([x, y], ad.stack([s, ad.dot(x, probe5)])), probe5),
                "cosine": lambda: ad.cosine(x, y),
            }
            for name, build in builders.items():
                for p in (x, y, s, w):
                    err = ad.grad_check(build, p)
                    assert err <= 1e-4, f"{name} wrt {p.op}: {err}"


class TestGraphMechanics:
    def test_fanout_accumulates_both_contributions(self):
        with ad.precision("float64"):
            x = ad.parameter([2.0])
            # x feeds two consumers; gradients must sum
            a = ad.mul(x, ad.constant([3.0]))
            b = ad.mul(x, ad.constant([5.0]))
            ad.backward(ad.sum1d(ad.add(a, b)))
            assert np.allclose(x.grad, [8.0])

    def test_backward_requires_scalar(self):
        x = ad.parameter([1.0, 2.0])
        with pytest.raises(ValueError):
            ad.backward(ad.add(x, x))

    def test_non_finite_forward_raises(self):
        with pytest.raises(FloatingPointError):
            ad.constant([np.inf])

    def test_deep_chain_is_iterative(self):
        # 20k-node chain would blow the recursion limit if topo were recursive
        x = ad.parameter(np.asarray(0.5))
        node = x
        for _ in range(20000):
            node = ad.add(node, ad.constant(np.asarray(0.0)))
        ad.backward(node)
        assert float(x.grad) == 1.0

    def test_cycle_gc_paused_restores_the_collector(self):
        assert gc.isenabled()
        with ad.cycle_gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()
        with pytest.raises(FloatingPointError):
            with ad.cycle_gc_paused():
                ad.constant([np.nan])
        assert gc.isenabled()
        gc.disable()
        try:
            with ad.cycle_gc_paused():
                pass
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_graph_holds_no_reference_cycle(self):
        # pausing the collector around a graph leaks nothing only if
        # reference counting alone frees every node
        rng = np.random.default_rng(3)
        w = ad.LstmWeights(ad.parameter(rng.normal(size=(8, 3))),
                           ad.parameter(rng.normal(size=(8, 2))),
                           ad.parameter(rng.normal(size=8)))
        table = ad.parameter(rng.normal(size=(5, 3)))
        gc.disable()
        try:
            gc.collect()
            x = ad.take_rows(table, [[0, 1], [4, 1], [2, 2]])
            h = ad.bilstm(x, w, w)
            rows = [ad.row(ad.row(h, t), b) for t in range(3) for b in range(2)]
            loss = ad.sum1d(ad.tanh(ad.addn(rows)))
            ad.backward(loss)
            del x, h, rows, loss
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_param_store_roundtrip(self):
        store = ad.ParamStore()
        a = store.add("a", ad.parameter([1.0, 2.0]))
        store.add("b", ad.parameter(np.asarray(3.0)))
        snap = store.state_dict()
        a.data = a.data * 0
        store.load_state_dict(snap)
        assert np.allclose(store["a"].data, [1.0, 2.0])
        with pytest.raises(ValueError, match="not parameters of the model: 'c'$"):
            store.load_state_dict({**snap, "c": np.zeros(1)})
        with pytest.raises(ValueError):
            store.add("a", ad.parameter([0.0]))
