"""Shared builders for the toy pipelines used across the test suite."""

import json
import math
import os
from contextlib import closing

import numpy as np

from e2el import autodiff as ad
from e2el import binfile, inference, scoring, training
from e2el.candidates import (INDEX_HEADER, INDEX_MAGIC, MAX_PRIOR, AliasIndex, build_index,
                             CandidateEntry, MentionSpan, normalize_surface)
from e2el.corpus import Document, text_lines, write_corpus_jsonl
from e2el.embeddings import (CharTable, EntityVectors, WordVectors, _non_finite_rows,
                             save_text_embeddings)
from e2el.encoder import EncoderDims, mention_repr, rows_by_group
from e2el.model import LinkingModel, PairScore


def toy_dims(entity_dim=16, dropout_keep=1.0, **kw):
    defaults = dict(word_dim=16, char_dim=4, char_hidden=4, ctx_hidden=8,
                    entity_dim=entity_dim, dropout_keep=dropout_keep)
    defaults.update(kw)
    return EncoderDims(**defaults)


def word_store(tokens, dim=16, seed=100, vectors=None):
    rng = np.random.default_rng(seed)
    vocab = {t: i for i, t in enumerate(tokens)}
    if vectors is None:
        matrix = rng.standard_normal((len(tokens) + 1, dim)).astype(np.float32)
        matrix[-1] = 0.0  # unknown row
    else:
        matrix = np.vstack([vectors, np.zeros((1, dim), dtype=np.float32)])
    return WordVectors(vocab=vocab, matrix=matrix.astype(np.float32),
                       unk_index=len(tokens))


def entity_store(entity_ids, dim=16, seed=200, vectors=None):
    if vectors is None:
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((len(entity_ids), dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    ids = {e: i for i, e in enumerate(entity_ids)}
    return EntityVectors(ids=ids, matrix=np.asarray(vectors, dtype=np.float32))


def alias_index(table, s=30, l_max=6):
    """table: surface -> list of (entity_id, prior)."""
    entries = {
        surface: sorted((CandidateEntry(e, p) for e, p in cands),
                        key=lambda c: (-c.prior, c.entity_id))[:s]
        for surface, cands in table.items()
    }
    return AliasIndex(entries, s=s, max_span_length=l_max)


def build_model(words, entities, dims=None, corpus_tokens=None, seed=0, **kw):
    dims = dims or toy_dims(entity_dim=entities.dim)
    tokens = corpus_tokens if corpus_tokens is not None else list(words.vocab)
    chars = CharTable.build(tokens, dims.char_dim, np.random.default_rng([seed, 99]))
    return LinkingModel(dims=dims, words=words, chars=chars, entities=entities,
                        seed=seed, **kw)


# ---------------------------------------------------------------------------
# the oracles for `autodiff.bilstm`: the kernel before its gate-major
# rewrite, and one node per LSTM direction, its own oracle; and the
# gate-major kernel as it was while it derived halved input weights per call


def reference_sigmoid(d):
    """The logistic function as two branches, the oracle for `autodiff._sigmoid`."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def lstm_sequence(x, w, reverse=False):
    """Hidden states of one LSTM direction over a whole sequence, as one node.

    `x` is (T × d_in), or (T × B × d_in) for B equal-length sequences run
    side by side; the result is (T × h) or (T × B × h), entry t holding the
    state after step t. Each step is that of `lstm_cell`, from zero states;
    with `reverse` the steps run from t = T−1 down to 0, so entry 0 has seen
    the whole sequence. The input projection is one product over all steps
    and the recurrence runs in numpy. The backward is hand-written BPTT over
    the kept gates and cell states; it forms dW_x, dW_h, db and dX with one
    product or sum each over the stacked gate gradients.
    """
    h = w.hidden
    if x.data.ndim not in (2, 3) or x.shape[0] < 1:
        raise ValueError(f"lstm_sequence: (T, d) or (T, B, d) input expected, got {x.shape}")
    d_in = x.shape[-1]
    if w.w_x.shape != (4 * h, d_in) or w.w_h.shape != (4 * h, h) or w.b.shape != (4 * h,):
        raise ValueError(
            f"lstm_sequence: weight dims {w.w_x.shape}/{w.w_h.shape}/{w.b.shape} "
            f"inconsistent with input {x.shape} and hidden {h}")
    xs = x.data.reshape(x.shape[0], -1, d_in)  # (T, B, d_in)
    steps, batch = xs.shape[:2]
    w_h = w.w_h.data
    # pre-activations, overwritten step by step with the gate values i, f, g, o
    gates = (xs.reshape(-1, d_in) @ w.w_x.data.T + w.b.data).reshape(steps, batch, 4 * h)
    cells = np.empty((steps, batch, h), dtype=gates.dtype)
    tanh_c = np.empty_like(cells)
    hs = np.empty_like(cells)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    h_prev = np.zeros((batch, h), dtype=gates.dtype)
    c_prev = np.zeros_like(h_prev)
    for t in order:
        z = gates[t]
        z += h_prev @ w_h.T
        candidate = np.tanh(z[:, 2 * h:3 * h])
        z[:] = reference_sigmoid(z)
        z[:, 2 * h:3 * h] = candidate
        c_prev = cells[t] = z[:, h:2 * h] * c_prev + z[:, :h] * z[:, 2 * h:3 * h]
        tanh_c[t] = np.tanh(c_prev)
        h_prev = hs[t] = z[:, 3 * h:] * tanh_c[t]

    def before(a):
        """Each step's incoming state: `a` shifted one step against the order."""
        out = np.zeros_like(a)
        if reverse:
            out[:-1] = a[1:]
        else:
            out[1:] = a[:-1]
        return out

    def back(g):
        g = g.reshape(steps, batch, h)
        c_in = before(cells)
        dz = np.empty_like(gates)
        dh = np.zeros((batch, h), dtype=gates.dtype)
        dc = np.zeros_like(dh)
        for t in reversed(order):
            i, f, gg, o = (gates[t, :, k * h:(k + 1) * h] for k in range(4))
            dh = dh + g[t]
            dc = dc + dh * o * (1.0 - tanh_c[t] * tanh_c[t])
            dz[t, :, :h] = dc * gg * i * (1.0 - i)
            dz[t, :, h:2 * h] = dc * c_in[t] * f * (1.0 - f)
            dz[t, :, 2 * h:3 * h] = dc * i * (1.0 - gg * gg)
            dz[t, :, 3 * h:] = dh * tanh_c[t] * o * (1.0 - o)
            dc = dc * f
            dh = dz[t] @ w_h
        flat = dz.reshape(-1, 4 * h)
        ad._accumulate(w.w_x, flat.T @ xs.reshape(-1, d_in))
        ad._accumulate(w.w_h, flat.T @ before(hs).reshape(-1, h))
        ad._accumulate(w.b, flat.sum(axis=0))
        if x.requires_grad:
            ad._accumulate(x, (flat @ w.w_x.data).reshape(x.shape))

    return ad._node(hs.reshape(x.shape[:-1] + (h,)), (x, w.w_x, w.w_h, w.b), "lstm_sequence",
                    back)


def two_call_bilstm(x, fwd, bwd):
    """`reference_bilstm` as one `lstm_sequence` node per direction, joined."""
    return ad.concat([lstm_sequence(x, fwd), lstm_sequence(x, bwd, reverse=True)])


def reference_bilstm(x, fwd, bwd):
    """`autodiff.bilstm` before its gate-major rewrite, unchanged but for the
    `ad.` prefixes: the oracle for that kernel, itself checked bit for bit
    against `two_call_bilstm`.

    Hidden states of a bidirectional LSTM over a whole sequence, as one node.

    `x` is (T × d_in), or (T × B × d_in) for B equal-length sequences run
    side by side; the result is (T × 2h) or (T × B × 2h), entry t holding
    [forward state after step t; backward state after step t]. Each step is
    that of `lstm_cell`, from zero states: the forward direction `fwd` runs
    from t = 0 up to T−1 and the backward direction `bwd` from t = T−1 down
    to 0, so its entry 0 has seen the whole sequence.

    Both directions step in one loop: loop step k runs forward t = k and
    backward t = T−1−k, whose gates lie side by side in one (2 × B × 4h)
    block, with one stacked product for both recurrences. The input
    projection is one product per direction over all steps. The backward is
    hand-written BPTT over the kept gates and cell states, fused the same
    way; each direction's dW_x, dW_h, db and dX are one product or sum over
    its gate gradients in time order, the forward direction's first. So
    every value, gradients included, is bit for bit what one run per
    direction gives: each slice of a stacked product is the BLAS call that
    its direction alone would make.
    """
    h = fwd.hidden
    if x.data.ndim not in (2, 3) or x.shape[0] < 1:
        raise ValueError(f"bilstm: (T, d) or (T, B, d) input expected, got {x.shape}")
    d_in = x.shape[-1]
    for w in (fwd, bwd):
        if w.w_x.shape != (4 * h, d_in) or w.w_h.shape != (4 * h, h) or w.b.shape != (4 * h,):
            raise ValueError(
                f"bilstm: weight dims {w.w_x.shape}/{w.w_h.shape}/{w.b.shape} "
                f"inconsistent with input {x.shape} and hidden {h}")
    xs = x.data.reshape(x.shape[0], -1, d_in)  # (T, B, d_in)
    steps, batch = xs.shape[:2]
    proj = [(xs.reshape(-1, d_in) @ w.w_x.data.T + w.b.data).reshape(steps, batch, 4 * h)
            for w in (fwd, bwd)]
    dtype = proj[0].dtype
    # in loop order, side 0 the forward and side 1 the backward direction:
    # pre-activations, overwritten step by step with the gate values i, f, g, o
    gates = np.empty((steps, 2, batch, 4 * h), dtype=dtype)
    gates[:, 0] = proj[0]
    gates[:, 1] = proj[1][::-1]
    i, f, gg, o = (gates[..., k * h:(k + 1) * h] for k in range(4))
    # each slice has the strides of w_h.T, so it gets the BLAS call of one direction
    w_h_t = np.stack([fwd.w_h.data, bwd.w_h.data]).transpose(0, 2, 1)
    cells = np.empty((steps, 2, batch, h), dtype=dtype)
    tanh_c = np.empty_like(cells)
    hs = np.empty_like(cells)
    h_prev = c_prev = np.zeros((2, batch, h), dtype=dtype)
    recurrent = np.empty((2, batch, 4 * h), dtype=dtype)
    candidate = np.empty_like(h_prev)
    new_cell = np.empty_like(h_prev)
    for k in range(steps):
        z = gates[k]
        np.matmul(h_prev, w_h_t, out=recurrent)
        z += recurrent
        np.tanh(gg[k], out=candidate)
        ad._sigmoid(z, out=z)
        gg[k] = candidate
        np.multiply(f[k], c_prev, out=cells[k])
        np.multiply(i[k], candidate, out=new_cell)
        cells[k] += new_cell
        np.tanh(cells[k], out=tanh_c[k])
        np.multiply(o[k], tanh_c[k], out=hs[k])
        h_prev, c_prev = hs[k], cells[k]
    out = np.empty((steps, batch, 2 * h), dtype=dtype)
    out[..., :h] = hs[:, 0]
    out[..., h:] = hs[::-1, 1]

    def incoming(a: np.ndarray) -> np.ndarray:
        """Each loop step's incoming state: `a` shifted one step on."""
        shifted = np.zeros_like(a)
        shifted[1:] = a[:-1]
        return shifted

    def back(g):
        g = g.reshape(steps, batch, 2 * h)
        g_loop = np.empty_like(hs)
        g_loop[:, 0] = g[..., :h]
        g_loop[:, 1] = g[::-1, :, h:]
        c_in = incoming(cells)
        # the factors that do not depend on the carried gradients, for all steps at once
        di, df, dgg, do = 1.0 - i, 1.0 - f, 1.0 - gg * gg, 1.0 - o
        dtanh = 1.0 - tanh_c * tanh_c
        dz = np.empty_like(gates)
        dz_i, dz_f, dz_g, dz_o = (dz[..., k * h:(k + 1) * h] for k in range(4))
        w_h = np.stack([fwd.w_h.data, bwd.w_h.data])
        dh = np.zeros((2, batch, h), dtype=dtype)
        dc = np.zeros_like(dh)
        term = np.empty_like(dh)
        for k in range(steps - 1, -1, -1):
            dh += g_loop[k]
            np.multiply(dh, o[k], out=term)
            term *= dtanh[k]
            dc += term
            np.multiply(dc, gg[k], out=dz_i[k])
            dz_i[k] *= i[k]
            dz_i[k] *= di[k]
            np.multiply(dc, c_in[k], out=dz_f[k])
            dz_f[k] *= f[k]
            dz_f[k] *= df[k]
            np.multiply(dc, i[k], out=dz_g[k])
            dz_g[k] *= dgg[k]
            np.multiply(dh, tanh_c[k], out=dz_o[k])
            dz_o[k] *= o[k]
            dz_o[k] *= do[k]
            dc *= f[k]
            np.matmul(dz[k], w_h, out=dh)
        h_in = incoming(hs)
        for side, w in enumerate((fwd, bwd)):
            time = slice(None, None, 1 - 2 * side)  # the backward side's loop order reversed
            flat = np.ascontiguousarray(dz[time, side]).reshape(-1, 4 * h)
            ad._accumulate(w.w_x, flat.T @ xs.reshape(-1, d_in))
            ad._accumulate(w.w_h, flat.T @ np.ascontiguousarray(h_in[time, side]).reshape(-1, h))
            ad._accumulate(w.b, flat.sum(axis=0))
            if x.requires_grad:
                ad._accumulate(x, (flat @ w.w_x.data).reshape(x.shape))

    return ad._node(out.reshape(x.shape[:-1] + (2 * h,)),
                 (x, fwd.w_x, fwd.w_h, fwd.b, bwd.w_x, bwd.w_h, bwd.b), "bilstm", back)


def derived_weights_bilstm(x, fwd, bwd, lengths=None):
    """`autodiff.bilstm` before its input projection took the stored
    weights, unchanged but for the `ad.` prefixes: each call derives halved,
    reordered copies of w_x and b and projects with those. The oracle that
    holds the kernel to the same values, gradients included, bit for bit."""
    h = fwd.hidden
    if x.data.ndim not in (2, 3) or x.shape[0] < 1:
        raise ValueError(f"bilstm: (T, d) or (T, B, d) input expected, got {x.shape}")
    d_in = x.shape[-1]
    for w in (fwd, bwd):
        if w.w_x.shape != (4 * h, d_in) or w.w_h.shape != (4 * h, h) or w.b.shape != (4 * h,):
            raise ValueError(
                f"bilstm: weight dims {w.w_x.shape}/{w.w_h.shape}/{w.b.shape} "
                f"inconsistent with input {x.shape} and hidden {h}")
    xs = x.data.reshape(x.shape[0], -1, d_in)  # (T, B, d_in)
    steps, batch = xs.shape[:2]
    if lengths is None:
        lens = np.full(batch, steps)
    else:
        if x.data.ndim != 3:
            raise ValueError(f"bilstm: lengths need a (T, B, d) input, got {x.shape}")
        lens = np.asarray(lengths)
        if not np.issubdtype(lens.dtype, np.integer):
            raise ValueError(f"bilstm: lengths must be integers, got {lens.dtype}")
        if lens.shape != (batch,):
            raise ValueError(f"bilstm: lengths of shape {lens.shape} for a batch of {batch}")
        if lens.min() < 1 or lens.max() > steps:
            raise ValueError(
                f"bilstm: lengths must lie in [1, {steps}], got {lens.min()}..{lens.max()}")
        lens = lens.astype(np.intp)  # an unsigned length less a signed step is a float
    loop_step = np.arange(steps)[:, None]
    padding = loop_step >= lens  # (T, B), the same in loop and in time order
    # the row of each loop step of the backward direction: an involution per sequence
    rows = np.where(padding, loop_step, lens - 1 - loop_step)
    cols = np.arange(batch)

    def backward_order(a):
        """Time order to the backward direction's loop order, and back."""
        return a[rows, cols]

    # both directions' weights, (2, 4, h, ·) in the stored gate order, and
    # the kernel's copies, in its gate order with the sigmoid gates halved
    w_x = np.concatenate([fwd.w_x.data, bwd.w_x.data]).reshape(2, 4, h, d_in)
    w_h = np.concatenate([fwd.w_h.data, bwd.w_h.data]).reshape(2, 4, h, h)
    b = np.concatenate([fwd.b.data, bwd.b.data]).reshape(2, 4, h)
    scale = np.array([0.5, 0.5, 0.5, 1.0], dtype=w_h.dtype)[:, None]  # per kernel gate
    b_k = b[:, ad._KERNEL_GATES] * scale
    w_x_k = w_x[:, ad._KERNEL_GATES] * scale[..., None]
    w_h_k = np.ascontiguousarray(  # (2, h_in, 4 × h_out)
        (w_h[:, ad._KERNEL_GATES] * scale[..., None]).transpose(0, 3, 1, 2)).reshape(2, h, 4 * h)
    proj = (xs.reshape(-1, d_in) @ w_x_k.reshape(8 * h, d_in).T + b_k.reshape(8 * h))
    proj = proj.reshape(steps, batch, 2, 4, h)
    dtype = proj.dtype
    # loop order, one (5 × 2 × B × h) block per step, gate-major: the half
    # pre-activations of i, f, o and the pre-activation of g, overwritten
    # with the gate values, then the step's incoming cell state, so that
    # [i, f] · [g, c] is one product; block k + 1 receives step k's cell
    blocks = np.empty((steps + 1, 5, 2, batch, h), dtype=dtype)
    blocks[:-1, :4, 0] = proj[:, :, 0].transpose(0, 2, 1, 3)
    blocks[:-1, :4, 1] = backward_order(proj[:, :, 1]).transpose(0, 2, 1, 3)
    blocks[0, 4] = 0.0
    gates, c_in, cells = blocks[:-1, :4], blocks[:-1, 4], blocks[1:, 4]
    states = np.zeros((steps + 1, 2, batch, h), dtype=dtype)  # entry k + 1 after step k
    hs = states[1:]
    tanh_c = np.empty_like(hs)
    recurrent = np.empty((2, batch, 4 * h), dtype=dtype)
    recurrent_k = recurrent.reshape(2, batch, 4, h).transpose(2, 0, 1, 3)
    products = np.empty((2, 2, batch, h), dtype=dtype)
    i_g, f_c = products
    half = np.array(0.5, dtype=dtype)  # an array: a Python float costs a conversion per call
    # per step, views of the gates, their sigmoid slab, [i, f], [g, c_in],
    # o and the states
    for h_prev, z, sig, i_f, g_c, o, c, tc, hk in zip(
            states, gates, gates[:, :3], blocks[:-1, :2], blocks[:-1, 3:], gates[:, 2], cells,
            tanh_c, hs):
        np.matmul(h_prev, w_h_k, out=recurrent)
        z += recurrent_k
        np.tanh(z, out=z)
        np.multiply(sig, half, out=sig)
        np.add(sig, half, out=sig)
        np.multiply(i_f, g_c, out=products)
        np.add(i_g, f_c, out=c)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=hk)
    out = np.empty((steps, batch, 2 * h), dtype=dtype)
    out[..., :h] = hs[:, 0]
    out[..., h:] = backward_order(hs[:, 1])
    out[padding] = 0.0

    def back(g_out):
        g_out = g_out.reshape(steps, batch, 2 * h)
        g_loop = np.empty_like(hs)
        g_loop[:, 0] = g_out[..., :h]
        g_loop[:, 1] = backward_order(g_out[..., h:])
        g_loop *= ~padding[:, None, :, None]
        i, f, o, g = (gates[:, k] for k in range(4))
        # per step and stored gate, the factor of the carried cell gradient
        # (i, f, g) or hidden gradient (o) in the pre-activation gradient
        factor = np.empty_like(gates)
        np.multiply(i, 1.0 - i, out=factor[:, 0])
        factor[:, 0] *= g
        np.multiply(f, 1.0 - f, out=factor[:, 1])
        factor[:, 1] *= c_in
        np.multiply(g, g, out=factor[:, 2])
        np.subtract(1.0, factor[:, 2], out=factor[:, 2])
        factor[:, 2] *= i
        np.multiply(o, 1.0 - o, out=factor[:, 3])
        factor[:, 3] *= tanh_c
        o_dtanh = o * (1.0 - tanh_c * tanh_c)
        # direction-major, so that each step's product with w_h is contiguous
        dz = np.empty((steps, 2, batch, 4 * h), dtype=dtype)
        dz_gates = dz.reshape(steps, 2, batch, 4, h).transpose(0, 3, 1, 2, 4)
        w_h_back = w_h.reshape(2, 4 * h, h)
        dh = np.zeros((2, batch, h), dtype=dtype)
        dc = np.zeros_like(dh)
        term = np.empty_like(dh)
        steps_back = (a[::-1] for a in (g_loop, o_dtanh, factor[:, :3], factor[:, 3],
                                        dz_gates[:, :3], dz_gates[:, 3], f, dz))
        for g_k, o_dtanh_k, cell_factor, o_factor, dz_cell, dz_o, f_k, dz_k in zip(*steps_back):
            dh += g_k
            np.multiply(dh, o_dtanh_k, out=term)
            dc += term
            np.multiply(dc, cell_factor, out=dz_cell)
            np.multiply(dh, o_factor, out=dz_o)
            dc *= f_k
            np.matmul(dz_k, w_h_back, out=dh)
        g_w_h = np.matmul(dz.transpose(1, 3, 0, 2).reshape(2, 4 * h, -1),
                          states[:-1].transpose(1, 0, 2, 3).reshape(2, -1, h))
        dz_time = np.empty((steps, batch, 2, 4 * h), dtype=dtype)
        dz_time[:, :, 0] = dz[:, 0]
        dz_time[:, :, 1] = backward_order(dz[:, 1])
        flat = dz_time.reshape(-1, 8 * h)
        g_w_x = (flat.T @ xs.reshape(-1, d_in)).reshape(2, 4 * h, d_in)
        g_b = flat.sum(axis=0).reshape(2, 4 * h)
        for side, w in enumerate((fwd, bwd)):
            ad._accumulate(w.w_x, g_w_x[side])
            ad._accumulate(w.w_h, g_w_h[side])
            ad._accumulate(w.b, g_b[side])
        if x.requires_grad:
            ad._accumulate(x, (flat @ w_x.reshape(8 * h, d_in)).reshape(x.shape))

    return ad._node(out.reshape(x.shape[:-1] + (2 * h,)),
                    (x, fwd.w_x, fwd.w_h, fwd.b, bwd.w_x, bwd.w_h, bwd.b), "bilstm", back)


# ---------------------------------------------------------------------------
# per-step encoder: the oracle for the fused one in `e2el.encoder`


def _per_step_lstm(inputs, weights, reverse=False):
    h = ad.constant(np.zeros(weights.hidden))
    c = ad.constant(np.zeros(weights.hidden))
    order = range(len(inputs) - 1, -1, -1) if reverse else range(len(inputs))
    out = [None] * len(inputs)
    for t in order:
        h, c = ad.lstm_cell(inputs[t], h, c, weights)
        out[t] = h
    return out


def per_step_char_embed(word, table, params):
    """One word's [last forward; first backward] char summary, step by step."""
    zs = [ad.row(table.rows, table.index(ch)) for ch in word]
    fwd = _per_step_lstm(zs, params.char_fwd)
    bwd = _per_step_lstm(zs, params.char_bwd, reverse=True)
    return ad.concat([fwd[-1], bwd[0]])


def per_step_encode_document(doc, words, chars, params, dims, mode="eval", rng=None):
    """`encode_document` built from one `lstm_cell` per step and one dropout
    draw per token, sharing the char graph of repeated tokens; returns the
    per-token nodes (v, x) as two lists."""
    training = mode == "train"
    v = []
    char_cache = {}
    for token in doc.tokens:
        wv = ad.constant(np.asarray(words.lookup(token), dtype=ad.default_dtype()))
        if token not in char_cache:
            char_cache[token] = per_step_char_embed(token, chars, params)
        vk = ad.concat([wv, char_cache[token]])
        v.append(ad.dropout(vk, dims.dropout_keep, training, rng))
    fwd = _per_step_lstm(v, params.ctx_fwd)
    bwd = _per_step_lstm(v, params.ctx_bwd, reverse=True)
    x = [ad.dropout(ad.concat([fwd[k], bwd[k]]), dims.dropout_keep, training, rng)
         for k in range(len(v))]
    return v, x


# ---------------------------------------------------------------------------
# per-pair scorer: the oracle for the pair table of `LinkingModel.pair_scores`


def soft_head(span, enc, params):
    """One span's attention-weighted sum of its word-character vectors, with
    logits from its context vectors: the per-span form of the soft heads
    that `encoder.mention_repr` batches by span length."""
    ks = np.arange(span.start, span.end + 1)
    weights = ad.softmax(ad.matvec(ad.take_rows(enc.x, ks), params.attn_w))
    return ad.weighted_sum(ad.take_rows(enc.v, ks), weights)


def per_word_context(span, x, ys, window, keep, params):
    """One attention feature node per candidate vector in `ys`, from the
    per-token context nodes `x`: the window ranked off the graph as in
    `scoring.long_range_feature`, then each kept word scored with one node
    per candidate."""
    positions = context_window(span, len(x), window)
    if not positions:
        zero = ad.constant(np.asarray(0.0, dtype=ad.default_dtype()))
        return [zero for _ in ys]
    scaled = np.stack([xk.data for xk in x]) * params.att_a.data
    word_scores = np.einsum("wd,cd->wc", scaled[positions], np.stack([y.data for y in ys]))
    u = word_scores.max(axis=1)
    kept = [positions[i] for i in np.sort(np.argsort(-u, kind="stable")[:keep])]
    scores = []
    for k in kept:
        ax = ad.mul(params.att_a, x[k])
        scores.append(ad.max1d(ad.stack([ad.dot(y, ax) for y in ys])))
    beta = ad.softmax(ad.stack(scores))
    c = ad.weighted_sum([x[k] for k in kept], beta)
    bc = ad.mul(params.att_b, c)
    return [ad.dot(y, bc) for y in ys]


def per_pair_scores(model, enc, spans):
    """The pairs of `model.pair_scores` on the encoded document `enc`, built
    one node per token, kept word and candidate on row views of its V and X:
    the soft head, mention projection, local score, attention, vote, global
    score and combination of each pair on its own."""
    dtype = ad.default_dtype()
    n = len(enc)
    v = [ad.row(enc.v, k) for k in range(n)]
    x = [ad.row(enc.x, k) for k in range(n)]
    ep, sp = model.encoder, model.scorer
    entity_cache = {}

    def y_of(eid):
        if eid not in entity_cache:
            idx = model.entities.index(eid)
            if model._entity_rows is not None and idx is not None:
                entity_cache[eid] = ad.row(model._entity_rows, idx)
            else:
                entity_cache[eid] = ad.constant(np.asarray(model.entities.vector(eid),
                                                           dtype=dtype))
        return entity_cache[eid]

    pairs = []
    for span in spans:
        if not span.candidates:
            continue
        ks = range(span.start, span.end + 1)
        weights = ad.softmax(ad.stack([ad.dot(ep.attn_w, x[k]) for k in ks]))
        head = ad.weighted_sum([v[k] for k in ks], weights)
        g = ad.concat([x[span.start], x[span.end], head])
        x_m = ad.add(ad.matvec(ep.proj_w, g), ep.proj_b)
        ys = [y_of(c.entity_id) for c in span.candidates]
        ctx = [None] * len(ys)
        if model.use_attention:
            ctx = per_word_context(span, x, ys, model.attention_window,
                                   model.attention_keep, sp)
        for entry, y, feature in zip(span.candidates, ys, ctx):
            feats = [ad.constant(np.asarray(math.log(entry.prior), dtype=dtype)),
                     ad.dot(x_m, y)] + ([] if feature is None else [feature])
            psi = ad.add(ad.dot(sp.psi_w, ad.stack(feats)), sp.psi_b)
            pairs.append(PairScore(span=span, entity_id=entry.entity_id, prior=entry.prior,
                                   psi=psi))
    if model.use_global:
        voters = [pairs[i] for i in scoring.filter_voters(
            np.array([p.psi.item() for p in pairs]), model.global_cfg)]
        votes = {}
        for p in pairs:
            key = (p.span.start, p.span.end)
            if key not in votes:
                others = [y_of(w.entity_id) for w in voters if (w.span.start, w.span.end) != key]
                votes[key] = ad.addn(others) if others else None
            p.g = (ad.constant(np.asarray(0.0, dtype=dtype)) if votes[key] is None
                   else ad.cosine(y_of(p.entity_id), votes[key]))
            p.phi = ad.add(ad.dot(sp.phi_w, ad.stack([p.psi, p.g])), sp.phi_b)
    return pairs


# ---------------------------------------------------------------------------
# per-span ranking: the oracle for the document-wide ranking of
# `scoring.long_range_feature`


def context_window(span, n_tokens, window):
    """Token positions up to window/2 on each side of the span, clipped at the
    document edges; the span's own tokens are excluded."""
    half = window // 2
    lo = max(0, span.start - half)
    hi = min(n_tokens - 1, span.end + half)
    return [k for k in range(lo, hi + 1) if k < span.start or k > span.end]


def per_span_long_range_feature(spans, enc, y, window, keep, params):
    """`scoring.long_range_feature` with the window of each span ranked on its
    own: a window list, a (window × d)·(d × candidates) einsum, a finiteness
    check and a stable argsort per span; the kept words enter the graph as
    in the document-wide version."""
    if not 1 <= keep <= window:
        raise ValueError(f"need window >= keep >= 1, got window={window} keep={keep}")
    bounds = np.cumsum([0] + [len(span.candidates) for span in spans])
    kept, best = [], []  # per span: the kept positions, and each one's best pair
    for i, span in enumerate(spans):
        positions = context_window(span, len(enc), window)
        scores = np.zeros((0, 1))  # no context word: nothing is kept
        if positions:
            scores = np.einsum("wd,cd->wc", enc.x.data[positions] * params.att_a.data,
                               y.data[bounds[i]:bounds[i + 1]])
            if not np.all(np.isfinite(scores)):
                raise FloatingPointError("non-finite values in attention word scores")
        top = np.sort(np.argsort(-scores.max(axis=1), kind="stable")[:keep])
        kept.append(np.asarray(positions, dtype=np.intp)[top])
        best.append(bounds[i] + scores[top].argmax(axis=1))

    def contexts(count, members):
        if count == 0:
            return ad.constant(np.zeros((len(members), enc.x.shape[1])))
        x_kept = ad.take_rows(enc.x, [kept[i] for i in members])
        beta = ad.softmax(ad.dot(ad.take_rows(y, [best[i] for i in members]),
                                 ad.mul(x_kept, params.att_a)))
        return ad.weighted_sum(x_kept, beta)

    c = rows_by_group([len(k) for k in kept], contexts)
    return ad.dot(y, ad.mul(ad.take_rows(c, scoring._pair_spans(spans)), params.att_b))


# ---------------------------------------------------------------------------
# Adam with fresh temporaries: the oracle for the in-place `autodiff.adam_step`


def reference_adam_step(state, params, grads):
    """Bias-corrected Adam, each intermediate a new array and each parameter
    rebound to a new one."""
    state.step += 1
    b1t = 1.0 - state.beta1 ** state.step
    b2t = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        g = np.asarray(grads[name])
        if g.shape != p.data.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} != {p.data.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / b1t
        v_hat = v / b2t
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


# ---------------------------------------------------------------------------
# per-pair views: the oracle for the pair table reaching the loss and the
# decoder whole


def reference_candidate_rows(model, spans):
    """`LinkingModel.candidate_rows` with one entity lookup per pair, as it
    was before it resolved each distinct candidate list once: its oracle."""
    ids = [c.entity_id for span in spans for c in span.candidates]
    rows = [model.entities.index(e) for e in ids]
    y = ad.take_rows(model._entity_rows, [r or 0 for r in rows])
    if None not in rows:
        return y
    for e in {e for e, r in zip(ids, rows) if r is None}:
        model.entities.vector(e)  # logs the missing vector once
    return ad.mul(y, ad.constant(np.outer([r is not None for r in rows], np.ones(y.shape[1]))))


def view_pair_scores(model, doc, spans, mode="eval", rng=None):
    """`model.pair_scores` returning one `PairScore` per pair, whose scores
    are element views of the document's score vectors."""
    enc = model.encode(doc, mode=mode, rng=rng)
    spans = [span for span in spans if span.candidates]
    if not spans:
        return []
    y = model.candidate_rows(spans)
    ctx = None
    if model.use_attention:
        ctx = scoring.long_range_feature(spans, enc, y, model.attention_window,
                                         model.attention_keep, model.scorer)
    psi = scoring.local_score(mention_repr(spans, enc, model.encoder), spans, y, ctx,
                              model.scorer)
    g = phi = None
    if model.use_global:
        voters = scoring.filter_voters(psi.data, model.global_cfg)
        g = scoring.global_score(y, scoring.vote_vector(spans, y, voters))
        phi = scoring.combine_global(psi, g, model.scorer)
    return [PairScore(span=span, entity_id=c.entity_id, prior=c.prior, psi=ad.row(psi, j),
                      g=None if g is None else ad.row(g, j),
                      phi=None if phi is None else ad.row(phi, j))
            for j, (span, c) in enumerate((s, c) for s in spans for c in s.candidates)]


def view_document_loss(doc, spans, gold, model, cfg, rng=None, mode="train"):
    """`training.document_loss` over `view_pair_scores`: the per-pair psi
    views, then the phi views, stacked into one hinge vector."""
    gold_set = {(s, e, ent) for s, e, ent in gold}
    pairs = view_pair_scores(model, doc, spans, mode=mode, rng=rng)
    if not pairs:
        return ad.constant(np.asarray(0.0, dtype=ad.default_dtype()))
    scored = [(p.psi, p) for p in pairs] + [(p.phi, p) for p in pairs if p.phi is not None]
    is_gold = np.array([(p.span.start, p.span.end, p.entity_id) in gold_set
                        for _, p in scored])
    hinges = training.violation(ad.stack([score for score, _ in scored]), is_gold, cfg.gamma)
    return ad.sum1d(hinges)


# ---------------------------------------------------------------------------
# brute-force threshold sweep: the oracle for `inference.select_threshold`


def brute_select_threshold(pairs, gold, mode="strong"):
    """One full decode and evaluation per candidate threshold: every
    observed best-per-span score plus -inf, ties toward the larger one."""
    if not pairs:
        raise ValueError("empty dev set")
    candidates = sorted({p.score for p in inference.best_per_span(pairs)})
    best_delta = float("-inf")
    best_f1 = -1.0
    for delta in [float("-inf")] + candidates:
        report = inference.evaluate(inference.greedy_decode(pairs, delta), gold, mode=mode)
        if report.micro_f1 >= best_f1:
            best_f1 = report.micro_f1
            best_delta = delta
    return best_delta


# ---------------------------------------------------------------------------
# `min` per span, a set-based decode, a gold scan per prediction and a sweep
# that rematches every document that gained an annotation: the oracles for
# `inference.best_per_span`, `greedy_decode`, `_tp_gains` and
# `select_threshold`


def reference_best_per_span(pairs):
    """Argmax candidate per span; ties go to higher prior, then entity id."""
    by_span = {}
    for p in pairs:
        by_span.setdefault((p.span.doc_id, p.span.start, p.span.end), []).append(p)
    return [min(by_span[key], key=lambda p: (-p.score, -p.prior, p.entity_id))
            for key in sorted(by_span)]


def reference_greedy_decode(pairs, delta):
    """Best pairs above `delta` by descending score (ties: earlier start,
    shorter span, entity id, then document order), each kept when none of
    its tokens is in its document's set of taken tokens."""
    survivors = [p for p in reference_best_per_span(pairs) if p.score > delta]
    survivors.sort(key=lambda p: (-p.score, p.span.start,
                                  p.span.end - p.span.start, p.entity_id))
    taken = {}
    out = []
    for p in survivors:
        tokens = set(range(p.span.start, p.span.end + 1))
        used = taken.setdefault(p.span.doc_id, set())
        if tokens & used:
            continue
        used |= tokens
        out.append(inference.Annotation(doc_id=p.span.doc_id, start=p.span.start,
                                        end=p.span.end, entity_id=p.entity_id, score=p.score))
    out.sort(key=lambda a: (a.doc_id, a.start, a.end))
    return out


def reference_match_doc(preds, golds, mode):
    """Greedy pairing in document order; each gold matches at most once."""
    consumed = [False] * len(golds)
    tp = 0
    for a in sorted(preds, key=lambda a: (a.start, a.end, a.entity_id or "")):
        for i, (gs, ge, gent) in enumerate(golds):
            if consumed[i] or gent != a.entity_id:
                continue
            if mode == "strong":
                hit = (gs, ge) == (a.start, a.end)
            else:
                hit = a.start <= ge and gs <= a.end
            if hit:
                consumed[i] = True
                tp += 1
                break
    fp = len(preds) - tp
    fn = len(golds) - tp
    return tp, fp, fn


def reference_select_threshold(pairs, gold, mode="strong"):
    """The sweep from high to low threshold over the -inf decode's
    annotations, matching each document that gained one again as a whole."""
    if not pairs:
        raise ValueError("empty dev set")
    for p in pairs:
        if math.isnan(p.score):
            raise ValueError(f"document {p.span.doc_id!r}: span {p.span.start}-{p.span.end} "
                             f"scores NaN for entity {p.entity_id!r}")
    best = reference_best_per_span(pairs)  # decoding them gives the same annotations as all pairs
    kept = reference_greedy_decode(best, float("-inf"))
    inference.evaluate(kept, gold, mode=mode)  # validates the mode and the documents
    kept.sort(key=lambda a: -a.score)
    golds = {doc_id: list(gold[doc_id]) for doc_id in gold}
    preds = {doc_id: [] for doc_id in gold}
    counts = {doc_id: (0, 0, len(golds[doc_id])) for doc_id in gold}
    tp, fp, fn = 0, 0, sum(c[2] for c in counts.values())
    best_delta = float("-inf")
    best_f1 = -1.0
    i = 0
    for delta in sorted({p.score for p in best} | {float("-inf")}, reverse=True):
        changed = set()
        while i < len(kept) and kept[i].score > delta:
            preds[kept[i].doc_id].append(kept[i])
            changed.add(kept[i].doc_id)
            i += 1
        for doc_id in changed:
            old, counts[doc_id] = counts[doc_id], reference_match_doc(preds[doc_id],
                                                                      golds[doc_id], mode)
            tp += counts[doc_id][0] - old[0]
            fp += counts[doc_id][1] - old[1]
            fn += counts[doc_id][2] - old[2]
        f1 = inference._prf(tp, fp, fn)[2]
        if f1 > best_f1:
            best_f1 = f1
            best_delta = delta
    return best_delta


def shared_entity_document(seed=17, n_spans=400, n_entities=3):
    """One scored document ("d") of `n_spans` spans of 1-2 tokens at distinct
    starts among 2.5 `n_spans` positions, every span drawing its candidates
    from the same `n_entities` entities, and gold on about half the spans.
    Many annotations of one entity then compete for its overlapping golds
    under weak matching. Returns (pairs, gold)."""
    rng = np.random.default_rng(seed)
    pairs, gold = [], []
    for start in sorted(rng.choice(n_spans * 5 // 2, size=n_spans, replace=False)):
        span = MentionSpan("d", int(start), int(start) + int(rng.integers(0, 2)), "s",
                           [CandidateEntry(f"E{j}", 0.5) for j in range(n_entities)])
        pairs += [scoring.ScoredPair(span=span, entity_id=c.entity_id, prior=c.prior,
                                     psi=float(rng.normal())) for c in span.candidates]
        if rng.random() < 0.5:
            gold.append((span.start, span.end, f"E{int(rng.integers(0, n_entities))}"))
    return pairs, {"d": gold}


# ---------------------------------------------------------------------------
# record-by-record loaders: the oracles for `candidates.load_index` and
# `embeddings.load_text_embeddings`


def reference_load_index(path: str) -> AliasIndex:
    reader = binfile.Reader(path, INDEX_MAGIC)
    s, max_len, n_surfaces = reader.unpack(INDEX_HEADER, "header")
    if s < 1 or max_len < 1:
        raise reader.error(f"candidate limit s={s} and max span length {max_len} must both "
                           f"be at least 1", "header", len(INDEX_MAGIC))
    entries: dict[str, list[CandidateEntry]] = {}
    for _ in range(n_surfaces):
        ((surface, n),) = reader.records(1, binfile.U32, "surface")
        start = reader.pos
        entries[surface] = reader.records(n, binfile.F64, "candidate", CandidateEntry)
        for entry in entries[surface]:
            if not 0.0 < entry.prior <= MAX_PRIOR:  # also false for nan
                raise _bad_prior(reader, surface, entries[surface], entry, start)
        if len(entries) % 1024 == 0:
            reader.release()
    reader.finish()
    return AliasIndex(entries, s=s, max_span_length=max_len)


def _bad_prior(reader: binfile.Reader, surface: str, entries: list[CandidateEntry],
               bad: CandidateEntry, start: int) -> ValueError:
    """The error for entry `bad` of a surface whose records begin at `start`."""
    at = start
    for e in entries:
        if e is bad:
            break
        at += 2 + len(e.entity_id.encode("utf-8")) + binfile.F64.size
    return reader.error(f"prior {bad.prior} of {bad.entity_id!r} for surface {surface!r} "
                        f"outside (0, 1]", "candidate", at)


def reference_load_text_embeddings(path: str) -> tuple[dict[str, int], np.ndarray]:
    """Load a text embedding file into (key -> row index, matrix)."""
    vocab: dict[str, int] = {}
    linenos: list[int] = []  # each row's line, for the finiteness check after the loop
    with closing(text_lines(path)) as lines:
        _, header = next(lines, (1, ""))
        parts = header.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:1: header must be '<count> <dim>', got {header!r}")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}:1: header must be '<count> <dim>', got {header!r}") from None
        if count < 0 or dim <= 0:
            raise ValueError(f"{path}:1: bad count/dim {count}/{dim}")
        # a row is at least a 1-byte key and dim 1-byte values, each followed
        # by one separator byte (the last row may lack its newline)
        need = 2 * (dim + 1) * count - 1
        left = os.path.getsize(path) - len(header.encode("utf-8"))
        if count and need > left:
            raise ValueError(f"{path}:1: {count} rows of dim {dim} need at least {need} "
                             f"bytes, the file has {left} after the header")
        matrix = np.zeros((count, dim), dtype=np.float32)
        for lineno, line in lines:
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != dim + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} values, got {len(fields) - 1}")
            key = fields[0]
            if key in vocab:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            idx = len(vocab)
            if idx >= count:
                raise ValueError(f"{path}:{lineno}: more rows than declared count {count}")
            try:
                matrix[idx] = [float(v) for v in fields[1:]]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed float") from None
            vocab[key] = idx
            linenos.append(lineno)
    if len(vocab) != count:
        raise ValueError(f"{path}: declared {count} rows, found {len(vocab)}")
    bad = _non_finite_rows(matrix)
    if bad.size:
        raise ValueError(f"{path}:{linenos[bad[0]]}: non-finite value")
    return vocab, matrix


# ---------------------------------------------------------------------------
# one loop per text format: the oracles for `candidates.build_index` and
# `candidates.load_prior_index` (which, unlike them, accepts a blank surface
# in a prior file)


def reference_build_index(count_files, s=30, max_span_length=6) -> AliasIndex:
    counts: dict[str, dict[str, int]] = {}
    for path in count_files:
        for lineno, line in text_lines(path):
            if not line.strip():
                continue
            cols = line.rstrip("\n").split("\t")
            if len(cols) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            surface = normalize_surface(cols[0])
            if not surface:
                raise ValueError(f"{path}:{lineno}: empty surface")
            try:
                count = int(cols[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: count {cols[2]!r} is not an integer") \
                    from None
            if count <= 0:
                raise ValueError(f"{path}:{lineno}: count must be positive, got {count}")
            counts.setdefault(surface, {})
            counts[surface][cols[1]] = counts[surface].get(cols[1], 0) + count
    entries: dict[str, list[CandidateEntry]] = {}
    for surface, by_entity in counts.items():
        total = float(sum(by_entity.values()))
        ranked = sorted(
            (CandidateEntry(eid, c / total) for eid, c in by_entity.items()),
            key=lambda e: (-e.prior, e.entity_id))
        entries[surface] = ranked[:s]
    return AliasIndex(entries, s=s, max_span_length=max_span_length)


def reference_load_prior_index(path, s=30, max_span_length=6) -> AliasIndex:
    raw: dict[str, dict[str, float]] = {}
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        cols = line.rstrip("\n").split("\t")
        if len(cols) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
        surface = normalize_surface(cols[0])
        try:
            prior = float(cols[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: prior {cols[2]!r} is not a number") from None
        if not 0.0 < prior <= MAX_PRIOR:
            raise ValueError(f"{path}:{lineno}: prior {prior} outside (0, 1]")
        raw.setdefault(surface, {})
        if cols[1] in raw[surface]:
            raise ValueError(f"{path}:{lineno}: duplicate entry for "
                             f"({surface!r}, {cols[1]!r})")
        raw[surface][cols[1]] = prior
    entries = {
        surface: sorted((CandidateEntry(e, p) for e, p in by_entity.items()),
                        key=lambda c: (-c.prior, c.entity_id))[:s]
        for surface, by_entity in raw.items()
    }
    return AliasIndex(entries, s=s, max_span_length=max_span_length)


# ---------------------------------------------------------------------------
# one lookup per interval: the oracle for `candidates.enumerate_spans`


def reference_enumerate_spans(doc, index):
    """Every interval of at most `index.max_span_length` tokens whose joined
    surface `index.lookup` finds candidates for, sorted by (start, end)."""
    spans = []
    n = len(doc.tokens)
    for start in range(n):
        for end in range(start, min(start + index.max_span_length, n)):
            surface = doc.surface(start, end)
            cands = index.lookup(surface)
            if cands:
                spans.append(MentionSpan(doc_id=doc.doc_id, start=start, end=end,
                                         surface=surface, candidates=cands))
    return spans


# ---------------------------------------------------------------------------
# all-pairs coreference: the oracle for `candidates.apply_coreference_heuristic`


def _is_strict_contiguous_subsequence(short, long):
    if len(short) >= len(long):
        return False
    return any(list(long[i:i + len(short)]) == list(short)
               for i in range(len(long) - len(short) + 1))


def reference_coreference_heuristic(spans, doc):
    """Every span compared with every other span."""
    tokens = [tuple(doc.tokens[s.start:s.end + 1]) for s in spans]
    link = [None] * len(spans)
    for i, short in enumerate(tokens):
        best = None
        for j, long in enumerate(tokens):
            if j == i or len(long) < 2:
                continue
            if _is_strict_contiguous_subsequence(short, long):
                if best is None or (spans[j].start, spans[j].end) < \
                        (spans[best].start, spans[best].end):
                    best = j
        link[i] = best

    def root(i):
        while link[i] is not None:
            i = link[i]
        return i

    out = []
    for i, span in enumerate(spans):
        r = root(i)
        if r == i:
            out.append(span)
        else:
            out.append(MentionSpan(doc_id=span.doc_id, start=span.start, end=span.end,
                                   surface=span.surface,
                                   candidates=list(spans[r].candidates)))
    return out


# ---------------------------------------------------------------------------
# synthetic corpora


def overfit_corpus(n_surfaces=12, candidates_per_surface=3, n_docs=24, seed=0):
    """Ambiguous surfaces whose gold entity is identified by an adjacent
    companion token; gold is always in the candidate set.

    Returns (docs, index_table, word_tokens, entity_ids).
    """
    rng = np.random.default_rng(seed)
    surfaces = [f"surf{i}" for i in range(n_surfaces)]
    entities = {s: [f"ENT_{s}_{j}" for j in range(candidates_per_surface)]
                for s in surfaces}
    entity_ids = [e for s in surfaces for e in entities[s]]
    companions = {e: f"cue_{e}" for e in entity_ids}
    index_table = {
        s: [(e, p) for e, p in zip(entities[s], (0.5, 0.3, 0.2))]
        for s in surfaces
    }
    # a linkable surface that is never a gold mention, so all-spans training
    # must learn to suppress it
    index_table["lure"] = [("ENT_lure_0", 0.7), ("ENT_lure_1", 0.3)]
    entity_ids = entity_ids + ["ENT_lure_0", "ENT_lure_1"]
    fillers = ["the", "report", "said", "today"]
    combos = [(s, e) for s in surfaces for e in entities[s]]
    docs = []
    k = 0
    for d in range(n_docs):
        tokens, gold = [], []
        for _ in range(2):
            s, e = combos[k % len(combos)]
            k += 1
            tokens.append(fillers[int(rng.integers(0, len(fillers)))])
            tokens.append(companions[e])
            gold.append((len(tokens), len(tokens), e))
            tokens.append(s)
        if d % 2 == 0:
            tokens.append("lure")
        tokens.append(fillers[int(rng.integers(0, len(fillers)))])
        docs.append(Document(f"doc{d}", tokens, gold))
    word_tokens = surfaces + list(companions.values()) + fillers + ["lure"]
    return docs, index_table, word_tokens, entity_ids


def coherence_corpus(n_topics=4, n_train=60, n_dev=30, n_test=30, seed=0):
    """Corpus where an ambiguous mention is decidable only through the
    co-occurring unambiguous entity.

    Anchor mentions use single-use random surface strings that are absent
    from the word vectors (so text carries no transferable signal about the
    topic), each mapping to exactly one anchor entity in the alias index.
    Topic entity vectors pair with anchor vectors by construction, so only
    the voting layer can generalize the ambiguous mention's gold entity.

    Returns (train, dev, test, index_table, word_tokens, entity_store).
    """
    rng = np.random.default_rng(seed)
    dim = 16
    anchors = [f"U{i}" for i in range(n_topics)]
    topics = [f"A{i}" for i in range(n_topics)]
    # orthonormal frame: shared direction c plus one direction per topic
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    c = basis[:, 0]
    vectors = {}
    for i in range(n_topics):
        d_i = basis[:, i + 1]
        vectors[anchors[i]] = (c + 2.0 * d_i) / np.sqrt(5.0)
        vectors[topics[i]] = d_i
    ents = entity_store(anchors + topics, dim=dim,
                        vectors=np.stack([vectors[e] for e in anchors + topics]))

    fillers = ["begin", "filler", "stop"]
    index_table = {"amb": [(t, 1.0 / n_topics) for t in topics]}
    letters = "abcdefghijklmnopqrstuvwxyz"

    def make_split(n, tag):
        docs = []
        for d in range(n):
            i = int(rng.integers(0, n_topics))
            surface = "anch" + "".join(letters[j] for j in rng.integers(0, 26, size=8))
            index_table[surface] = [(anchors[i], 1.0)]
            tokens = [fillers[0], surface, fillers[1], "amb", fillers[2]]
            gold = [(1, 1, anchors[i]), (3, 3, topics[i])]
            docs.append(Document(f"{tag}{d}", tokens, gold))
        return docs

    train = make_split(n_train, "tr")
    dev = make_split(n_dev, "dv")
    test = make_split(n_test, "te")
    word_tokens = fillers + ["amb"]  # anchor surfaces stay out of the vocabulary
    return train, dev, test, index_table, word_tokens, ents


# ---------------------------------------------------------------------------
# on-disk fixture for the CLI pipeline


def write_pipeline_fixture(dir_path, seed=0, n_docs=24, max_steps=600,
                           eval_every=200, learning_rate=0.01):
    """Write corpus, embeddings, counts and config files for a full run.

    Returns a dict of paths plus the in-memory documents.
    """
    dir_path = str(dir_path)
    docs, index_table, word_tokens, entity_ids = overfit_corpus(n_docs=n_docs, seed=seed)
    dim = 16
    rng = np.random.default_rng([seed, 7])

    paths = {name: os.path.join(dir_path, fname) for name, fname in (
        ("words", "words.txt"), ("entities", "entities.txt"),
        ("counts", "counts.tsv"), ("corpus", "corpus.jsonl"),
        ("index", "index.bin"), ("checkpoint", "model.ckpt"),
        ("config", "config.json"), ("log", "train.log.jsonl"),
        ("annotations", "annotations.jsonl"),
    )}

    vocab = {t: i for i, t in enumerate(word_tokens)}
    matrix = rng.standard_normal((len(word_tokens), dim)).astype(np.float32)
    save_text_embeddings(vocab, matrix, paths["words"])

    evecs = rng.standard_normal((len(entity_ids), dim)).astype(np.float32)
    evecs /= np.linalg.norm(evecs, axis=1, keepdims=True)
    save_text_embeddings({e: i for i, e in enumerate(entity_ids)}, evecs, paths["entities"])

    with open(paths["counts"], "w", encoding="utf-8") as fh:
        for surface, cands in index_table.items():
            for entity, prior in cands:
                fh.write(f"{surface}\t{entity}\t{int(round(prior * 10))}\n")

    write_corpus_jsonl(docs, paths["corpus"])

    config = {
        "seed": seed,
        "paths.word_embeddings": paths["words"],
        "paths.entity_embeddings": paths["entities"],
        "paths.candidate_index": paths["index"],
        "paths.train_corpus": paths["corpus"],
        "paths.dev_corpus": paths["corpus"],
        "paths.checkpoint": paths["checkpoint"],
        "paths.train_log": paths["log"],
        "dims.word": dim, "dims.char": 4, "dims.char_hidden": 4,
        "dims.ctx_hidden": 8, "dims.entity": dim,
        "encoder.dropout_keep": 1.0,
        "train.learning_rate": learning_rate,
        "train.eval_every": eval_every,
        "train.max_steps": max_steps,
    }
    with open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return paths, docs
