"""Per-step LSTM reference: the test oracles for `autodiff.lstm_sequence`.

`lstm_step` is one LSTM step as its own tape node, reading one row of the
input matrix. `step_sequence` steps it through an `lstm_sequence` index
from the packed states [h0, 0] (`step_sequence_loss` does so under the
tape, for gradients). `lstm_sequence_rows` is the fused op with row-major
gates, fresh step buffers and a packed initial state [h, c]; started from
[h0, 0], it must give the gate-major op's states and gradients bit for
bit. Like the package, it forms a one-row product on two copies of the
row (`gemm`). The `ref_*` functions are the encoders and decoders written
one sequence and one step at a time on top of `lstm_step`, so a model
forward can be compared against the batched path by patching them in.
`cross_entropy` (one logits vector), `add_chain` and `mean_of` are the
scalar-at-a-time loss ops the oracles sum their per-position and per-unit
losses with, `transpose` the 2-D transpose the per-unit oracles take
their dot products with, and `columns` the column slice they read a packed
state's h or one head's columns with, composed from the package's ops.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from grounddial import autodiff as ad
from grounddial.autodiff import ContractError, DimensionError, Tensor, _record
from grounddial.data import BOS_ID, EOS_ID


def cross_entropy(logits: Tensor, target_index: int) -> Tensor:
    """-log softmax(logits)[target_index] for a rank-1 logits vector."""
    if logits.data.ndim != 1:
        raise DimensionError(f"cross_entropy expects a vector, got shape {logits.shape}")
    n = logits.shape[0]
    if not (0 <= target_index < n):
        raise IndexError(f"target index {target_index} out of range for {n} logits")
    z = logits.data
    m = z.max()
    e = np.exp(z - m)
    s = e.sum()
    out = Tensor(math.log(s) + m - z[target_index])
    probs = e / s

    def rule(g):
        d = probs * float(g)
        d[target_index] -= float(g)
        return (d,)

    return _record(out, (logits,), rule)


def add_chain(terms: Sequence[Tensor]) -> Tensor:
    """Left-to-right sum of scalar tensors (deterministic order)."""
    terms = list(terms)
    if not terms:
        raise ContractError("add_chain of zero terms")
    acc = terms[0]
    for t in terms[1:]:
        acc = ad.add(acc, t)
    return acc


def mean_of(terms: Sequence[Tensor]) -> Tensor:
    terms = list(terms)
    return ad.scale(add_chain(terms), 1.0 / len(terms))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose needs a matrix, got shape {a.shape}")
    out = Tensor(a.data.T.copy())

    def rule(g):
        return (g.T.copy(),)

    return _record(out, (a,), rule)


def columns(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns start:stop of a matrix: its transpose's rows gathered and
    transposed back, so the gradient is zero outside the columns."""
    rows = ad.gather_rows(ad.permute(a, (1, 0)), np.arange(start, stop))
    return ad.permute(rows, (1, 0))


def lstm_step(xs: Tensor, row: int, hc: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """One LSTM step, fused into a single tape node.

    xs: [m, d_in] input matrix, consuming row `row`; hc: [1, 2H] packed
    state (h then c); wx: [d_in, 4H]; wh: [H, 4H]; b: [1, 4H] with gate
    order i, f, o, g. Returns the next packed [1, 2H] state.
    """
    H = hc.shape[1] // 2
    if wx.shape != (xs.shape[1], 4 * H) or wh.shape != (H, 4 * H) or b.shape != (1, 4 * H):
        raise DimensionError(
            f"lstm_step shapes: xs {xs.shape}, hc {hc.shape}, wx {wx.shape}, wh {wh.shape}, b {b.shape}"
        )
    x = xs.data[row:row + 1]
    h = hc.data[:, :H]
    c = hc.data[:, H:]
    z = x @ wx.data + h @ wh.data + b.data
    i = 1.0 / (1.0 + np.exp(-z[:, :H]))
    f = 1.0 / (1.0 + np.exp(-z[:, H:2 * H]))
    o = 1.0 / (1.0 + np.exp(-z[:, 2 * H:3 * H]))
    gg = np.tanh(z[:, 3 * H:])
    c2 = f * c + i * gg
    t2 = np.tanh(c2)
    h2 = o * t2
    out = Tensor(np.concatenate([h2, c2], axis=1))
    m_rows = xs.shape[0]
    wxd, whd = wx.data, wh.data

    def rule(g):
        gh = g[:, :H]
        gc_in = g[:, H:]
        do = gh * t2
        dc2 = gc_in + gh * o * (1.0 - t2 * t2)
        df = dc2 * c
        dc = dc2 * f
        di = dc2 * gg
        dgg = dc2 * i
        dz = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                do * o * (1.0 - o),
                dgg * (1.0 - gg * gg),
            ],
            axis=1,
        )
        dx = dz @ wxd.T
        dh = dz @ whd.T
        dxs = np.zeros((m_rows, x.shape[1]))
        dxs[row] = dx[0]
        dhc = np.concatenate([dh, dc], axis=1)
        dwx = x.T @ dz
        dwh = h.T @ dz
        return dxs, dhc, dwx, dwh, dz.copy()

    return _record(out, (xs, hc, wx, wh, b), rule)


def step_sequence(xs: Tensor, index: np.ndarray, h0: Tensor, wx: Tensor, wh: Tensor,
                  b: Tensor) -> np.ndarray:
    """Every step's h, [T*B, H] with row t*B + b, by stepping each sequence
    alone from the state (h0 row, 0)."""
    T, B = index.shape
    H = wh.shape[0]
    out = np.empty((T, B, H))
    for col in range(B):
        hc = Tensor(np.concatenate([h0.data[col:col + 1], np.zeros((1, H))], axis=1))
        for t in range(T):
            if index[t, col] >= 0:
                hc = lstm_step(xs, int(index[t, col]), hc, wx, wh, b)
            out[t, col] = hc.data[0, :H]
    return out.reshape(T * B, H)


def step_sequence_loss(xs: Tensor, index: np.ndarray, h0: Tensor, wx: Tensor, wh: Tensor,
                       b: Tensor, weights: np.ndarray) -> Tensor:
    """sum over t and b of weights[t, b] . h[t, b] ([T, B, H] weights), with
    each sequence stepped alone from (h0 row, 0), so a tape records its
    gradients."""
    T, B = index.shape
    H = wh.shape[0]
    terms = []
    for col in range(B):
        hc = ad.concat([ad.gather_rows(h0, [col]), Tensor(np.zeros((1, H)))], axis=1)
        for t in range(T):
            if index[t, col] >= 0:
                hc = lstm_step(xs, int(index[t, col]), hc, wx, wh, b)
            terms.append(ad.sum_all(ad.mul(columns(hc, 0, H), Tensor(weights[t, col:col + 1]))))
    return add_chain(terms)


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b by BLAS's GEMM: a one-row a is formed on two copies of its row,
    as the package forms every one-row forward product."""
    return (np.repeat(a, 2, axis=0) @ b)[:1] if a.shape[0] == 1 else a @ b


def lstm_sequence_rows(table: Tensor, index, hc0: Tensor, wx: Tensor, wh: Tensor,
                       b: Tensor) -> Tensor:
    """`autodiff.lstm_sequence` as it was with row-major gates: each step's
    activations in one [B, 4H] buffer, i, f, o, g side by side in its
    columns, fresh step buffers on every call, and the packed initial state
    hc0 [B, 2H] (h then c). From hc0 = [h0, 0] the gate-major op must give
    the same states and gradients bit for bit.
    """
    idx = np.asarray(index, dtype=np.intp)
    if idx.ndim != 2:
        raise DimensionError(f"lstm_sequence index must be [T, B], got shape {idx.shape}")
    T, B = idx.shape
    H = wh.shape[0]
    if (table.data.ndim != 2 or wx.shape != (table.shape[1], 4 * H) or wh.shape != (H, 4 * H)
            or b.shape != (1, 4 * H) or hc0.shape != (B, 2 * H)):
        raise DimensionError(
            f"lstm_sequence shapes: table {table.shape}, index {idx.shape}, hc0 {hc0.shape}, "
            f"wx {wx.shape}, wh {wh.shape}, b {b.shape}"
        )
    if idx.size and (idx.min() < -1 or idx.max() >= table.shape[0]):
        raise IndexError(f"lstm_sequence index outside [-1, {table.shape[0]})")
    live = idx >= 0
    full = live.all(axis=1)
    # the distinct rows read, and for each read (step-major, as dz in the
    # rule) its row among them
    used, inv, counts = np.unique(idx[live], return_inverse=True, return_counts=True)
    local = np.full((T, B), -1, dtype=np.intp)
    local[live] = inv
    inputs = (table, hc0, wx, wh, b)
    record = ad._ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)
    x_used, wxd, whd = table.data[used], wx.data, wh.data
    proj = gemm(x_used, wxd) if used.size else np.zeros((1, 4 * H))
    proj += b.data
    hs = np.empty((T, B, H))
    if record:
        gates = np.empty((T, B, 4 * H))                    # i, f, o, g after activation
        h_prev = np.empty((T, B, H))
        c_prev = np.empty((T, B, H))
        tanh_c = np.empty((T, B, H))
    h = hc0.data[:, :H]
    c = hc0.data[:, H:]
    z = np.empty((B, 4 * H))                               # step buffers, reused
    zh = np.empty((B, 4 * H))
    for t in range(T):
        # the index was range-checked above; a -1 reads row 0 and its
        # result is discarded below
        np.take(proj, local[t], axis=0, out=z, mode="clip")
        z += np.matmul(h, whd, out=zh) if B > 1 else gemm(h, whd)
        ifo = z[:, :3 * H]                                 # sigmoid of i, f, o, in place
        np.negative(ifo, out=ifo)
        np.exp(ifo, out=ifo)
        ifo += 1.0
        np.reciprocal(ifo, out=ifo)
        gg = np.tanh(z[:, 3 * H:], out=z[:, 3 * H:])
        c2 = ifo[:, H:2 * H] * c
        c2 += ifo[:, :H] * gg
        tc = np.tanh(c2)
        h2 = np.multiply(ifo[:, 2 * H:], tc, out=hs[t])
        if not full[t]:
            keep = ~live[t, :, None]
            np.copyto(c2, c, where=keep)
            np.copyto(h2, h, where=keep)
        if record:
            gates[t] = z
            h_prev[t] = h
            c_prev[t] = c
            tanh_c[t] = tc
        h, c = h2, c2
    out = Tensor(hs.reshape(T * B, H))
    if not record:
        return out

    def rule(g):
        g = g.reshape(T, B, H)
        dz = np.zeros((T, B, 4 * H))
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            dh = g[t] + dh_next
            i = gates[t, :, :H]
            f = gates[t, :, H:2 * H]
            o = gates[t, :, 2 * H:3 * H]
            gg = gates[t, :, 3 * H:]
            tc = tanh_c[t]
            dc = dc_next + dh * o * (1.0 - tc * tc)
            dzt = dz[t]
            dzt[:, :H] = dc * gg * i * (1.0 - i)
            dzt[:, H:2 * H] = dc * c_prev[t] * f * (1.0 - f)
            dzt[:, 2 * H:3 * H] = dh * tc * o * (1.0 - o)
            dzt[:, 3 * H:] = dc * i * (1.0 - gg * gg)
            dh_prev = dzt @ whd.T
            dc_prev = dc * f
            if not full[t]:
                keep = ~live[t, :, None]
                dzt[~live[t]] = 0.0
                dh_prev = np.where(keep, dh, dh_prev)
                dc_prev = np.where(keep, dc_next, dc_prev)
            dh_next, dc_next = dh_prev, dc_prev
        dwh = h_prev.reshape(T * B, H).T @ dz.reshape(T * B, 4 * H)
        dproj = np.zeros((used.size, 4 * H))               # per distinct row
        if used.size:
            starts = np.concatenate([[0], np.cumsum(counts[:-1])])
            np.add.reduceat(dz[live][np.argsort(inv, kind="stable")], starts, axis=0,
                            out=dproj)
        dtable = np.zeros(table.shape)
        dtable[used] = dproj @ wxd.T
        return (dtable, np.concatenate([dh_next, dc_next], axis=1),
                x_used.T @ dproj, dwh, dproj.sum(axis=0, keepdims=True))

    return _record(out, inputs, rule)


# ---------------------------------------------------------------------------
# the model's recurrences, one sequence and one step at a time

def ref_bi_lstm_states(ids: Sequence[int], enc, embedding: Tensor) -> Tensor:
    n = len(ids)
    hidden = enc.fwd.wh.shape[0]
    emb = ad.gather_rows(embedding, list(ids))
    hc = Tensor(np.zeros((1, 2 * hidden)))
    fwd_states = []
    for t in range(n):
        hc = lstm_step(emb, t, hc, enc.fwd.wx, enc.fwd.wh, enc.fwd.b)
        fwd_states.append(hc)
    hc = Tensor(np.zeros((1, 2 * hidden)))
    bwd_states = []
    for t in range(n - 1, -1, -1):
        hc = lstm_step(emb, t, hc, enc.bwd.wx, enc.bwd.wh, enc.bwd.b)
        bwd_states.append(hc)
    h_f = columns(ad.concat(fwd_states, axis=0), 0, hidden)
    h_b_rev = columns(ad.concat(bwd_states, axis=0), 0, hidden)
    h_b = ad.gather_rows(h_b_rev, list(range(n - 1, -1, -1))) if n > 1 else h_b_rev
    return ad.concat([h_f, h_b], axis=1)


def ref_encode_sentence(ids: Sequence[int], enc, embedding: Tensor) -> Tensor:
    """Final forward/backward states of one sentence, projected, [1, d_q]."""
    ids = list(ids)
    hidden = enc.fwd.wh.shape[0]
    if not ids:
        return Tensor(np.zeros((1, enc.proj_w.shape[1])))
    emb = ad.gather_rows(embedding, ids)
    hc = Tensor(np.zeros((1, 2 * hidden)))
    for t in range(len(ids)):
        hc = lstm_step(emb, t, hc, enc.fwd.wx, enc.fwd.wh, enc.fwd.b)
    final_f = columns(hc, 0, hidden)
    hc = Tensor(np.zeros((1, 2 * hidden)))
    for t in range(len(ids) - 1, -1, -1):
        hc = lstm_step(emb, t, hc, enc.bwd.wx, enc.bwd.wh, enc.bwd.b)
    final_b = columns(hc, 0, hidden)
    state = ad.concat([final_f, final_b], axis=1)
    return ad.add(ad.matmul(state, enc.proj_w), enc.proj_b)


def ref_encode_history(elements, params) -> Tensor:
    return ad.concat([ref_encode_sentence(e, params.history, params.embedding)
                      for e in elements], axis=0)


def ref_discriminative_scores(fused: Tensor, candidates, embedding: Tensor, params) -> Tensor:
    n = len(candidates)
    cand_mat = ad.concat([ref_encode_sentence(c, params.cand, embedding) for c in candidates],
                         axis=0)
    d_q = fused.shape[0]
    left = ad.matmul(ad.reshape(fused, (1, d_q)), params.bilinear)
    return ad.reshape(ad.matmul(left, transpose(cand_mat)), (n,))


def ref_position_losses(fused: Tensor, tokens: Sequence[int], embedding: Tensor,
                        params) -> list[Tensor]:
    tokens = list(tokens)
    d_q = fused.shape[0]
    vocab = params.out_w.shape[1]
    emb = ad.gather_rows(embedding, [BOS_ID] + tokens[:-1])
    hc = ad.concat([ad.reshape(fused, (1, d_q)), Tensor(np.zeros((1, d_q)))], axis=1)
    losses = []
    for t, target in enumerate(tokens):
        hc = lstm_step(emb, t, hc, params.gen.wx, params.gen.wh, params.gen.b)
        h = columns(hc, 0, d_q)
        logits = ad.add(ad.matmul(h, params.out_w), params.out_b)
        losses.append(cross_entropy(ad.reshape(logits, (vocab,)), target))
    return losses


def ref_generative_loss(fused: Tensor, answer_tokens, embedding: Tensor, params) -> Tensor:
    return mean_of(ref_position_losses(fused, answer_tokens, embedding, params))


def ref_generative_rank(fused: Tensor, candidates, embedding: Tensor, params) -> Tensor:
    scores = []
    for cand in candidates:
        tokens = list(cand) + [EOS_ID]
        total = sum(l.item() for l in ref_position_losses(fused, tokens, embedding, params))
        scores.append(-total / len(tokens))
    return Tensor(np.asarray(scores))
