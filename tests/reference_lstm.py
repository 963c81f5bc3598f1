"""Per-step LSTM reference: the test oracle for `autodiff.lstm_sequence`.

`lstm_step` is one LSTM step as its own tape node, reading one row of the
input matrix. `step_sequence` steps it through an `lstm_sequence` index
(`step_sequence_loss` does so under the tape, for gradients), and
the `ref_*` functions are the encoders and decoders written one sequence
and one step at a time on top of it, so a model forward can be compared
against the batched path by patching them in. `cross_entropy` (one logits
vector), `add_chain` and `mean_of` are the scalar-at-a-time loss ops the
oracles sum their per-position and per-unit losses with, and `transpose` the
2-D transpose the per-unit oracles take their dot products with.
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


def step_sequence(xs: Tensor, index: np.ndarray, hc0: Tensor, wx: Tensor, wh: Tensor,
                  b: Tensor) -> np.ndarray:
    """Every step's h, [T*B, H] with row t*B + b, by stepping each sequence alone."""
    T, B = index.shape
    H = wh.shape[0]
    out = np.empty((T, B, H))
    for col in range(B):
        hc = Tensor(hc0.data[col:col + 1])
        for t in range(T):
            if index[t, col] >= 0:
                hc = lstm_step(xs, int(index[t, col]), hc, wx, wh, b)
            out[t, col] = hc.data[0, :H]
    return out.reshape(T * B, H)


def step_sequence_loss(xs: Tensor, index: np.ndarray, hc0: Tensor, wx: Tensor, wh: Tensor,
                       b: Tensor, weights: np.ndarray) -> Tensor:
    """sum over t and b of weights[t, b] . h[t, b] ([T, B, H] weights), with
    each sequence stepped alone, so a tape records its gradients."""
    T, B = index.shape
    H = wh.shape[0]
    terms = []
    for col in range(B):
        hc = ad.take_rows(hc0, [col])
        for t in range(T):
            if index[t, col] >= 0:
                hc = lstm_step(xs, int(index[t, col]), hc, wx, wh, b)
            terms.append(ad.sum_all(ad.mul(ad.slice_cols(hc, 0, H), Tensor(weights[t, col:col + 1]))))
    return add_chain(terms)


# ---------------------------------------------------------------------------
# the model's recurrences, one sequence and one step at a time

def ref_bi_lstm_states(ids: Sequence[int], enc, embedding: Tensor) -> Tensor:
    n = len(ids)
    hidden = enc.fwd.wh.shape[0]
    emb = ad.take_rows(embedding, list(ids))
    hc = ad.zeros_const((1, 2 * hidden))
    fwd_states = []
    for t in range(n):
        hc = lstm_step(emb, t, hc, enc.fwd.wx, enc.fwd.wh, enc.fwd.b)
        fwd_states.append(hc)
    hc = ad.zeros_const((1, 2 * hidden))
    bwd_states = []
    for t in range(n - 1, -1, -1):
        hc = lstm_step(emb, t, hc, enc.bwd.wx, enc.bwd.wh, enc.bwd.b)
        bwd_states.append(hc)
    h_f = ad.slice_cols(ad.concat(fwd_states, axis=0), 0, hidden)
    h_b_rev = ad.slice_cols(ad.concat(bwd_states, axis=0), 0, hidden)
    h_b = ad.take_rows(h_b_rev, list(range(n - 1, -1, -1))) if n > 1 else h_b_rev
    return ad.concat([h_f, h_b], axis=1)


def ref_encode_sentence(ids: Sequence[int], enc, embedding: Tensor) -> Tensor:
    """Final forward/backward states of one sentence, projected, [1, d_q]."""
    ids = list(ids)
    hidden = enc.fwd.wh.shape[0]
    if not ids:
        return ad.zeros_const((1, enc.proj_w.shape[1]))
    emb = ad.take_rows(embedding, ids)
    hc = ad.zeros_const((1, 2 * hidden))
    for t in range(len(ids)):
        hc = lstm_step(emb, t, hc, enc.fwd.wx, enc.fwd.wh, enc.fwd.b)
    final_f = ad.slice_cols(hc, 0, hidden)
    hc = ad.zeros_const((1, 2 * hidden))
    for t in range(len(ids) - 1, -1, -1):
        hc = lstm_step(emb, t, hc, enc.bwd.wx, enc.bwd.wh, enc.bwd.b)
    final_b = ad.slice_cols(hc, 0, hidden)
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
    emb = ad.take_rows(embedding, [BOS_ID] + tokens[:-1])
    hc = ad.concat([ad.reshape(fused, (1, d_q)), ad.zeros_const((1, d_q))], axis=1)
    losses = []
    for t, target in enumerate(tokens):
        hc = lstm_step(emb, t, hc, params.gen.wx, params.gen.wh, params.gen.b)
        h = ad.slice_cols(hc, 0, d_q)
        logits = ad.add(ad.matmul(h, params.out_w), params.out_b)
        losses.append(cross_entropy(ad.reshape(logits, (vocab,)), target))
    return losses


def ref_generative_loss(fused: Tensor, answer_tokens, embedding: Tensor, params) -> Tensor:
    return mean_of(ref_position_losses(fused, answer_tokens, embedding, params))


def ref_generative_rank(fused: Tensor, candidates, embedding: Tensor, params) -> Tensor:
    scores = []
    for cand in candidates:
        tokens = list(cand)
        if not tokens or tokens[-1] != EOS_ID:
            tokens = tokens + [EOS_ID]
        total = sum(l.item() for l in ref_position_losses(fused, tokens, embedding, params))
        scores.append(-total / len(tokens))
    return Tensor(np.asarray(scores))
