"""Per-unit model forward: the test oracle for the batched path in `model`.

These are the encoders, grounding, decoders and forward passes written one
(dialog, round) unit at a time, on [n, d] matrices, exactly as the package
ran them before it batched units. `model.forward_batch` must give the mean
of `forward_unit`'s losses, and `model.infer_batch_scores` each unit's
`infer_unit_scores`, to a stated tolerance. The recurrences are looked up
as module globals, so tests can patch in the per-step versions from
`reference_lstm` as well.

The module also keeps the composed forms that the package's one-node
layers replaced, as bit-for-bit oracles: every product through BLAS
(`matmul_blas`), the bias row tiled by a ones column (`tile_rows`,
`affine_tiled`), the layer norm built from ones-vector products and an
elementwise `power` (`layer_norm_rows`) and multi-head fusion one head at
a time (`fuse_context_per_head`). `composed_layers()` routes the package through
them. `generative_rank_per_column` is generative ranking as it ran before
it shared decoder states: each candidate its own sequence from a copy of
its unit's state, the bit-for-bit oracle of `decoders.generative_rank`.
`prepare_unit` builds one unit with every list its own copy, as the package
did before units borrowed their round's lists: the oracle of
`model.prepare_units`. `gather_rows_padded_copy` reads padded rows from a
copy of the matrix with a zero row appended, in plain NumPy: the
bit-for-bit oracle of `autodiff.gather_rows`.

`gather_first()` routes the model's context encoding and grounding through
the composition the package ran before it gathered late: every unit's
history sentences and image regions packed unit by unit, repeats included,
and gathered into the [B, n] grids before the key, value, region and
region-side products (the history rows from the distinct rows that
`encoders.encode_history` returns, in one gather). Its inference is the
package's bit for bit, and its losses and gradients agree to the last bits
of the shared weights' gradients, which the package sums over duplicate
rows before the product.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import pytest

from grounddial import autodiff as ad
from grounddial import encoders, model
from grounddial.autodiff import DegenerateSliceError, DimensionError, Tensor, _record
from grounddial.data import BOS_ID, EOS_ID
from grounddial.decoders import _teacher_forced_position_losses
from grounddial.encoders import (
    encode_sentences,
    pack_sequences,
    padded_rows,
    project_regions,
)
from grounddial.grounding import pool, region_weights
from reference_lstm import columns, cross_entropy, gemm, transpose


# ---------------------------------------------------------------------------
# the composed layers

def matmul_blas(a: Tensor, b: Tensor) -> Tensor:
    """`ad.matmul` with every product by BLAS, a k=1 GEMM included (einsum
    only for a one-column output, and a one-row left operand on two copies
    of its row, as the package forms them)."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes do not agree: {a.shape} x {b.shape}")
    ad_, bd = a.data, b.data
    out = Tensor(np.einsum("ij,jk->ik", ad_, bd) if bd.shape[1] == 1 else gemm(ad_, bd))

    def rule(g):
        return (g @ bd.T if a.requires_grad else None,
                ad_.T @ g if b.requires_grad else None)

    return _record(out, (a, b), rule)


def tile_rows(row: Tensor, n: int) -> Tensor:
    """Repeat a [1, d] row n times, as a product with a ones column."""
    return ad.matmul(Tensor(np.ones((n, 1))), row)


def affine_tiled(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.add(ad.matmul(x, w), tile_rows(b, x.shape[0]))


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p with a constant exponent; the caller keeps a in the
    domain."""
    p = float(p)
    out = Tensor(a.data ** p)
    ad_ = a.data

    def rule(g):
        return (g * p * ad_ ** (p - 1.0),)

    return _record(out, (a,), rule)


def layer_norm_rows(t: Tensor, eps: float = 1e-5) -> Tensor:
    """Parameter-free layer norm over the last axis of a matrix, per row."""
    m, d = t.shape
    col = Tensor(np.ones((d, 1)))
    row = Tensor(np.ones((1, d)))
    mean = ad.scale(ad.matmul(t, col), 1.0 / d)            # [m, 1]
    centered = ad.add(t, ad.scale(ad.matmul(mean, row), -1.0))
    var = ad.scale(ad.matmul(ad.mul(centered, centered), col), 1.0 / d)
    inv = power(ad.add(var, Tensor(np.full(var.shape, eps))), -0.5)   # [m, 1]
    return ad.mul(centered, ad.matmul(inv, row))


def fuse_context_per_head(Q: Tensor, H: Tensor, mask_q: np.ndarray, rows_h: np.ndarray,
                          params) -> Tensor:
    """`encoders.fuse_context` with a batch's heads run one after another."""
    B, lam, d_q = Q.shape
    rows_h = np.asarray(rows_h, dtype=np.intp)
    T = rows_h.shape[1]
    mask_q = np.asarray(mask_q, dtype=bool)
    n_h = params.n_heads
    dh = d_q // n_h
    q_rows = ad.reshape(Q, (B * lam, d_q))
    qp = ad.matmul(q_rows, params.w_q)
    kp = ad.reshape(ad.gather_rows(ad.matmul(H, params.w_k), rows_h), (B * T, d_q))
    vp = ad.reshape(ad.gather_rows(ad.matmul(H, params.w_v), rows_h), (B * T, d_q))
    keys = np.broadcast_to((rows_h < H.shape[0])[:, None, :], (B, lam, T))
    heads = []
    for h in range(n_h):
        q_h = ad.reshape(columns(qp, h * dh, (h + 1) * dh), (B, lam, dh))
        k_h = ad.reshape(columns(kp, h * dh, (h + 1) * dh), (B, T, dh))
        v_h = ad.reshape(columns(vp, h * dh, (h + 1) * dh), (B, T, dh))
        logits = ad.scale(ad.bmm(q_h, k_h, transpose_b=True), 1.0 / math.sqrt(dh))
        attn = ad.masked_softmax(logits, axis=2, mask=keys)
        heads.append(ad.reshape(ad.bmm(attn, v_h), (B * lam, dh)))
    out = ad.matmul(ad.concat(heads, axis=1), params.w_o)
    if params.fusion_residual:
        out = layer_norm_rows(ad.add(out, q_rows))
    keep = np.repeat(mask_q.reshape(B * lam, 1).astype(float), d_q, axis=1)
    return ad.reshape(ad.mul(out, Tensor(keep)), (B, lam, d_q))


def gather_rows_padded_copy(rows: Tensor, index: np.ndarray) -> Tensor:
    """rows[index] stacked to index.shape + [d], an index equal to len(rows)
    reading the appended zero row. The gradient is `np.add.at` into the
    padded copy, its zero row then dropped; where no row, the pad row
    included, is read twice it is assigned instead, so a -0.0 is kept."""
    index = np.asarray(index, dtype=np.intp)
    n, d = rows.shape
    out = Tensor(np.concatenate([rows.data, np.zeros((1, d))])[index])
    flat = index.reshape(-1)

    def rule(g):
        acc = np.zeros((n + 1, d))
        if len(set(flat.tolist())) == flat.size:
            acc[flat] = g.reshape(-1, d)
        else:
            np.add.at(acc, flat, g.reshape(-1, d))
        return (acc[:n],)

    return _record(out, (rows,), rule)


# ---------------------------------------------------------------------------
# the gather-first composition

def fuse_context_gather_first(Q: Tensor, H: Tensor, mask_q: np.ndarray, mask_h: np.ndarray,
                              params) -> Tensor:
    """`encoders.fuse_context` on history rows already gathered into the
    [B, T, d_q] grid, mask_h marking the real ones."""
    B, lam, d_q = Q.shape
    T = H.shape[1]
    mask_q = np.asarray(mask_q, dtype=bool)
    mask_h = np.asarray(mask_h, dtype=bool)
    n_h = params.n_heads
    dh = d_q // n_h
    q_rows = ad.reshape(Q, (B * lam, d_q))
    h_rows = ad.reshape(H, (B * T, d_q))

    def heads(rows: Tensor, n: int) -> Tensor:
        return ad.permute(ad.reshape(rows, (B, n, n_h, dh)), (0, 2, 1, 3))

    q = heads(ad.matmul(q_rows, params.w_q), lam)
    k = heads(ad.matmul(h_rows, params.w_k), T)
    v = heads(ad.matmul(h_rows, params.w_v), T)
    keys = np.broadcast_to(mask_h[:, None, None, :], (B, n_h, lam, T))
    logits = ad.scale(ad.bmm(q, k, transpose_b=True), 1.0 / math.sqrt(dh))
    attended = ad.bmm(ad.masked_softmax(logits, axis=3, mask=keys), v)
    concat = ad.reshape(ad.permute(attended, (0, 2, 1, 3)), (B * lam, d_q))
    out = ad.matmul(concat, params.w_o)
    if params.fusion_residual:
        out = ad.layer_norm(ad.add(out, q_rows))
    keep = np.repeat(mask_q.reshape(B * lam, 1).astype(float), d_q, axis=1)
    return ad.reshape(ad.mul(out, Tensor(keep)), (B, lam, d_q))


def cross_attend_gather_first(I: Tensor, queries: Tensor, values: Tensor, mask_x: np.ndarray,
                              params, mask_i: np.ndarray) -> Tensor:
    """`grounding.cross_attend`'s I_x on regions already gathered into the
    [B, mu, d] grid, mask_i marking the real ones."""
    B, mu, d = I.shape
    lam = queries.shape[1]

    def project(t: Tensor, w: Tensor) -> Tensor:
        n = t.shape[1]
        return ad.reshape(ad.matmul(ad.reshape(t, (B * n, d)), w), (B, n, d))

    logits = ad.scale(ad.bmm(project(I, params.att_wi), project(queries, params.att_wx),
                             transpose_b=True), 1.0 / math.sqrt(d))
    tokens = np.broadcast_to(np.asarray(mask_x, dtype=bool)[:, None, :], (B, mu, lam))
    regions = Tensor(np.broadcast_to(np.asarray(mask_i, dtype=bool)[:, :, None], (B, mu, lam)))
    P = ad.mul(ad.masked_softmax(logits, axis=2, mask=tokens), regions)
    return ad.add(ad.bmm(P, values), I)


def prior_gather_first(params, batch: model.Batch):
    """`model._prior` packing every unit's history sentences and regions
    unit by unit, repeats included, and gathering them into the grids
    before any product: (x, I, g, I_x), I the [B, mu, d] grid."""
    enc, units = params.encoder, batch.units
    history, history_of = encoders.encode_history(batch.history, enc)
    history_rows, history_mask = padded_rows([len(u.history) for u in units], history_of,
                                             history.shape[0])
    mus = [u.features.shape[0] for u in units]
    region_rows, region_mask = padded_rows(mus, np.arange(sum(mus)), sum(mus))
    regions = Tensor(np.concatenate([u.features for u in units], axis=0))
    Q = model.encode_tokens(batch.questions, batch.q_mask.shape[1], enc.question, enc.embedding)
    H = ad.gather_rows(history, history_rows)
    x = fuse_context_gather_first(Q, H, batch.q_mask, history_mask, enc)
    I = ad.gather_rows(project_regions(regions, enc), region_rows)
    I_x = cross_attend_gather_first(I, x, x, batch.q_mask, params.grounding, region_mask)
    return x, I, region_weights(I_x, params.grounding, region_mask), I_x


def posterior_gather_first(params, batch: model.Batch, x: Tensor, I: Tensor):
    """`model._posterior` on the grid I of `prior_gather_first`: (G, v_post)."""
    enc = params.encoder
    y = model.encode_tokens(batch.answers, batch.q_mask.shape[1], enc.answer, enc.embedding)
    mus = [u.features.shape[0] for u in batch.units]
    region_mask = np.arange(max(mus)) < np.array(mus)[:, None]
    I_x_post = cross_attend_gather_first(I, ad.add(x, y), x, batch.q_mask, params.grounding,
                                         region_mask)
    G = region_weights(I_x_post, params.grounding, region_mask)
    return G, pool(G, I_x_post)


@contextlib.contextmanager
def gather_first():
    """Run the model's prior and posterior on the gather-first composition."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(model, "_prior", prior_gather_first)
        m.setattr(model, "_posterior", posterior_gather_first)
        yield


@contextlib.contextmanager
def composed_layers():
    """Run the package on the composed layers above: `ad.matmul`,
    `ad.affine`, `ad.layer_norm` and the model's `fuse_context` replaced."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ad, "matmul", matmul_blas)
        m.setattr(ad, "affine", affine_tiled)
        m.setattr(ad, "layer_norm", layer_norm_rows)
        m.setattr(model, "fuse_context", fuse_context_per_head)
        yield


def generative_rank_per_column(fused: Tensor, candidates, embedding: Tensor,
                               params) -> np.ndarray:
    """`decoders.generative_rank` with every candidate its own teacher-forced
    sequence, started from its unit's row of `fused` copied to it, and every
    position's output distribution formed from its own state row."""
    seqs, owner = [], []
    for b, cands in enumerate(candidates):
        for cand in cands:
            seqs.append(list(cand) + [EOS_ID])
            owner.append(b)
    losses = _teacher_forced_position_losses(ad.gather_rows(fused, owner), seqs, embedding,
                                             params).data
    lengths = np.array([len(s) for s in seqs])
    losses = losses * np.repeat(1.0 / lengths, lengths)
    counts = np.array([len(c) for c in candidates])
    real = np.arange(counts.max()) < counts[:, None]
    scores = np.full(real.shape, -np.inf)
    scores[real] = -np.add.reduceat(losses, np.cumsum(lengths) - lengths)
    return scores


# ---------------------------------------------------------------------------
# encoders

def _bi_lstm_states(ids: Sequence[int], enc, embedding: Tensor) -> Tensor:
    """Per-position concat of forward/backward hidden states, [n, 2H]."""
    n = len(ids)
    hidden = enc.fwd.wh.shape[0]
    emb = ad.gather_rows(embedding, list(ids))
    index = np.arange(n).reshape(n, 1)
    zero = Tensor(np.zeros((1, hidden)))
    h_f = ad.lstm_sequence(emb, index, zero, enc.fwd.wx, enc.fwd.wh, enc.fwd.b)
    h_b_rev = ad.lstm_sequence(emb, index[::-1], zero, enc.bwd.wx, enc.bwd.wh, enc.bwd.b)
    h_b = ad.gather_rows(h_b_rev, list(range(n - 1, -1, -1)))
    return ad.concat([h_f, h_b], axis=1)


def encode_tokens(ids: Sequence[int], mask: Sequence[bool], enc, embedding: Tensor) -> Tensor:
    """Token-level encoding [len(ids), d_q]; PAD rows come out exactly zero."""
    lam = len(ids)
    d_q = enc.proj_w.shape[1]
    n = int(np.count_nonzero(np.asarray(mask, dtype=bool)))
    if n == 0:
        return Tensor(np.zeros((lam, d_q)))
    states = _bi_lstm_states(ids[:n], enc, embedding)
    out = ad.add(ad.matmul(states, enc.proj_w), tile_rows(enc.proj_b, n))
    out = layer_norm_rows(out)
    if n < lam:
        out = ad.concat([out, Tensor(np.zeros((lam - n, d_q)))], axis=0)
    return out


def encode_history(elements, params) -> Tensor:
    """One row per history element, [T, d_q], read from the distinct rows
    `encoders.encode_history` returns."""
    rows, row_of = encoders.encode_history(elements, params)
    return ad.gather_rows(rows, row_of)


def fuse_context(Q: Tensor, H: Tensor, mask_q: Sequence[bool], params) -> Tensor:
    """Multi-head attention from question positions over history rows."""
    lam, d_q = Q.shape
    n_h = params.n_heads
    dh = d_q // n_h
    qp = ad.matmul(Q, params.w_q)
    kp = ad.matmul(H, params.w_k)
    vp = ad.matmul(H, params.w_v)
    heads = []
    for h in range(n_h):
        q_h = columns(qp, h * dh, (h + 1) * dh)
        k_h = columns(kp, h * dh, (h + 1) * dh)
        v_h = columns(vp, h * dh, (h + 1) * dh)
        logits = ad.scale(ad.matmul(q_h, transpose(k_h)), 1.0 / math.sqrt(dh))
        attn = ad.masked_softmax(logits, axis=1, mask=np.ones(logits.shape, dtype=bool))
        heads.append(ad.matmul(attn, v_h))
    out = ad.matmul(ad.concat(heads, axis=1), params.w_o)
    if params.fusion_residual:
        out = layer_norm_rows(ad.add(out, Q))
    mask_mat = np.repeat(np.asarray(mask_q, dtype=float).reshape(lam, 1), d_q, axis=1)
    return ad.mul(out, Tensor(mask_mat))


# ---------------------------------------------------------------------------
# grounding

def cross_attend(I: Tensor, queries: Tensor, values: Tensor, mask_x: Sequence[bool],
                 params) -> tuple[Tensor, Tensor]:
    """P [mu, lam], each region's softmax over the real tokens, and
    I_x = P values + I for one unit."""
    mu = I.shape[0]
    lam = queries.shape[0]
    mask = np.asarray(mask_x, dtype=bool)
    if not mask.any():
        raise DegenerateSliceError("cross_attend with every token masked")
    logits = ad.scale(ad.matmul(ad.matmul(I, params.att_wi),
                                transpose(ad.matmul(queries, params.att_wx))),
                      1.0 / math.sqrt(I.shape[1]))
    P = ad.masked_softmax(logits, axis=1, mask=np.repeat(mask.reshape(1, lam), mu, axis=0))
    return P, ad.add(ad.matmul(P, values), I)


def pool_regions(I_x: Tensor, params) -> tuple[Tensor, Tensor]:
    """Weights [mu] over regions and the pooled vector [d_q]."""
    mu, d_q = I_x.shape
    h = ad.relu(ad.add(ad.matmul(I_x, params.w1), tile_rows(params.b1, mu)))
    scores = ad.matmul(h, params.w2)
    w_col = ad.masked_softmax(scores, axis=0, mask=np.ones(scores.shape, dtype=bool))
    weights = ad.reshape(w_col, (mu,))
    pooled = ad.reshape(ad.matmul(transpose(w_col), I_x), (d_q,))
    return weights, pooled


def prior_ground(I, x, mask_x, params):
    _, I_x = cross_attend(I, x, x, mask_x, params)
    g, v_prior = pool_regions(I_x, params)
    return g, v_prior, I_x


def posterior_ground(I, x, y, mask_x, params):
    _, I_x_post = cross_attend(I, ad.add(x, y), x, mask_x, params)
    G, v_post = pool_regions(I_x_post, params)
    return G, v_post, I_x_post


# ---------------------------------------------------------------------------
# decoders

def fuse_for_decoder(x: Tensor, mask_x: Sequence[bool], v_star: Tensor, params) -> Tensor:
    lam, d_q = x.shape
    mask = np.asarray(mask_x, dtype=float)
    pool_row = Tensor((mask / mask.sum()).reshape(1, lam))
    ctx = ad.matmul(pool_row, x)
    cat = ad.concat([ctx, ad.reshape(v_star, (1, d_q))], axis=1)
    fused = ad.tanh(ad.add(ad.matmul(cat, params.fuse_w), params.fuse_b))
    return ad.reshape(fused, (d_q,))


def _position_losses(fused: Tensor, seqs, embedding: Tensor, params) -> Tensor:
    """Per-position -log p(token), every sequence from the state (fused, 0)."""
    n = len(seqs)
    d_q = fused.shape[0]
    index = pack_sequences([[BOS_ID] + tokens[:-1] for tokens in seqs], embedding.shape[0])
    h0 = ad.reshape(fused, (1, d_q))
    if n > 1:
        h0 = tile_rows(h0, n)
    hs = ad.lstm_sequence(embedding, index, h0, params.gen.wx, params.gen.wh, params.gen.b)
    if n > 1:
        hs = ad.gather_rows(hs, [t * n + b for b, s in enumerate(seqs) for t in range(len(s))])
    logits = ad.add(ad.matmul(hs, params.out_w), tile_rows(params.out_b, hs.shape[0]))
    return ad.cross_entropy_rows(logits, [t for tokens in seqs for t in tokens])


def generative_loss(fused: Tensor, answer_tokens, embedding: Tensor, params) -> Tensor:
    return ad.mean_all(_position_losses(fused, [list(answer_tokens)], embedding, params))


def generative_rank(fused: Tensor, candidates, embedding: Tensor, params) -> Tensor:
    seqs = [list(cand) + [EOS_ID] for cand in candidates]
    losses = _position_losses(fused, seqs, embedding, params).data
    scores, start = [], 0
    for tokens in seqs:
        seg = losses[start:start + len(tokens)]
        start += len(tokens)
        scores.append(-seg.mean())
    return Tensor(np.asarray(scores))


def discriminative_scores(fused: Tensor, candidates, embedding: Tensor, params) -> Tensor:
    n = len(candidates)
    cand_mat = ad.gather_rows(*encode_sentences(candidates, params.cand, embedding))
    d_q = fused.shape[0]
    left = ad.matmul(ad.reshape(fused, (1, d_q)), params.bilinear)
    return ad.reshape(ad.matmul(left, transpose(cand_mat)), (n,))


# ---------------------------------------------------------------------------
# the per-unit builder

def prepare_unit(ds, example_index: int, round_index: int, seq_len: int,
                 max_history: int) -> model.Unit:
    """One unit built on its own, every list a fresh copy and the history
    rebuilt from the caption: the oracle of `model.prepare_units`."""
    ex = ds.examples[example_index]
    rnd = ex.rounds[round_index]
    history = [list(ex.caption_tokens)[:seq_len]]
    for prev in ex.rounds[:round_index]:
        history.append((list(prev.question_tokens) + list(prev.answer_tokens))[:seq_len])
    history = history[:1] + history[max(1, len(history) - max_history + 1):]
    return model.Unit(
        round_index=round_index,
        image_id=ex.image_id,
        question=list(rnd.question_tokens)[:seq_len],
        answer=list(rnd.answer_tokens)[:seq_len],
        answer_targets=list(rnd.answer_tokens)[: seq_len - 1] + [EOS_ID],
        history=history,
        candidates=[list(c) for c in rnd.candidates],
        gt_index=rnd.gt_index,
        relevance=list(rnd.relevance) if rnd.relevance is not None else None,
        gt_grounding=list(rnd.gt_grounding) if rnd.gt_grounding is not None else None,
        features=ex.region_features,
    )


def prepare_units_per_unit(ds, seq_len: int, max_history: int) -> list:
    return [prepare_unit(ds, i, t, seq_len, max_history) for i, t in ds.units()]


# ---------------------------------------------------------------------------
# the per-unit forward passes

@dataclass
class UnitForward:
    L_G: Optional[Tensor] = None
    L_D: Optional[Tensor] = None
    L_KL: Optional[Tensor] = None


def padded_tokens(unit, which: str) -> tuple[list[int], list[bool]]:
    """The unit's question or answer ids padded to the longer of the two, and
    the mask of the real ones: the form the per-unit oracle takes."""
    length = max(len(unit.question), len(unit.answer))
    ids = unit.question if which == "question" else unit.answer
    return ids + [0] * (length - len(ids)), [True] * len(ids) + [False] * (length - len(ids))


def encode_unit_context(params, unit) -> tuple[Tensor, Tensor, list[bool]]:
    q_ids, q_mask = padded_tokens(unit, "question")
    Q = encode_tokens(q_ids, q_mask, params.encoder.question, params.encoder.embedding)
    H = encode_history(unit.history, params.encoder)
    x = fuse_context(Q, H, q_mask, params.encoder)
    I = project_regions(Tensor(unit.features), params.encoder)
    return x, I, q_mask


def encode_unit_answer(params, unit) -> Tensor:
    return encode_tokens(*padded_tokens(unit, "answer"), params.encoder.answer,
                         params.encoder.embedding)


def forward_unit(params, unit, cfg) -> UnitForward:
    x, I, q_mask = encode_unit_context(params, unit)
    g, _, _ = prior_ground(I, x, q_mask, params.grounding)
    y = encode_unit_answer(params, unit)
    G, v_post, _ = posterior_ground(I, x, y, q_mask, params.grounding)
    mu = g.shape[0]
    L_KL = ad.kl_divergence(G.data.reshape(1, mu), ad.reshape(g, (1, mu)))
    fused = fuse_for_decoder(x, q_mask, v_post, params.decoder)
    L_G = L_D = None
    embedding = params.encoder.embedding
    if cfg.loss_mode in ("generative", "multitask"):
        L_G = generative_loss(fused, unit.answer_targets, embedding, params.decoder)
    if cfg.loss_mode in ("discriminative", "multitask"):
        scores = discriminative_scores(fused, unit.candidates, embedding, params.decoder)
        L_D = cross_entropy(scores, unit.gt_index)
    return UnitForward(L_G=L_G, L_D=L_D, L_KL=L_KL)


def infer_unit_scores(params, unit, *, decoder: str,
                      g_override: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    x, I, q_mask = encode_unit_context(params, unit)
    g, v_prior, I_x = prior_ground(I, x, q_mask, params.grounding)
    if g_override is not None:
        mu, d_q = I_x.shape
        g_col = Tensor(np.asarray(g_override, dtype=float).reshape(mu, 1))
        v_prior = ad.reshape(ad.matmul(transpose(g_col), I_x), (d_q,))
        g_used = np.asarray(g_override, dtype=float)
    else:
        g_used = g.data
    fused = fuse_for_decoder(x, q_mask, v_prior, params.decoder)
    embedding = params.encoder.embedding
    if decoder == "generative":
        scores = generative_rank(fused, unit.candidates, embedding, params.decoder)
    else:
        scores = discriminative_scores(fused, unit.candidates, embedding, params.decoder)
    return scores.data.copy(), g_used.copy()


def unit_posterior_weights(params, unit) -> np.ndarray:
    x, I, q_mask = encode_unit_context(params, unit)
    y = encode_unit_answer(params, unit)
    return posterior_ground(I, x, y, q_mask, params.grounding)[0].data.copy()
