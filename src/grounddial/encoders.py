"""Context, answer, and visual encoders.

Token-level bi-directional LSTM encodings for questions and answers,
sentence-level history encoding, multi-head fusion of question and history,
and row-wise MLP projection of raw region features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor


@dataclass
class LstmCellParams:
    wx: Tensor  # [d_in, 4H]
    wh: Tensor  # [H, 4H]
    b: Tensor   # [1, 4H], gate order i, f, o, g


@dataclass
class BiEncoderParams:
    fwd: LstmCellParams
    bwd: LstmCellParams
    proj_w: Tensor  # [2H, d_q]
    proj_b: Tensor  # [1, d_q]


@dataclass
class EncoderParams:
    embedding: Tensor           # [vocab, d_e]
    question: BiEncoderParams
    answer: BiEncoderParams
    history: BiEncoderParams
    w_q: Tensor                 # [d_q, d_q], sliced per head
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    region_w1: Tensor           # [d_v, d_q]
    region_b1: Tensor           # [1, d_q]
    region_w2: Tensor           # [d_q, d_q]
    region_b2: Tensor           # [1, d_q]
    n_heads: int = 4
    d_q: int = 64
    fusion_residual: bool = True

    def __post_init__(self):
        if self.d_q % self.n_heads != 0:
            raise DimensionError(f"d_q={self.d_q} not divisible by n_heads={self.n_heads}")


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    s = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-s, s, size=shape), requires_grad=True)


def init_lstm_cell(rng: np.random.Generator, d_in: int, hidden: int) -> LstmCellParams:
    b = np.zeros((1, 4 * hidden))
    b[0, hidden:2 * hidden] = 1.0  # forget-gate bias
    return LstmCellParams(
        wx=_uniform(rng, (d_in, 4 * hidden), d_in),
        wh=_uniform(rng, (hidden, 4 * hidden), hidden),
        b=Tensor(b, requires_grad=True),
    )


def init_bi_encoder(rng: np.random.Generator, d_in: int, d_q: int) -> BiEncoderParams:
    hidden = d_q // 2
    return BiEncoderParams(
        fwd=init_lstm_cell(rng, d_in, hidden),
        bwd=init_lstm_cell(rng, d_in, hidden),
        proj_w=_uniform(rng, (d_q, d_q), d_q),
        proj_b=Tensor(np.zeros((1, d_q)), requires_grad=True),
    )


def init_encoder_params(rng: np.random.Generator, vocab_size: int, d_v: int,
                        d_e: int = 64, d_q: int = 64, n_heads: int = 4,
                        fusion_residual: bool = True) -> EncoderParams:
    if d_q % 2 != 0:
        raise DimensionError("d_q must be even (forward/backward state halves)")
    return EncoderParams(
        embedding=Tensor(rng.uniform(-0.5, 0.5, size=(vocab_size, d_e)), requires_grad=True),
        question=init_bi_encoder(rng, d_e, d_q),
        answer=init_bi_encoder(rng, d_e, d_q),
        history=init_bi_encoder(rng, d_e, d_q),
        w_q=_uniform(rng, (d_q, d_q), d_q),
        w_k=_uniform(rng, (d_q, d_q), d_q),
        w_v=_uniform(rng, (d_q, d_q), d_q),
        w_o=_uniform(rng, (d_q, d_q), d_q),
        region_w1=_uniform(rng, (d_v, d_q), d_v),
        region_b1=Tensor(np.zeros((1, d_q)), requires_grad=True),
        region_w2=_uniform(rng, (d_q, d_q), d_q),
        region_b2=Tensor(np.zeros((1, d_q)), requires_grad=True),
        n_heads=n_heads,
        d_q=d_q,
        fusion_residual=fusion_residual,
    )


def _check_ids(ids: Sequence[int], vocab_size: int) -> None:
    for t in ids:
        if not 0 <= t < vocab_size:
            raise IndexError(f"token id {t} outside vocabulary of size {vocab_size}")


def _bi_lstm_states(ids: Sequence[int], enc: BiEncoderParams, embedding: Tensor) -> Tensor:
    """Per-position concat of forward/backward hidden states, [n, 2H]."""
    n = len(ids)
    hidden = enc.fwd.wh.shape[0]
    emb = ad.take_rows(embedding, list(ids))
    index = np.arange(n).reshape(n, 1)
    zero = ad.zeros_const((1, 2 * hidden))
    h_f = ad.lstm_sequence(emb, index, zero, enc.fwd.wx, enc.fwd.wh, enc.fwd.b)
    h_b_rev = ad.lstm_sequence(emb, index[::-1], zero, enc.bwd.wx, enc.bwd.wh, enc.bwd.b)
    h_b = ad.take_rows(h_b_rev, list(range(n - 1, -1, -1)))
    return ad.concat([h_f, h_b], axis=1)


def pack_sequences(seqs: Sequence[Sequence[int]]) -> tuple[list[int], np.ndarray]:
    """Concatenated tokens and the [T, B] `lstm_sequence` index reading them.

    Sequence b reads its own tokens in order at steps 0..len-1 and -1 after
    its end; T is the longest length.
    """
    flat: list[int] = []
    index = np.full((max(len(s) for s in seqs), len(seqs)), -1, dtype=np.intp)
    for b, s in enumerate(seqs):
        index[:len(s), b] = np.arange(len(flat), len(flat) + len(s))
        flat.extend(s)
    return flat, index


def encode_sentences(seqs: Sequence[Sequence[int]], enc: BiEncoderParams,
                     embedding: Tensor) -> Tensor:
    """One projected final-state vector per sentence, [B, d_q], in one batch.

    The final forward and backward states are concatenated and projected;
    an empty sentence gives an exactly zero row.
    """
    seqs = [list(s) for s in seqs]
    d_q = enc.proj_w.shape[1]
    hidden = enc.fwd.wh.shape[0]
    n = len(seqs)
    if not any(seqs):
        return ad.zeros_const((n, d_q))
    flat, index = pack_sequences(seqs)
    _check_ids(flat, embedding.shape[0])
    emb = ad.take_rows(embedding, flat)
    zero = ad.zeros_const((n, 2 * hidden))
    h_f = ad.lstm_sequence(emb, index, zero, enc.fwd.wx, enc.fwd.wh, enc.fwd.b)
    h_b = ad.lstm_sequence(emb, index[::-1], zero, enc.bwd.wx, enc.bwd.wh, enc.bwd.b)
    # a state is carried past its sequence's end, so step T-1 holds every final state
    last = list(range(index.size - n, index.size))
    state = ad.concat([ad.take_rows(h_f, last), ad.take_rows(h_b, last)], axis=1)
    out = ad.add(ad.matmul(state, enc.proj_w), ad.tile_rows(enc.proj_b, n))
    if not all(seqs):
        keep = np.array([[1.0] if s else [0.0] for s in seqs])
        out = ad.mul(out, Tensor(np.repeat(keep, d_q, axis=1)))
    return out


def encode_tokens(ids: Sequence[int], mask: Sequence[bool], params: EncoderParams,
                  which: str) -> Tensor:
    """Token-level encoding [len(ids), d_q]; PAD rows come out exactly zero.

    Rows are layer-normalized so question and answer encodings share one
    scale; their sum in the posterior branch then perturbs meaningfully.
    """
    if which == "question":
        enc = params.question
    elif which == "answer":
        enc = params.answer
    else:
        raise ValueError(f"unknown encoder {which!r}")
    lam = len(ids)
    if lam < 1:
        raise ValueError("encode_tokens needs at least one position")
    _check_ids(ids, params.embedding.shape[0])
    n = int(np.count_nonzero(np.asarray(mask, dtype=bool)))
    if n == 0:
        return ad.zeros_const((lam, params.d_q))
    states = _bi_lstm_states(ids[:n], enc, params.embedding)
    out = ad.add(ad.matmul(states, enc.proj_w), ad.tile_rows(enc.proj_b, n))
    out = layer_norm_rows(out)
    if n < lam:
        out = ad.concat([out, ad.zeros_const((lam - n, params.d_q))], axis=0)
    return out


def encode_history(elements: Sequence[Sequence[int]], params: EncoderParams) -> Tensor:
    """One sentence-level vector per history element, [T, d_q].

    Each element (caption, or a concatenated question-answer pair) gets its
    own bi-directional pass, all elements in one batch; the final
    forward/backward states are concatenated and projected.
    """
    if not elements:
        raise ValueError("history needs at least the caption")
    return encode_sentences(elements, params.history, params.embedding)


def layer_norm_rows(t: Tensor, eps: float = 1e-5) -> Tensor:
    """Parameter-free layer norm over the last axis of a matrix, per row."""
    m, d = t.shape
    col = ad.ones_const((d, 1))
    row = ad.ones_const((1, d))
    mean = ad.scale(ad.matmul(t, col), 1.0 / d)            # [m, 1]
    centered = ad.sub(t, ad.matmul(mean, row))
    var = ad.scale(ad.matmul(ad.mul(centered, centered), col), 1.0 / d)
    inv = ad.power(ad.add_const(var, eps), -0.5)           # [m, 1]
    return ad.mul(centered, ad.matmul(inv, row))


def fuse_context(Q: Tensor, H: Tensor, mask_q: Sequence[bool], params: EncoderParams) -> Tensor:
    """Multi-head attention from question positions over history rows.

    Heads are concatenated and output-projected, residual-added to Q (when
    enabled) and layer-normalized; PAD question rows stay zero.
    """
    lam, d_q = Q.shape
    if H.shape[1] != d_q or d_q != params.d_q:
        raise DimensionError(f"fuse_context shapes: Q {Q.shape}, H {H.shape}, d_q {params.d_q}")
    n_h = params.n_heads
    dh = d_q // n_h
    qp = ad.matmul(Q, params.w_q)
    kp = ad.matmul(H, params.w_k)
    vp = ad.matmul(H, params.w_v)
    heads = []
    for h in range(n_h):
        q_h = ad.slice_cols(qp, h * dh, (h + 1) * dh)
        k_h = ad.slice_cols(kp, h * dh, (h + 1) * dh)
        v_h = ad.slice_cols(vp, h * dh, (h + 1) * dh)
        logits = ad.scale(ad.matmul(q_h, ad.transpose(k_h)), 1.0 / math.sqrt(dh))
        attn = ad.masked_softmax(logits, axis=1)
        heads.append(ad.matmul(attn, v_h))
    out = ad.matmul(ad.concat(heads, axis=1), params.w_o)
    if params.fusion_residual:
        out = layer_norm_rows(ad.add(out, Q))
    mask_mat = np.repeat(np.asarray(mask_q, dtype=float).reshape(lam, 1), d_q, axis=1)
    return ad.mul(out, Tensor(mask_mat))


def project_regions(raw: Tensor, params: EncoderParams) -> Tensor:
    """Row-wise two-layer perceptron (linear -> ReLU -> linear), [mu, d_q].

    Rows are layer-normalized onto the same scale as the token encodings;
    otherwise the region content is drowned by attended text downstream.
    """
    if raw.shape[1] != params.region_w1.shape[0]:
        raise DimensionError(f"region features {raw.shape} vs projection {params.region_w1.shape}")
    mu = raw.shape[0]
    h = ad.relu(ad.add(ad.matmul(raw, params.region_w1), ad.tile_rows(params.region_b1, mu)))
    out = ad.add(ad.matmul(h, params.region_w2), ad.tile_rows(params.region_b2, mu))
    return layer_norm_rows(out)
