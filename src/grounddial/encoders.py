"""Context, answer, and visual encoders.

Token-level bi-directional LSTM encodings for questions and answers,
sentence-level history encoding, multi-head fusion of question and history,
and row-wise MLP projection of raw region features.

A sentence's encoding depends only on its tokens and its encoder. This
module is where that rule lives, and the one place that finds a batch's
distinct sentences (`first_of_each`, keyed by the token tuple). Callers
pass sentences as they come, repeats included, and each distinct sentence
runs through the BiLSTM once. `encode_sentences` and `encode_history`
return what they computed: one row per distinct sentence, in order of
first occurrence, and for each input the row it reads, so the caller
gathers each row into its own grid in one step. `encode_tokens`, whose
positions are per-unit grids already, hands every input its rows through
one gather.

The row-wise layers past the BiLSTMs keep the same rule with distinct
rows: `project_regions` takes each distinct image's regions once, and
`fuse_context` takes `encode_history`'s rows, forms its key and value
products on them and gathers the products into each unit's [B, T] grid
only then, where attention makes them depend on the unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

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
    n_heads: int
    fusion_residual: bool


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


def init_encoder_params(rng: np.random.Generator, vocab_size: int, d_v: int, *,
                        d_e: int, d_q: int, n_heads: int,
                        fusion_residual: bool) -> EncoderParams:
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
        fusion_residual=fusion_residual,
    )


def pack_sequences(seqs: Sequence[Sequence[int]], vocab_size: int) -> np.ndarray:
    """The [T, B] `lstm_sequence` index of a batch's token ids, for reading
    the embedding matrix directly.

    Sequence b reads its own tokens in order at steps 0..len-1 and -1 after
    its end; T is the longest length. A token id outside [0, vocab_size)
    raises IndexError.
    """
    lengths = np.array([len(s) for s in seqs])
    ids = np.fromiter(chain.from_iterable(seqs), dtype=np.intp, count=int(lengths.sum()))
    bad = (ids < 0) | (ids >= vocab_size)
    if bad.any():
        raise IndexError(f"token id {int(ids[bad][0])} outside vocabulary of size {vocab_size}")
    index = np.full((lengths.max(), len(seqs)), -1, dtype=np.intp)
    index.T[np.arange(lengths.max()) < lengths[:, None]] = ids
    return index


def first_of_each(items: Sequence, key: Callable) -> tuple[list, np.ndarray]:
    """The items whose key has not come before, in order, and for every item
    the row of its key among them."""
    row_of_key: dict = {}
    firsts, rows = [], []
    for item in items:
        row = row_of_key.setdefault(key(item), len(firsts))
        if row == len(firsts):
            firsts.append(item)
        rows.append(row)
    return firsts, np.array(rows, dtype=np.intp)


def _bi_lstm(seqs: Sequence[Sequence[int]], enc: BiEncoderParams,
             embedding: Tensor) -> tuple[Tensor, Tensor, np.ndarray]:
    """Both directions over a batch of sequences, in one `lstm_sequence` call each.

    Returns the forward states, the backward states and the [T, B] index;
    state rows are step-major (t*B + b), the backward ones in reversed step
    order, so position p of sequence b is forward row p*B + b and backward
    row (T-1-p)*B + b.
    """
    index = pack_sequences(seqs, embedding.shape[0])
    zero = Tensor(np.zeros((len(seqs), enc.fwd.wh.shape[0])))
    h_f = ad.lstm_sequence(embedding, index, zero, enc.fwd.wx, enc.fwd.wh, enc.fwd.b)
    h_b = ad.lstm_sequence(embedding, index[::-1], zero, enc.bwd.wx, enc.bwd.wh, enc.bwd.b)
    return h_f, h_b, index


def padded_rows(lengths: Sequence[int], rows: Sequence[int], pad: int) -> tuple[np.ndarray, np.ndarray]:
    """[B, max length] grid of the given rows, one unit after another, and its
    mask; positions past a unit's length hold `pad` (for `autodiff.gather_rows`)."""
    lengths = np.asarray(lengths)
    mask = np.arange(lengths.max()) < lengths[:, None]
    grid = np.full(mask.shape, pad, dtype=np.intp)
    grid[mask] = rows
    return grid, mask


def encode_sentences(seqs: Sequence[Sequence[int]], enc: BiEncoderParams,
                     embedding: Tensor) -> tuple[Tensor, np.ndarray]:
    """One projected final-state vector per distinct sentence, in one batch.

    Returns the [S, d_q] rows of the S distinct sentences, in order of
    first occurrence, and the int [len(seqs)] row each input reads. The
    final forward and backward states are concatenated and projected; an
    empty sentence gives an exactly zero row.
    """
    distinct, row_of = first_of_each(seqs, tuple)
    n = len(distinct)
    d_q = enc.proj_w.shape[1]
    if not any(distinct):
        return Tensor(np.zeros((n, d_q))), row_of
    h_f, h_b, index = _bi_lstm(distinct, enc, embedding)
    # a state is carried past its sequence's end, so step T-1 holds every final state
    last = np.arange(index.size - n, index.size)
    state = ad.concat([ad.gather_rows(h_f, last), ad.gather_rows(h_b, last)], axis=1)
    out = ad.affine(state, enc.proj_w, enc.proj_b)
    if not all(distinct):
        keep = np.array([[1.0] if s else [0.0] for s in distinct])
        out = ad.mul(out, Tensor(np.repeat(keep, d_q, axis=1)))
    return out, row_of


def encode_tokens(seqs: Sequence[Sequence[int]], length: int, enc: BiEncoderParams,
                  embedding: Tensor) -> Tensor:
    """Token-level encodings of a batch of sentences, [B, length, d_q],
    by the question or answer encoder `enc` over the shared `embedding`.

    Each sentence runs through the bi-directional LSTM whole; its first
    `length` positions are kept and the positions past its end are exactly
    zero rows. Rows are layer-normalized so question and answer encodings
    share one scale; their sum in the posterior branch then perturbs
    meaningfully. Each distinct sentence is encoded once and its rows read
    by every sentence equal to it.
    """
    if length < 1:
        raise ValueError("encode_tokens needs at least one position")
    distinct, row_of = first_of_each(seqs, tuple)
    if not any(distinct):
        return Tensor(np.zeros((len(seqs), length, enc.proj_w.shape[1])))
    n_seq = len(distinct)
    h_f, h_b, index = _bi_lstm(distinct, enc, embedding)
    T = index.shape[0]
    seq_of, pos = np.nonzero(index.T[:, :length] >= 0)            # kept positions, sentence by sentence
    states = ad.concat([ad.gather_rows(h_f, pos * n_seq + seq_of),
                        ad.gather_rows(h_b, (T - 1 - pos) * n_seq + seq_of)], axis=1)
    n = seq_of.size
    out = ad.layer_norm(ad.affine(states, enc.proj_w, enc.proj_b))
    grid = np.full((n_seq, length), n, dtype=np.intp)
    grid[seq_of, pos] = np.arange(n)
    return ad.gather_rows(out, grid[row_of])


def encode_history(elements: Sequence[Sequence[int]],
                   params: EncoderParams) -> tuple[Tensor, np.ndarray]:
    """One sentence-level vector per distinct history element: the [S, d_q]
    rows and the row each element reads, as `encode_sentences` gives them.

    Each element (caption, or a concatenated question-answer pair) gets its
    own bi-directional pass, all elements in one batch; the final
    forward/backward states are concatenated and projected.
    """
    if not elements:
        raise ValueError("history needs at least the caption")
    return encode_sentences(elements, params.history, params.embedding)


def fuse_context(Q: Tensor, H: Tensor, mask_q: np.ndarray, rows_h: np.ndarray,
                 params: EncoderParams) -> Tensor:
    """Multi-head attention from question positions over history rows.

    Q: [B, lam, d_q] question encodings, mask_q [B, lam] its real positions;
    H: [S, d_q] history rows, each distinct sentence once (`encode_history`),
    and rows_h the int [B, T] grid of the row each unit reads, S where it
    has none. The key and value products are formed on H's rows and then
    gathered into the grid. Every head of every unit attends in one
    [B, n_heads, ., .] stack; the heads are concatenated and
    output-projected, residual-added to Q (when enabled) and
    layer-normalized; PAD question rows stay zero.
    """
    B, lam, d_q = Q.shape
    rows_h = np.asarray(rows_h, dtype=np.intp)
    if H.data.ndim != 2 or H.shape[1] != d_q:
        raise DimensionError(f"fuse_context shapes: Q {Q.shape}, H {H.shape}")
    mask_q = np.asarray(mask_q, dtype=bool)
    if mask_q.shape != (B, lam) or rows_h.ndim != 2 or rows_h.shape[0] != B:
        raise DimensionError(f"fuse_context mask {mask_q.shape} and history grid "
                             f"{rows_h.shape} for Q {Q.shape}")
    T = rows_h.shape[1]
    n_h = params.n_heads
    dh = d_q // n_h
    q_rows = ad.reshape(Q, (B * lam, d_q))

    def heads(t: Tensor, n: int) -> Tensor:
        """[B, n, d_q] or [B*n, d_q] projected rows as the [B, n_heads, n, dh] stack."""
        return ad.permute(ad.reshape(t, (B, n, n_h, dh)), (0, 2, 1, 3))

    q = heads(ad.matmul(q_rows, params.w_q), lam)
    k = heads(ad.gather_rows(ad.matmul(H, params.w_k), rows_h), T)
    v = heads(ad.gather_rows(ad.matmul(H, params.w_v), rows_h), T)
    keys = np.broadcast_to((rows_h < H.shape[0])[:, None, None, :], (B, n_h, lam, T))
    logits = ad.scale(ad.bmm(q, k, transpose_b=True), 1.0 / math.sqrt(dh))
    attended = ad.bmm(ad.masked_softmax(logits, axis=3, mask=keys), v)     # [B, n_heads, lam, dh]
    concat = ad.reshape(ad.permute(attended, (0, 2, 1, 3)), (B * lam, d_q))
    out = ad.matmul(concat, params.w_o)
    if params.fusion_residual:
        out = ad.layer_norm(ad.add(out, q_rows))
    keep = np.repeat(mask_q.reshape(B * lam, 1).astype(float), d_q, axis=1)
    return ad.reshape(ad.mul(out, Tensor(keep)), (B, lam, d_q))


def project_regions(raw: Tensor, params: EncoderParams) -> Tensor:
    """Row-wise two-layer perceptron (linear -> ReLU -> linear), [R, d_q]
    for the [R, d_v] features of a batch's distinct images.

    Rows are layer-normalized onto the same scale as the token encodings;
    otherwise the region content is drowned by attended text downstream.
    """
    h = ad.relu(ad.affine(raw, params.region_w1, params.region_b1))
    return ad.layer_norm(ad.affine(h, params.region_w2, params.region_b2))
