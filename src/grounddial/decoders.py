"""Generative and discriminative answer decoders with candidate ranking.

The generative decoder is a teacher-forced LSTM language model initialized
from the fused context+visual vector; the discriminative decoder encodes
each candidate with its own bi-directional LSTM and scores it bilinearly
against the fused vector. Every function takes a batch of units: fused
vectors are [B, d_q] and candidates come as one list per unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, DegenerateSliceError, Tensor
from .data import BOS_ID, EOS_ID
from .encoders import (
    BiEncoderParams,
    LstmCellParams,
    encode_sentences,
    init_bi_encoder,
    init_lstm_cell,
    pack_sequences,
    padded_rows,
)


@dataclass
class DecoderParams:
    fuse_w: Tensor            # [2 d_q, d_q]
    fuse_b: Tensor            # [1, d_q]
    gen: LstmCellParams       # decoder cell, d_e -> d_q
    out_w: Tensor             # [d_q, vocab]
    out_b: Tensor             # [1, vocab]
    cand: BiEncoderParams     # candidate encoder (own weights)
    bilinear: Tensor          # [d_q, d_q]


def init_decoder_params(rng: np.random.Generator, vocab_size: int, *,
                        d_e: int, d_q: int) -> DecoderParams:
    s = 1.0 / math.sqrt(2 * d_q)
    so = 1.0 / math.sqrt(d_q)
    return DecoderParams(
        fuse_w=Tensor(rng.uniform(-s, s, size=(2 * d_q, d_q)), requires_grad=True),
        fuse_b=Tensor(np.zeros((1, d_q)), requires_grad=True),
        gen=init_lstm_cell(rng, d_e, d_q),
        out_w=Tensor(rng.uniform(-so, so, size=(d_q, vocab_size)), requires_grad=True),
        out_b=Tensor(np.zeros((1, vocab_size)), requires_grad=True),
        cand=init_bi_encoder(rng, d_e, d_q),
        bilinear=Tensor(rng.uniform(-so, so, size=(d_q, d_q)), requires_grad=True),
    )


def fuse_for_decoder(x: Tensor, mask_x: np.ndarray, v_star: Tensor,
                     params: DecoderParams) -> Tensor:
    """Mask-aware mean pool of x concatenated with v_star, projected with tanh.

    x: [B, lam, d_q], mask_x: bool [B, lam], v_star: [B, d_q]; returns [B, d_q].
    """
    B, lam, d_q = x.shape
    mask = np.asarray(mask_x, dtype=float)
    counts = mask.sum(axis=1, keepdims=True)
    if (counts == 0).any():
        raise DegenerateSliceError(f"fuse_for_decoder with every context position of batch row "
                                   f"{int((counts[:, 0] == 0).argmax())} masked")
    pool = Tensor((mask / counts).reshape(B, 1, lam))
    ctx = ad.reshape(ad.bmm(pool, x), (B, d_q))
    cat = ad.concat([ctx, v_star], axis=1)            # [B, 2 d_q]
    return ad.tanh(ad.affine(cat, params.fuse_w, params.fuse_b))


def _teacher_forced_position_losses(h0: Tensor, sequences: Sequence[Sequence[int]],
                                    embedding: Tensor, params: DecoderParams) -> Tensor:
    """Per-position -log p(token) under teacher forcing, every sequence in one batch.

    Sequence s ends with EOS and starts from the state (h0[s], 0); h0 is
    [len(sequences), d_q]. The result is one vector with each sequence's
    positions contiguous, in order.
    """
    seqs = [list(s) for s in sequences]
    for tokens in seqs:
        if not tokens:
            raise ContractError("generative decoding needs a non-empty answer")
        if tokens[-1] != EOS_ID:
            raise ContractError("answer token sequence must end with EOS")
    n = len(seqs)
    index = pack_sequences([[BOS_ID] + tokens[:-1] for tokens in seqs], embedding.shape[0])
    hs = ad.lstm_sequence(embedding, index, h0, params.gen.wx, params.gen.wh, params.gen.b)
    # step-major rows t*n + s, regrouped sequence by sequence
    seq_of, step = np.nonzero(index.T >= 0)
    hs = ad.gather_rows(hs, step * n + seq_of)
    logits = ad.affine(hs, params.out_w, params.out_b)
    return ad.cross_entropy_rows(logits, [t for tokens in seqs for t in tokens])


def generative_loss(fused: Tensor, answers: Sequence[Sequence[int]], embedding: Tensor,
                    params: DecoderParams) -> Tensor:
    """Mean over the batch of each answer's mean -log p(token); fused is [B, d_q]."""
    losses = _teacher_forced_position_losses(fused, answers, embedding, params)
    lengths = np.array([len(a) for a in answers])
    weights = np.repeat(1.0 / (lengths * len(lengths)), lengths)
    return ad.sum_all(ad.mul(losses, Tensor(weights)))


def generative_rank(fused: Tensor, candidates: Sequence[Sequence[Sequence[int]]],
                    embedding: Tensor, params: DecoderParams) -> np.ndarray:
    """Score each unit's candidates by their mean per-token log-likelihood
    (higher is better), [B, N]; fused is [B, d_q], candidates[b] the list of
    unit b's.

    N is the most candidates of any unit; a unit with fewer scores -inf past
    its last. A candidate is scored on its tokens and then EOS,
    teacher-forced from BOS. Every candidate of the batch runs in one
    `lstm_sequence` call that starts each unit's candidates from its one
    row (fused[b], 0), so the decoder state of each distinct (unit,
    input prefix) is computed once: all of a unit's candidates share the
    state after BOS, and each step forms the recurrent product h @ wh once
    per state it holds, so the step after BOS forms it once per unit, not
    once per candidate. The output layer and its log-sum-exp are formed once
    per distinct state and read at each (candidate, position); the
    arithmetic is `cross_entropy_rows`', so a score is bit for bit the one
    of running each candidate as its own sequence. The mean over a
    candidate's tokens removes the bias toward short candidates.
    """
    counts = np.fromiter(map(len, candidates), dtype=np.intp, count=len(candidates))
    if not counts.all():
        raise ContractError("generative ranking needs at least one candidate")
    every = list(chain.from_iterable(candidates))
    n, vocab = len(every), embedding.shape[0]
    lens = np.fromiter(map(len, every), dtype=np.intp, count=n)
    ids = np.fromiter(chain.from_iterable(every), dtype=np.intp, count=int(lens.sum()))
    bad = (ids < 0) | (ids >= vocab)
    if bad.any():
        raise IndexError(f"token id {int(ids[bad][0])} outside vocabulary of size {vocab}")
    lengths = lens + 1                                       # positions scored: tokens, EOS
    T = int(lengths.max())
    targets = np.full((n, T), EOS_ID, dtype=np.intp)
    targets[np.arange(T) < lens[:, None]] = ids
    scored = np.arange(T) < lengths[:, None]                 # [n, T]
    index = np.empty((T, n), dtype=np.intp)
    index[0] = BOS_ID
    index[1:] = targets[:, :-1].T
    index[~scored.T] = -1
    hs, grid = ad.lstm_sequence(embedding, index, fused, params.gen.wx, params.gen.wh,
                                params.gen.b, start=np.repeat(np.arange(len(counts)), counts))
    z = ad.affine(hs, params.out_w, params.out_b).data
    m = z.max(axis=1, keepdims=True)
    s = np.exp(z - m).sum(axis=1, keepdims=True)
    log_sum = np.log(s[:, 0]) + m[:, 0]
    state = grid.T[scored]                                   # candidate by candidate
    losses = log_sum[state] - z[state, targets[scored]]
    # weights as in generative_loss, so a lone candidate's score is its loss negated bit for bit
    losses = losses * np.repeat(1.0 / lengths, lengths)
    real = np.arange(counts.max()) < counts[:, None]
    scores = np.full(real.shape, -np.inf)
    scores[real] = -np.add.reduceat(losses, np.cumsum(lengths) - lengths)
    return scores


def discriminative_scores(fused: Tensor, candidates: Sequence[Sequence[Sequence[int]]],
                          embedding: Tensor, params: DecoderParams) -> Tensor:
    """Bilinear scores fusedᵀ B cand over each unit's candidates, [B, N].

    N is the most candidates of any unit; a unit with fewer scores -inf past
    its last. Every candidate of the batch is encoded in one batch by the
    candidate encoder's own BiLSTM (final states, projected), each distinct
    candidate once; an empty candidate is a zero row. The [B, N] candidate
    grid is read from those distinct rows in one gather, and each unit is
    scored against its own candidates only.
    """
    counts = [len(cands) for cands in candidates]
    if not all(counts):
        raise ContractError("discriminative scoring needs at least one candidate")
    n_units, n_max = len(counts), max(counts)
    every = [cand for cands in candidates for cand in cands]
    distinct, row_of = encode_sentences(every, params.cand, embedding)   # [S, d_q]
    rows, real = padded_rows(counts, row_of, distinct.shape[0])
    cand = ad.gather_rows(distinct, rows)                                 # [B, N, d_q]
    d_q = cand.shape[2]
    left = ad.reshape(ad.matmul(fused, params.bilinear), (n_units, 1, d_q))
    scores = ad.reshape(ad.bmm(left, cand, transpose_b=True), (n_units, n_max))
    return ad.add(scores, Tensor(np.where(real, 0.0, -np.inf)))


def discriminative_loss_and_rank(fused: Tensor, candidates: Sequence[Sequence[Sequence[int]]],
                                 gt_indices: Sequence[int], embedding: Tensor,
                                 params: DecoderParams) -> tuple[Tensor, Tensor]:
    """(mean over the batch of the cross-entropy over candidate scores, the scores)."""
    for cands, gt in zip(candidates, gt_indices):
        if not 0 <= gt < len(cands):
            raise IndexError(f"gt_index {gt} out of range for {len(cands)} candidates")
    scores = discriminative_scores(fused, candidates, embedding, params)
    return ad.mean_all(ad.cross_entropy_rows(scores, gt_indices)), scores
