"""Generative and discriminative answer decoders with candidate ranking.

The generative decoder is a teacher-forced LSTM language model initialized
from the fused context+visual vector; the discriminative decoder encodes
each candidate with its own bi-directional LSTM and scores it bilinearly
against the fused vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def init_decoder_params(rng: np.random.Generator, vocab_size: int,
                        d_e: int = 64, d_q: int = 64) -> DecoderParams:
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


def fuse_for_decoder(x: Tensor, mask_x: Sequence[bool], v_star: Tensor,
                     params: DecoderParams) -> Tensor:
    """Mask-aware mean pool of x concatenated with v_star, projected with tanh."""
    lam, d_q = x.shape
    mask = np.asarray(mask_x, dtype=float)
    count = mask.sum()
    if count == 0:
        raise DegenerateSliceError("fuse_for_decoder with every context position masked")
    pool_row = Tensor((mask / count).reshape(1, lam))
    ctx = ad.matmul(pool_row, x)                      # [1, d_q]
    v_row = ad.reshape(v_star, (1, d_q))
    cat = ad.concat([ctx, v_row], axis=1)             # [1, 2 d_q]
    fused = ad.tanh(ad.add(ad.matmul(cat, params.fuse_w), params.fuse_b))
    return ad.reshape(fused, (d_q,))


def _teacher_forced_position_losses(fused: Tensor, sequences: Sequence[Sequence[int]],
                                    embedding: Tensor, params: DecoderParams) -> Tensor:
    """Per-position -log p(token) under teacher forcing, every sequence in one batch.

    Each sequence ends with EOS and starts from the state (fused, 0). The
    result is one vector with each sequence's positions contiguous, in order.
    """
    seqs = [list(s) for s in sequences]
    for tokens in seqs:
        if not tokens:
            raise ContractError("generative decoding needs a non-empty answer")
        if tokens[-1] != EOS_ID:
            raise ContractError("answer token sequence must end with EOS")
    n = len(seqs)
    d_q = fused.shape[0]
    inputs, index = pack_sequences([[BOS_ID] + tokens[:-1] for tokens in seqs])
    emb = ad.take_rows(embedding, inputs)
    h0 = ad.reshape(fused, (1, d_q))
    if n > 1:
        h0 = ad.tile_rows(h0, n)
    hc0 = ad.concat([h0, ad.zeros_const((n, d_q))], axis=1)
    hs = ad.lstm_sequence(emb, index, hc0, params.gen.wx, params.gen.wh, params.gen.b)
    if n > 1:
        # step-major rows t*n + b, regrouped sequence by sequence
        hs = ad.take_rows(hs, [t * n + b for b, s in enumerate(seqs) for t in range(len(s))])
    m = len(inputs)
    logits = ad.add(ad.matmul(hs, params.out_w), ad.tile_rows(params.out_b, m))
    return ad.cross_entropy_rows(logits, [t for tokens in seqs for t in tokens])


def generative_loss(fused: Tensor, answer_tokens: Sequence[int], embedding: Tensor,
                    params: DecoderParams) -> Tensor:
    """Mean over target positions of -log p(token)."""
    return ad.mean_all(_teacher_forced_position_losses(fused, [answer_tokens], embedding, params))


def generative_rank(fused: Tensor, candidates: Sequence[Sequence[int]], embedding: Tensor,
                    params: DecoderParams, score_norm: str = "mean") -> Tensor:
    """Score each candidate by its per-token log-likelihood (higher is better).

    "mean" normalizes by candidate length (the default, removing length
    bias); "sum" totals the log-likelihoods instead.
    """
    if score_norm not in ("mean", "sum"):
        raise ValueError(f"unknown score_norm {score_norm!r}")
    if not candidates:
        raise ContractError("generative ranking needs at least one candidate")
    seqs = []
    for cand in candidates:
        tokens = list(cand)
        if not tokens or tokens[-1] != EOS_ID:
            tokens = tokens + [EOS_ID]
        seqs.append(tokens)
    losses = _teacher_forced_position_losses(fused, seqs, embedding, params).data
    scores = []
    start = 0
    for tokens in seqs:
        seg = losses[start:start + len(tokens)]
        start += len(tokens)
        # mean matches generative_loss bit-for-bit on a single candidate, negated
        scores.append(-seg.mean() if score_norm == "mean" else -seg.sum())
    return Tensor(np.asarray(scores))


def discriminative_scores(fused: Tensor, candidates: Sequence[Sequence[int]],
                          embedding: Tensor, params: DecoderParams) -> Tensor:
    """Bilinear scores fusedᵀ B cand_i over all candidates, [N].

    Every candidate is encoded in one batch by the candidate encoder's own
    BiLSTM (final states, projected); an empty candidate is a zero row.
    """
    n = len(candidates)
    if n < 1:
        raise ContractError("discriminative scoring needs at least one candidate")
    cand_mat = encode_sentences(candidates, params.cand, embedding)   # [N, d_q]
    d_q = fused.shape[0]
    left = ad.matmul(ad.reshape(fused, (1, d_q)), params.bilinear)
    return ad.reshape(ad.matmul(left, ad.transpose(cand_mat)), (n,))


def discriminative_loss_and_rank(fused: Tensor, candidates: Sequence[Sequence[int]],
                                 gt_index: int, embedding: Tensor,
                                 params: DecoderParams) -> tuple[Tensor, Tensor]:
    """(cross-entropy loss over candidate scores, the scores themselves)."""
    n = len(candidates)
    if not 0 <= gt_index < n:
        raise IndexError(f"gt_index {gt_index} out of range for {n} candidates")
    scores = discriminative_scores(fused, candidates, embedding, params)
    return ad.cross_entropy(scores, gt_index), scores
