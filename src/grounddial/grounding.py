"""Prior and posterior distributions over visual objects and the bridge,
the KL that pulls the prior toward the answer-informed posterior.

The prior pipeline is cross-attention of projected regions over the context,
in which each region takes a softmax over the context tokens, followed by
self-attention pooling; the posterior runs the same pipeline with the
answer encoding added onto the context queries, sharing every parameter.
The region side of both is formed once per batch by `gather_regions`:
the projected regions come as each distinct image's rows once, the
region-side product I·att_wi runs on those rows, and only then are it and
the rows gathered into each unit's grid, which both branches read.
The paper states the other normalisation, each token's softmax over the
regions. It is not used: it leaves the answer route and the attention
projections without a gradient at initialisation, and it collapses the
prior onto one region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DegenerateSliceError, DimensionError, Tensor

@dataclass
class GroundingParams:
    att_wi: Tensor  # [d_q, d_q] region-side projection of the interaction f_cv
    att_wx: Tensor  # [d_q, d_q] context-side projection of f_cv
    w1: Tensor      # [d_q, d_h] pooling
    b1: Tensor      # [1, d_h]
    w2: Tensor      # [d_h, 1]; no bias: a shift shared by every region leaves the softmax unchanged


def init_grounding_params(rng: np.random.Generator, *, d_q: int, d_h: int) -> GroundingParams:
    s1 = 1.0 / math.sqrt(d_q)
    # near-identity interaction projections: the raw region/context dot
    # product at step 0, with a direct gradient path for learning alignment
    eye = np.eye(d_q)
    return GroundingParams(
        att_wi=Tensor(eye + rng.uniform(-s1, s1, size=(d_q, d_q)), requires_grad=True),
        att_wx=Tensor(eye + rng.uniform(-s1, s1, size=(d_q, d_q)), requires_grad=True),
        w1=Tensor(rng.uniform(-s1, s1, size=(d_q, d_h)), requires_grad=True),
        b1=Tensor(np.zeros((1, d_h)), requires_grad=True),
        # zero-init scores: both distributions start exactly uniform, with no
        # arbitrary region preferences to unlearn
        w2=Tensor(np.zeros((d_h, 1)), requires_grad=True),
    )


@dataclass
class UnitRegions:
    """A batch's projected regions as its units read them, zero past each
    unit's regions: I [B, mu, d], the region-side attention product
    keys = I·att_wi [B, mu, d], and mask, bool [B, mu], the real regions."""
    I: Tensor
    keys: Tensor
    mask: np.ndarray


def gather_regions(I: Tensor, rows_i: np.ndarray, params: GroundingParams) -> UnitRegions:
    """The regions of a batch's units from its distinct region rows.

    I: [R, d] region rows, each distinct image's once; rows_i: int [B, mu],
    the row of I that each unit's region reads, R for a padding region.
    I·att_wi is formed on the R rows, and it and I are then gathered into
    the grid.
    """
    rows_i = np.asarray(rows_i, dtype=np.intp)
    if I.data.ndim != 2 or rows_i.ndim != 2:
        raise DimensionError(f"gather_regions takes [R, d] rows and a [B, mu] grid, got "
                             f"{I.shape} and {rows_i.shape}")
    return UnitRegions(I=ad.gather_rows(I, rows_i),
                       keys=ad.gather_rows(ad.matmul(I, params.att_wi), rows_i),
                       mask=rows_i < I.shape[0])


def _project_rows(t: Tensor, w: Tensor) -> Tensor:
    """[B, n, d] @ [d, d'] applied row by row, [B, n, d']."""
    B, n, d = t.shape
    return ad.reshape(ad.matmul(ad.reshape(t, (B * n, d)), w), (B, n, w.shape[1]))


def cross_attend(regions: UnitRegions, queries: Tensor, values: Tensor, mask_x: np.ndarray,
                 params: GroundingParams) -> tuple[Tensor, Tensor]:
    """Interaction weights P and attended regions I_x = P values + I.

    regions: the units' [B, mu, d] region rows and their region-side
    product, from `gather_regions`; queries and values: [B, lam, d] context
    rows; mask_x: bool [B, lam] real tokens. Returns P [B, mu, lam] and
    I_x [B, mu, d]; padding regions give zero rows of P and of I_x.

    P = softmax((I Wi)(queries Wx)ᵀ / sqrt(d)) with the learned att_wi and
    att_wx, so the region/word alignment lives in one directly-trained
    matrix pair. The softmax runs over the real tokens within each region
    row, so every real region's row of P sums to 1 and P values is a convex
    mix of the context rows; PAD token positions are masked out of it and
    get weight exactly 0.

    The residual I keeps each attended row's own region content (without it
    the pooled vector is a pure token mix and carries no region information
    at all).
    """
    I = regions.I
    if (queries.data.ndim != 3 or I.shape[0] != queries.shape[0]
            or I.shape[2] != queries.shape[2]):
        raise DimensionError(f"cross_attend shapes do not fit: I {I.shape}, "
                             f"queries {queries.shape}")
    B, mu, d = I.shape
    lam = queries.shape[1]
    mask = np.asarray(mask_x, dtype=bool)
    if mask.shape != (B, lam):
        raise DimensionError(f"mask shape {mask.shape} vs {B} x {lam} tokens")
    empty = ~mask.any(axis=1)
    if empty.any():
        raise DegenerateSliceError(f"cross_attend with every token of batch row "
                                   f"{int(empty.argmax())} masked")
    logits = ad.scale(ad.bmm(regions.keys, _project_rows(queries, params.att_wx),
                             transpose_b=True), 1.0 / math.sqrt(d))
    tokens = np.broadcast_to(mask[:, None, :], (B, mu, lam))
    real = Tensor(np.broadcast_to(regions.mask[:, :, None], (B, mu, lam)))
    P = ad.mul(ad.masked_softmax(logits, axis=2, mask=tokens), real)
    return P, ad.add(ad.bmm(P, values), I)


def region_weights(I_x: Tensor, params: GroundingParams, mask_i: np.ndarray) -> Tensor:
    """Self-attention pooling weights [B, mu] over the attended regions I_x
    [B, mu, d_q]: a softmax over the real regions (mask_i) of
    ReLU(I_x W1 + b1) W2."""
    B, mu, d_q = I_x.shape
    rows = ad.reshape(I_x, (B * mu, d_q))
    h = ad.relu(ad.affine(rows, params.w1, params.b1))
    scores = ad.reshape(ad.matmul(h, params.w2), (B, mu))
    return ad.masked_softmax(scores, axis=1, mask=np.asarray(mask_i, dtype=bool))


def pool(weights: Tensor, I_x: Tensor) -> Tensor:
    """The pooled vector [B, d_q]: each unit's rows of I_x [B, mu, d_q]
    averaged under its [B, mu] weights."""
    B, mu, d_q = I_x.shape
    return ad.reshape(ad.bmm(ad.reshape(weights, (B, 1, mu)), I_x), (B, d_q))


def prior_ground(regions: UnitRegions, x: Tensor, mask_x: np.ndarray,
                 params: GroundingParams) -> tuple[Tensor, Tensor]:
    """Context-only grounding of a batch: returns (g, I_x), which `pool`
    turns into the prior's pooled vector where it is read.

    regions: the units' regions from `gather_regions`; x: [B, lam, d]
    context rows, mask_x their real tokens.
    """
    _, I_x = cross_attend(regions, x, x, mask_x, params)
    return region_weights(I_x, params, regions.mask), I_x


def posterior_ground(regions: UnitRegions, x: Tensor, y: Tensor, mask_x: np.ndarray,
                     params: GroundingParams) -> tuple[Tensor, Tensor]:
    """Answer-informed grounding: the prior pipeline queried with x + y;
    returns (G, v_post). regions are the units' regions from
    `gather_regions`, the ones the prior reads; x and y are [B, lam, d].

    Shares every parameter with the prior. The answer steers where the
    attention looks (the x + y queries) while the attended content stays x,
    so the answer cannot tunnel straight into v_post and the posterior is
    forced to earn its sharpness by selecting answer-consistent regions.
    """
    _, I_x_post = cross_attend(regions, ad.add(x, y), x, mask_x, params)
    G = region_weights(I_x_post, params, regions.mask)
    return G, pool(G, I_x_post)


def bridge_loss(G: Tensor, g: Tensor) -> Tensor:
    """KL(posterior G, prior g) over region weights, [B, mu] each, averaged
    over the units of the batch; padding regions weigh 0 on both sides.

    The posterior enters as an array, a constant target: a KL gradient that
    reached it would let the posterior collapse onto the prior.
    """
    return ad.kl_divergence(G.data, g)

