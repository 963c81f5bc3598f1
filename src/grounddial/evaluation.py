"""Retrieval metrics, the grounding-accuracy protocol, distribution
ablations, and entropy diagnostics.

All ranks are 1-based; score ties break in favor of the lower candidate
index everywhere so that results are bit-reproducible. Metrics are stored
as fractions in [0, 1]; multiply by 100 only when formatting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .autodiff import ContractError, DivergenceError, check_simplex
from .data import DialogDataset, batch_iterator
from .model import ModelParams, TrainConfig, Unit, infer_batch_scores, prepare_units


@dataclass(eq=False)
class RecordBatch:
    """The attention records of one evaluation batch, kept as arrays: the
    [B, mu] prior rows, the [B, 3] top-3 columns of their descending order
    and the posterior rows (or None), each row padded past its unit's
    regions, with each unit's image id, round index, region count and
    gt_grounding list."""
    image_ids: list[str]
    rounds: list[int]
    mus: list[int]
    gt_grounding: list[Optional[list[int]]]
    prior: np.ndarray
    top3: np.ndarray
    posterior: Optional[np.ndarray]

    def records(self) -> list[dict]:
        """One attention_record per unit, its rows cut to its regions."""
        priors, top3 = self.prior.tolist(), self.top3.tolist()
        post = None if self.posterior is None else self.posterior.tolist()
        return [attention_record(image_id, round_idx, priors[b][:mu], top3[b][:mu],
                                 G=None if post is None else post[b][:mu], gt_grounding=gt)
                for b, (image_id, round_idx, mu, gt)
                in enumerate(zip(self.image_ids, self.rounds, self.mus, self.gt_grounding))]


@dataclass(eq=False)
class EvalReport:
    mrr: float
    r_at_1: float
    r_at_5: float
    r_at_10: float
    mean_rank: float
    n_units: int
    ndcg: Optional[float] = None
    grounding_top1: Optional[float] = None
    grounding_top3: Optional[float] = None
    entropy_prior: Optional[float] = None
    entropy_posterior: Optional[float] = None
    posterior_top1: Optional[float] = None
    # the region weights of each evaluation batch, in unit order; not a
    # metric, so to_dict leaves them out, and `attention` builds the records
    record_batches: list[RecordBatch] = field(default_factory=list, repr=False)

    @property
    def attention(self) -> list[dict]:
        """One attention_record per unit, in unit order, built on each read."""
        return [rec for batch in self.record_batches for rec in batch.records()]

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "record_batches" and getattr(self, f.name) is not None}


def rank_of_gt(scores: Sequence[float], gt_index: int) -> int:
    """1-based rank of the gt candidate under descending score; a tied gt
    ranks ahead of every tied peer with a higher index."""
    s = np.asarray(scores, dtype=float)
    n = s.shape[0]
    if not 0 <= gt_index < n:
        raise IndexError(f"gt_index {gt_index} out of range for {n} scores")
    gt = s[gt_index]
    better = int((s > gt).sum())
    tied_before = int((s[:gt_index] == gt).sum())
    return 1 + better + tied_before


def mrr(ranks: Sequence[int]) -> float:
    ranks = list(ranks)
    if any(r < 1 for r in ranks):
        raise ContractError("ranks are 1-based")
    return float(np.mean([1.0 / r for r in ranks]))


def recall_at_k(ranks: Sequence[int], k: int) -> float:
    if k < 1:
        raise ContractError("k must be >= 1")
    ranks = list(ranks)
    return float(np.mean([1.0 if r <= k else 0.0 for r in ranks]))


def mean_rank(ranks: Sequence[int]) -> float:
    ranks = list(ranks)
    if not ranks:
        raise ContractError("mean_rank of an empty list")
    return float(np.mean(ranks))


def _descending_order(scores: np.ndarray) -> np.ndarray:
    # stable sort on -score along the last axis: ties keep the lower index first
    return np.argsort(-scores, axis=-1, kind="stable")


def ndcg(scores, relevance) -> np.ndarray:
    """Per row of [B, n] scores, DCG of the score ordering over ideal DCG,
    discount 1/log2(pos + 1); one value per row.

    A row may be padded past its candidates with -inf scores and 0 relevance.
    """
    s = np.asarray(scores, dtype=float)
    rel = np.asarray(relevance, dtype=float)
    if s.ndim != 2 or s.shape != rel.shape:
        raise ContractError(f"ndcg takes [B, n] rows: scores {s.shape} vs relevance {rel.shape}")
    if (rel < 0).any() or (rel > 1).any():
        raise ContractError("relevance entries must lie in [0, 1]")
    if (rel.max(axis=1) <= 0).any():
        raise ContractError("ndcg needs at least one positive relevance")
    discounts = 1.0 / np.log2(np.arange(2, s.shape[1] + 2))
    dcg = (np.take_along_axis(rel, _descending_order(s), axis=1) * discounts).sum(axis=1)
    ideal = (np.sort(rel, axis=1)[:, ::-1] * discounts).sum(axis=1)
    return dcg / ideal


def _gt_mask(gt_grounding: Sequence[Optional[Sequence[int]]], g: np.ndarray) -> np.ndarray:
    """[B, mu] bool: the ground-truth regions of each row of g. An index
    outside the row, or at a -inf (padding) entry, marks nothing; a None
    row marks none."""
    lists = [() if gt is None else gt for gt in gt_grounding]
    owner = np.repeat(np.arange(len(lists)), [len(gt) for gt in lists])
    index = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=owner.size)
    keep = (index >= 0) & (index < g.shape[1])
    mask = np.zeros(g.shape, dtype=bool)
    mask[owner[keep], index[keep]] = True
    return mask & (g != -np.inf)


def _top_k_hits(order: np.ndarray, gt_mask: np.ndarray, top_k: int) -> np.ndarray:
    return np.take_along_axis(gt_mask, order[:, :top_k], axis=1).any(axis=1)


def attention_record(image_id: str, round_idx: int, g: Sequence[float], top3: list[int],
                     G: Optional[Sequence[float]] = None,
                     gt_grounding: Optional[list[int]] = None) -> dict:
    """One exportable JSON record per (image, round); `top3` is the first
    three regions of g's descending order (`_descending_order`)."""
    rec = {
        "image_id": image_id,
        "round": round_idx,
        "prior": [float(v) for v in g],
        "top3_prior": top3,
    }
    if G is not None:
        rec["posterior"] = [float(v) for v in G]
    if gt_grounding is not None:
        rec["gt_grounding"] = [int(i) for i in gt_grounding]
    return rec


def distribution_entropy(dist) -> np.ndarray:
    """Shannon entropy in nats with 0 ln 0 := 0, one value per row of a
    [B, n] array. A row may be padded with zeros."""
    p = np.asarray(dist, dtype=float)
    if p.ndim != 2:
        raise ContractError(f"distribution_entropy takes [B, n] rows, got {p.shape}")
    check_simplex(p, "an entropy's distribution")
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=1)


ABLATION_MODES = ("learned", "mean", "random", "oracle")

# Units per inference pass: 64 ranks a 60-unit benchmark chunk in one pass,
# and a pass's peak memory grows with it. `evaluate` says what the batching
# can change.
EVAL_BATCH_UNITS = 64


def _ablated_weights(batch: list[Unit], learned: np.ndarray, mode: str,
                     rng: np.random.Generator) -> np.ndarray:
    """Replacement [B, mu] weights of a batch for the mean, oracle and random
    modes, given its learned prior weights; rows are zero past each unit's
    regions."""
    mus = np.array([u.features.shape[0] for u in batch])
    if mode == "mean":
        return (np.arange(learned.shape[1]) < mus[:, None]) / mus[:, None]
    out = np.zeros_like(learned)
    if mode == "oracle":
        for b, u in enumerate(batch):
            if u.gt_grounding is None:
                raise ContractError(f"oracle ablation needs gt_grounding on unit "
                                    f"{u.image_id!r} round {u.round_index}")
            out[b, :mus[b]][list(u.gt_grounding)] = 1.0 / len(u.gt_grounding)
        return out
    # random: the learned rows shuffled among the batch's units with the
    # same region count
    for mu in dict.fromkeys(mus.tolist()):
        same = np.flatnonzero(mus == mu)
        out[same] = learned[same[rng.permutation(len(same))]]
    return out


def evaluate(params: ModelParams, ds: DialogDataset, cfg: TrainConfig = TrainConfig(), *,
             decoder: Optional[str] = None, ablate: str = "learned", seed: int = 0,
             with_posterior: bool = False,
             units: Optional[list[Unit]] = None) -> EvalReport:
    """Inference-condition evaluation: ranking and grounding from the prior,
    over batches of EVAL_BATCH_UNITS units.

    `cfg` is the configuration the model was trained with. `decoder` defaults
    to the discriminative one only when that run trained the discriminative
    loss alone; its batch_size is the training minibatch and plays no part
    here. `ablate` replaces the prior before pooling: uniform ("mean"),
    shuffled among the units of a batch that have the same region count
    ("random", seeded by `seed`) or the ground truth ("oracle"). Under the
    other modes the report and its records do not depend on how the units
    are batched, down to batches of one unit, with one exception: the
    records' region weights may differ in their last bits with the region
    count of the batch's widest image, the width each softmax runs over.

    Each batch is one inference pass (`infer_batch_scores`), scored once on
    its [B, N] candidate scores and [B, mu] region weights: one finiteness
    check over the real entries (a non-finite one raises DivergenceError
    naming the first such unit), and row-wise NDCG, entropies and grounding
    hits read the weights the batch was ranked with. One stable descending
    order of the weights gives the top-1 and top-3 hits and each record's
    top-3 regions. `rank_of_gt` is still called once per unit, on the unit's
    own scores. The report keeps each batch's region weights and top-3
    columns as arrays, with each unit's ids, region count and borrowed
    gt_grounding list but not the unit itself; `EvalReport.attention` builds
    the per-unit records from them when read.
    with_posterior additionally runs the answer-aware posterior on the same
    context encoding: each record gets its "posterior" and the report its
    mean entropy (the Table-3 "with answers" protocol) and, where every unit
    has gt_grounding, its top-1 hit rate, read with the prior's order and
    tie rule; it never affects the ranking metrics.
    """
    if ablate not in ABLATION_MODES:
        raise ValueError(f"unknown ablation mode {ablate!r}; know {ABLATION_MODES}")
    decoder = decoder or ("discriminative" if cfg.loss_mode == "discriminative" else "generative")
    if units is None:
        units = prepare_units(ds, cfg.seq_len, cfg.max_history)
    if not units:
        raise ContractError("evaluate on an empty dataset")

    rng = np.random.default_rng(seed)
    rated = all(u.relevance is not None for u in units)
    ranks: list[int] = []
    ndcgs: list[np.ndarray] = []
    entropies: list[np.ndarray] = []
    post_entropies: list[np.ndarray] = []
    record_batches: list[RecordBatch] = []
    hits = {1: 0, 3: 0}
    post_hits = 0
    for batch in batch_iterator(units, EVAL_BATCH_UNITS, seed=None):
        g_override = (None if ablate == "learned"
                      else lambda learned: _ablated_weights(batch, learned, ablate, rng))
        scores, weights, posteriors = infer_batch_scores(
            params, batch, decoder=decoder, with_posterior=with_posterior,
            g_override=g_override)
        n_cands = [len(u.candidates) for u in batch]
        mus = [u.features.shape[0] for u in batch]
        real = np.arange(scores.shape[1]) < np.array(n_cands)[:, None]
        regions = np.arange(weights.shape[1]) < np.array(mus)[:, None]
        outputs = [(scores, real), (weights, regions)]
        if with_posterior:
            outputs.append((posteriors, regions))
        bad = np.logical_or.reduce([(~np.isfinite(out) & mask).any(axis=1)
                                    for out, mask in outputs])
        if bad.any():
            u = batch[int(bad.argmax())]
            raise DivergenceError(f"non-finite score or region weight for image_id "
                                  f"{u.image_id!r} round {u.round_index}")

        for u, s, n in zip(batch, scores, n_cands):
            ranks.append(rank_of_gt(s[:n], u.gt_index))
        if rated:
            rel = np.zeros(scores.shape)
            rel[real] = np.fromiter(chain.from_iterable(u.relevance for u in batch), dtype=float)
            ndcgs.append(ndcg(scores, rel))
        entropies.append(distribution_entropy(weights))
        masked = np.where(regions, weights, -np.inf)
        order = _descending_order(masked)
        gt_mask = _gt_mask([u.gt_grounding for u in batch], masked)
        for k in hits:
            hits[k] += int(_top_k_hits(order, gt_mask, k).sum())
        if with_posterior:
            post_entropies.append(distribution_entropy(posteriors))
            post_order = _descending_order(np.where(regions, posteriors, -np.inf))
            post_hits += int(_top_k_hits(post_order, gt_mask, 1).sum())
        record_batches.append(RecordBatch(
            [u.image_id for u in batch], [u.round_index for u in batch], mus,
            [u.gt_grounding for u in batch], weights, order[:, :3].copy(), posteriors))

    report = EvalReport(
        mrr=mrr(ranks),
        r_at_1=recall_at_k(ranks, 1),
        r_at_5=recall_at_k(ranks, 5),
        r_at_10=recall_at_k(ranks, 10),
        mean_rank=mean_rank(ranks),
        n_units=len(units),
        ndcg=float(np.mean(np.concatenate(ndcgs))) if rated else None,
        entropy_prior=float(np.mean(np.concatenate(entropies))),
        record_batches=record_batches,
    )
    grounded = all(u.gt_grounding is not None for u in units)
    if grounded:
        report.grounding_top1 = hits[1] / len(units)
        report.grounding_top3 = hits[3] / len(units)
    if with_posterior:
        report.entropy_posterior = float(np.mean(np.concatenate(post_entropies)))
        if grounded:
            report.posterior_top1 = post_hits / len(units)
    return report
