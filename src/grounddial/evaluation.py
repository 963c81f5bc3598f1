"""Retrieval metrics, the grounding-accuracy protocol, distribution
ablations, and entropy diagnostics.

All ranks are 1-based; score ties break in favor of the lower candidate
index everywhere so that results are bit-reproducible. Metrics are stored
as fractions in [0, 1]; multiply by 100 only when formatting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .autodiff import ContractError, DivergenceError, InvalidDistributionError
from .data import DialogDataset, batch_iterator
from .model import ModelParams, TrainConfig, Unit, infer_batch_scores, prepare_units


@dataclass
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
    # one attention_record per unit, in unit order; not a metric,
    # so to_dict leaves it out
    attention: list[dict] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "attention" and getattr(self, f.name) is not None}


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
    # stable sort on (-score, index): ties keep the lower index first
    return np.lexsort((np.arange(scores.shape[0]), -scores))


def ndcg(scores: Sequence[float], relevance: Sequence[float]) -> float:
    """DCG of the score ordering over ideal DCG, discount 1/log2(pos + 1)."""
    s = np.asarray(scores, dtype=float)
    rel = np.asarray(relevance, dtype=float)
    if s.shape != rel.shape:
        raise ContractError(f"scores {s.shape} vs relevance {rel.shape}")
    if (rel < 0).any() or (rel > 1).any():
        raise ContractError("relevance entries must lie in [0, 1]")
    if rel.max() <= 0:
        raise ContractError("ndcg needs at least one positive relevance")
    discounts = 1.0 / np.log2(np.arange(2, s.shape[0] + 2))
    dcg = float((rel[_descending_order(s)] * discounts).sum())
    ideal = float((np.sort(rel)[::-1] * discounts).sum())
    return dcg / ideal


def grounding_hit(g: np.ndarray, gt_grounding: Sequence[int], top_k: int) -> bool:
    """Whether the top_k regions of g, ties to the lower index, include a
    ground-truth one."""
    return not set(_descending_order(g)[:top_k].tolist()).isdisjoint(gt_grounding)


def attention_record(image_id: str, round_idx: int, g: np.ndarray,
                     G: Optional[np.ndarray] = None,
                     gt_grounding: Optional[list[int]] = None) -> dict:
    """One exportable JSON record per (image, round)."""
    rec = {
        "image_id": image_id,
        "round": round_idx,
        "prior": [float(v) for v in g],
        "top3_prior": _descending_order(g)[:3].tolist(),
    }
    if G is not None:
        rec["posterior"] = [float(v) for v in G]
    if gt_grounding is not None:
        rec["gt_grounding"] = [int(i) for i in gt_grounding]
    return rec


def distribution_entropy(dist: Sequence[float]) -> float:
    """Shannon entropy in nats with 0 ln 0 := 0."""
    p = np.asarray(dist, dtype=float)
    # phrased so that a NaN or infinite entry fails the test
    if not ((p >= 0).all() and abs(p.sum() - 1.0) <= 1e-6):
        raise InvalidDistributionError("entropy needs a finite simplex vector")
    support = p > 0
    return float(-(p[support] * np.log(p[support])).sum())


ABLATION_MODES = ("learned", "mean", "random", "oracle")


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
    over batches of cfg.batch_size units.

    `cfg` is the configuration the model was trained with. `decoder` defaults
    to the discriminative one only when that run trained the discriminative
    loss alone. `ablate` replaces the prior before pooling: uniform ("mean"),
    shuffled among the units of a batch that have the same region count
    ("random", seeded by `seed`) or the ground truth ("oracle").

    Each batch is one inference pass (`infer_batch_scores`): ranking, the
    grounding hits, the entropies and the attention records all read the
    weights the batch was ranked with. The report keeps each unit's attention
    record. with_posterior additionally runs the answer-aware posterior on
    the same context encoding: each record gets its "posterior" and the
    report its mean entropy (the Table-3 "with answers" protocol); it never
    affects the ranking metrics.
    """
    if ablate not in ABLATION_MODES:
        raise ValueError(f"unknown ablation mode {ablate!r}; know {ABLATION_MODES}")
    decoder = decoder or ("discriminative" if cfg.loss_mode == "discriminative" else "generative")
    if units is None:
        units = prepare_units(ds, cfg.seq_len, cfg.max_history)
    if not units:
        raise ContractError("evaluate on an empty dataset")

    rng = np.random.default_rng(seed)
    ranks: list[int] = []
    ndcgs: list[float] = []
    records: list[dict] = []
    entropies: list[float] = []
    post_entropies: list[float] = []
    hits = {1: 0, 3: 0}
    for batch in batch_iterator(units, cfg.batch_size, seed=None):
        g_override = (None if ablate == "learned"
                      else lambda learned: _ablated_weights(batch, learned, ablate, rng))
        scores, weights, posteriors = infer_batch_scores(
            params, batch, cfg, decoder=decoder, with_posterior=with_posterior,
            g_override=g_override)
        for b, (u, s) in enumerate(zip(batch, scores)):
            mu = u.features.shape[0]
            g = weights[b, :mu]
            G = posteriors[b, :mu] if with_posterior else None
            outputs = (s, g) if G is None else (s, g, G)
            if not all(np.isfinite(out).all() for out in outputs):
                raise DivergenceError(f"non-finite score or region weight for image_id "
                                      f"{u.image_id!r} round {u.round_index}")
            ranks.append(rank_of_gt(s, u.gt_index))
            if u.relevance is not None:
                ndcgs.append(ndcg(s, u.relevance))
            entropies.append(distribution_entropy(g))
            if with_posterior:
                post_entropies.append(distribution_entropy(G))
            if u.gt_grounding is not None:
                for k in hits:
                    hits[k] += grounding_hit(g, u.gt_grounding, k)
            records.append(attention_record(u.image_id, u.round_index, g, G=G,
                                            gt_grounding=u.gt_grounding))

    report = EvalReport(
        mrr=mrr(ranks),
        r_at_1=recall_at_k(ranks, 1),
        r_at_5=recall_at_k(ranks, 5),
        r_at_10=recall_at_k(ranks, 10),
        mean_rank=mean_rank(ranks),
        n_units=len(units),
        ndcg=float(np.mean(ndcgs)) if len(ndcgs) == len(units) else None,
        entropy_prior=float(np.mean(entropies)),
        attention=records,
    )
    if all(u.gt_grounding is not None for u in units):
        report.grounding_top1 = hits[1] / len(units)
        report.grounding_top3 = hits[3] / len(units)
    if with_posterior:
        report.entropy_posterior = float(np.mean(post_entropies))
    return report
