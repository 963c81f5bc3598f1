"""Run configuration, model parameter container and the batched forward pass.

A training/evaluation unit is one (dialog, round): history is the caption
plus the latest earlier question-answer pairs, exactly the per-round
prediction setup. Units are prepared once per dataset and reused across
epochs. A unit borrows its round's candidate, relevance and grounding
lists, and its question and answer unless seq_len cuts them; a dataset
gives each distinct text one token list, which every caption, question,
answer and option with that text holds. The history rows (the caption
and each round's question+answer, cut to seq_len) are built once per
dialog and shared by its units. Nothing in the package writes to a unit's
lists: the encoders, decoders and evaluation read them or copy what they
pack, and an evaluation report borrows the grounding lists it keeps. A
batch of units is packed and runs through every layer together: one op
sequence per batch, whatever its size, with a mask for ragged questions
and a pad index in the row grids of ragged histories and region counts.

A layer that acts on one row at a time runs on the distinct rows of a
batch, and the per-unit [B, n] grid of row indices is read only where rows
start to depend on their unit (attention logits, residuals, pooling). So
packing keeps each distinct image's feature block once (the units of an
example share its `region_features` array, which is the key), with a
[B, mu] grid that indexes it: `encoders.project_regions` and the
grounding's region-side product run once per image
(`grounding.gather_regions`, whose rows the prior and the posterior
share). Sentences are passed on as they are, repeats included: finding a
batch's distinct sentences is the encoders' rule. `encoders.encode_history`
returns one row per distinct history sentence and the row each unit's
element reads, from which `encode_context` builds the [B, T] grid that
`encoders.fuse_context` reads, so its key and value products run once per
history sentence.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import reduce
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, DegenerateSliceError, Tensor
from .data import EOS_ID, DialogDataset
from .decoders import (
    DecoderParams,
    discriminative_loss_and_rank,
    discriminative_scores,
    fuse_for_decoder,
    generative_loss,
    generative_rank,
    init_decoder_params,
)
from .encoders import (
    EncoderParams,
    encode_history,
    encode_tokens,
    first_of_each,
    fuse_context,
    init_encoder_params,
    padded_rows,
    project_regions,
)
from .grounding import (
    GroundingParams,
    UnitRegions,
    bridge_loss,
    gather_regions,
    init_grounding_params,
    pool,
    posterior_ground,
    prior_ground,
)

LOSS_MODES = ("generative", "discriminative", "multitask")


@dataclass(frozen=True)
class TrainConfig:
    """The one description of a run: losses, bridge, model shape, epochs,
    the training minibatch and seed; the optimiser is fixed in `training`
    and the cross-attention normalisation in `grounding`.
    Training records it in every checkpoint, and evaluation reads it back
    from there, so the prior used at inference is the pipeline that was
    trained. Invalid values raise ContractError naming the field."""
    loss_mode: str = "generative"
    kl_weight: float = 1.0
    fusion_residual: bool = True
    max_epochs: int = 20
    batch_size: int = 32    # the training minibatch; evaluate uses EVAL_BATCH_UNITS
    seed: int = 0
    d_q: int = 64
    d_e: int = 64
    n_heads: int = 4
    d_h: int = 64
    seq_len: int = 20
    max_history: int = 11

    def __post_init__(self) -> None:
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            allowed = (int, float) if kind is float else kind
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
                raise ContractError(f"{f.name} must be a {kind.__name__}, got {value!r}")
        if self.loss_mode not in LOSS_MODES:
            raise ContractError(f"loss_mode must be one of {LOSS_MODES}")
        if not 0 <= self.kl_weight < np.inf:
            raise ContractError(f"kl_weight must be finite and >= 0, got {self.kl_weight}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        for name in ("max_epochs", "batch_size", "d_q", "d_e", "n_heads", "d_h",
                     "seq_len", "max_history"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1")
        if self.d_q % 2 or self.d_q % self.n_heads:
            raise ContractError(f"d_q must be even and divisible by n_heads={self.n_heads}, "
                                f"got {self.d_q}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Strict inverse of to_dict: missing fields take their defaults, and
        an unknown key raises ContractError naming it."""
        if not isinstance(d, dict):
            raise ContractError(f"a config must be a JSON object, got {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ContractError(f"unknown config key(s) {unknown}")
        return cls(**d)


@dataclass
class ModelParams:
    encoder: EncoderParams
    grounding: GroundingParams
    decoder: DecoderParams


def init_model_params(rng: np.random.Generator, vocab_size: int, d_v: int, *,
                      d_e: int, d_q: int, n_heads: int, d_h: int,
                      fusion_residual: bool) -> ModelParams:
    """Fresh parameters of the given shape, drawn from rng in a fixed order.
    A model of a run is built by `init_params_for`, which reads the shape
    from the run's TrainConfig."""
    return ModelParams(
        encoder=init_encoder_params(rng, vocab_size, d_v, d_e=d_e, d_q=d_q,
                                    n_heads=n_heads, fusion_residual=fusion_residual),
        grounding=init_grounding_params(rng, d_q=d_q, d_h=d_h),
        decoder=init_decoder_params(rng, vocab_size, d_e=d_e, d_q=d_q),
    )


def init_params_for(cfg: TrainConfig, rng: np.random.Generator, vocab_size: int,
                    d_v: int) -> ModelParams:
    """Fresh parameters of the model cfg describes, for a vocabulary of
    vocab_size tokens and d_v values per region: the one place that reads
    a config's shape fields, so training and evaluation build one model."""
    return init_model_params(rng, vocab_size, d_v, d_e=cfg.d_e, d_q=cfg.d_q,
                             n_heads=cfg.n_heads, d_h=cfg.d_h,
                             fusion_residual=cfg.fusion_residual)


def _walk(obj, prefix: str, out: dict) -> None:
    for f in fields(obj):
        value = getattr(obj, f.name)
        name = f"{prefix}.{f.name}" if prefix else f.name
        if isinstance(value, Tensor):
            if value.requires_grad:
                out[name] = value
        elif hasattr(value, "__dataclass_fields__"):
            _walk(value, name, out)


def named_parameters(params: ModelParams) -> dict[str, Tensor]:
    """Flat name -> Tensor map in a deterministic field order."""
    out: dict[str, Tensor] = {}
    _walk(params, "", out)
    return out


@dataclass
class Unit:
    round_index: int
    image_id: str
    # The lists are borrowed: the round's (a token list is its text's, shared
    # by every round with that text), or rows its dialog's units share. Only
    # answer_targets, the outer history list and a question or answer that
    # seq_len cuts are the unit's alone. No one writes to them.
    question: list[int]         # the round's question tokens, cut to seq_len
    answer: list[int]           # the round's answer tokens, cut to seq_len, for y
    answer_targets: list[int]   # trimmed answer tokens + EOS
    history: list[list[int]]    # the dialog's shared caption and earlier-round rows
    candidates: list[list[int]]         # the round's
    gt_index: int
    relevance: Optional[list[float]]    # the round's
    gt_grounding: Optional[list[int]]   # the round's
    features: np.ndarray                # [mu, d_v], the dialog's region_features


def _cut(tokens: list[int], n: int) -> list[int]:
    """`tokens` itself if it has at most n, else its first n."""
    return tokens if len(tokens) <= n else tokens[:n]


def prepare_units(ds: DialogDataset, seq_len: int, max_history: int) -> list[Unit]:
    """Every unit of `ds`, in `ds.units()` order, each dialog walked once.
    A unit's history is its dialog's caption row, then the rows of at most
    max_history - 1 of the latest earlier rounds; the module docstring says
    which lists a unit borrows."""
    units = []
    for ex in ds.examples:
        caption = _cut(ex.caption_tokens, seq_len)
        pairs = [(r.question_tokens + r.answer_tokens)[:seq_len] for r in ex.rounds[:-1]]
        for t, rnd in enumerate(ex.rounds):
            units.append(Unit(
                round_index=t,
                image_id=ex.image_id,
                question=_cut(rnd.question_tokens, seq_len),
                answer=_cut(rnd.answer_tokens, seq_len),
                answer_targets=rnd.answer_tokens[:seq_len - 1] + [EOS_ID],
                history=[caption, *pairs[max(0, t + 1 - max_history):t]],
                candidates=rnd.candidates,
                gt_index=rnd.gt_index,
                relevance=rnd.relevance,
                gt_grounding=rnd.gt_grounding,
                features=ex.region_features,
            ))
    return units


@dataclass
class Batch:
    """Units packed for one forward pass: token lists, masks and row indices.

    lam is the longest question of the batch and mu its most regions;
    q_mask marks the real positions of each padded question. `history` is
    every unit's history rows, unit after unit, repeats included.
    `regions` holds each distinct image's features once, in order of first
    occurrence (images are told apart by the identity of the `features`
    array their units share), and region_rows indexes it as
    `autodiff.gather_rows` reads it: a position past a unit's regions holds
    the pad index.
    """
    units: list[Unit]
    questions: list[list[int]]
    answers: list[list[int]]
    q_mask: np.ndarray         # [B, lam]
    history: list[list[int]]   # every unit's history rows, in unit order
    regions: Tensor            # [R, d_v] each distinct image's features once, image by image
    region_rows: np.ndarray    # [B, mu] row of `regions`; len(regions) pads


def pack_batch(units: Sequence[Unit]) -> Batch:
    """Pack a batch; a unit no batched op can take raises, naming it."""
    units = list(units)
    if not units:
        raise ContractError("a batch needs at least one unit")
    for u in units:
        if not u.question:
            raise DegenerateSliceError(f"unit {u.image_id!r} round {u.round_index}: "
                                       "empty question")
    lengths = [len(u.question) for u in units]
    q_mask = np.arange(max(lengths)) < np.asarray(lengths)[:, None]
    images, image_of = first_of_each([u.features for u in units], id)
    mus = np.array([f.shape[0] for f in images])
    first_row = np.cumsum(mus) - mus
    region_rows = np.where(np.arange(mus.max()) < mus[image_of][:, None],
                           first_row[image_of][:, None] + np.arange(mus.max()), mus.sum())
    return Batch(
        units=units,
        questions=[u.question for u in units],
        answers=[u.answer for u in units],
        q_mask=q_mask,
        history=[h for u in units for h in u.history],
        regions=Tensor(np.concatenate(images, axis=0)),
        region_rows=region_rows,
    )


@dataclass
class BatchForward:
    """The training loss and the batch-mean losses it sums, by name: L_G
    and/or L_D as loss_mode selects, then L_KL."""
    loss: Tensor
    losses: dict[str, Tensor]


def encode_context(params: ModelParams, batch: Batch) -> tuple[Tensor, Tensor]:
    """Context representations x [B, lam, d_q] of a packed batch, and its
    projected regions I [R, d_q], one row per row of `batch.regions`."""
    enc = params.encoder
    Q = encode_tokens(batch.questions, batch.q_mask.shape[1], enc.question, enc.embedding)
    H, history_of = encode_history(batch.history, enc)
    rows_h, _ = padded_rows([len(u.history) for u in batch.units], history_of, H.shape[0])
    x = fuse_context(Q, H, batch.q_mask, rows_h, enc)
    return x, project_regions(batch.regions, enc)


def _prior(params: ModelParams, batch: Batch):
    x, I = encode_context(params, batch)
    regions = gather_regions(I, batch.region_rows, params.grounding)
    g, I_x = prior_ground(regions, x, batch.q_mask, params.grounding)
    return x, regions, g, I_x


def _posterior(params: ModelParams, batch: Batch, x: Tensor, regions: UnitRegions):
    enc = params.encoder
    y = encode_tokens(batch.answers, batch.q_mask.shape[1], enc.answer, enc.embedding)
    return posterior_ground(regions, x, y, batch.q_mask, params.grounding)


def forward_batch(params: ModelParams, units: Sequence[Unit], cfg: TrainConfig) -> BatchForward:
    """Training forward pass over a batch; each loss is the mean of the
    per-unit losses, and the training loss is the decoder losses that
    loss_mode selects plus kl_weight times the bridge.

    The decoder reads the posterior's pooled regions v_post; inference
    (`infer_batch_scores`) reads the prior's in their place.
    """
    batch = pack_batch(units)
    x, regions, g, _ = _prior(params, batch)
    G, v_post = _posterior(params, batch, x, regions)
    L_KL = bridge_loss(G, g)

    fused = fuse_for_decoder(x, batch.q_mask, v_post, params.decoder)
    embedding = params.encoder.embedding
    losses: dict[str, Tensor] = {}
    if cfg.loss_mode in ("generative", "multitask"):
        losses["L_G"] = generative_loss(fused, [u.answer_targets for u in batch.units],
                                        embedding, params.decoder)
    if cfg.loss_mode in ("discriminative", "multitask"):
        losses["L_D"], _ = discriminative_loss_and_rank(
            fused, [u.candidates for u in batch.units], [u.gt_index for u in batch.units],
            embedding, params.decoder)
    loss = reduce(ad.add, [*losses.values(), ad.scale(L_KL, cfg.kl_weight)])
    losses["L_KL"] = L_KL
    return BatchForward(loss=loss, losses=losses)


def infer_batch_scores(params: ModelParams, units: Sequence[Unit], *, decoder: str,
                       with_posterior: bool = False,
                       g_override: Optional[Callable[[np.ndarray], np.ndarray]] = None
                       ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Inference pass over a batch: the [B, N] candidate scores, the [B, mu]
    region weights pooled with, and the posterior's [B, mu] weights when
    `with_posterior` is set (None otherwise). Score rows are -inf past each
    unit's candidates, weight rows zero past each unit's regions.

    Ranking pools with the prior (no answer information). `g_override`, for
    the ablation protocols, is given the prior's weights and returns the
    weights to pool with instead. The posterior reads the same context
    encoding as the prior and never affects the scores.
    """
    if decoder not in ("generative", "discriminative"):
        raise ValueError(f"unknown decoder {decoder!r}")
    batch = pack_batch(units)
    x, regions, g, I_x = _prior(params, batch)
    weights = g.data
    if g_override is not None:
        weights = np.asarray(g_override(weights), dtype=float)
        if weights.shape != g.shape:
            raise ContractError(f"g_override returned weights of shape {weights.shape}, "
                                f"expected {g.shape}")
    v_prior = pool(Tensor(weights), I_x)
    posterior = _posterior(params, batch, x, regions)[0].data if with_posterior else None
    fused = fuse_for_decoder(x, batch.q_mask, v_prior, params.decoder)
    candidates = [u.candidates for u in batch.units]
    embedding = params.encoder.embedding
    if decoder == "generative":
        scores = generative_rank(fused, candidates, embedding, params.decoder)
    else:
        scores = discriminative_scores(fused, candidates, embedding, params.decoder).data
    return scores, weights, posterior
