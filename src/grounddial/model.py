"""Run configuration, model parameter container and the per-unit forward pass.

A training/evaluation unit is one (dialog, round): history is the caption
plus all earlier question-answer pairs, exactly the per-round prediction
setup. Units are prepared once per dataset (token padding, masks, constant
feature tensors) and reused across epochs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor
from .data import EOS_ID, DialogDataset, DialogExample
from .decoders import (
    DecoderParams,
    discriminative_loss_and_rank,
    discriminative_scores,
    fuse_for_decoder,
    generative_loss,
    generative_rank,
    init_decoder_params,
)
from .encoders import EncoderParams, encode_history, encode_tokens, fuse_context, init_encoder_params, project_regions
from .grounding import (
    BRIDGE_VARIANTS,
    GroundingOutput,
    GroundingParams,
    bridge_loss,
    init_grounding_params,
    posterior_ground,
    prior_ground,
)

LOSS_MODES = ("generative", "discriminative", "multitask")
FEATURE_POLICIES = ("post_train_prior_eval", "always_prior")


@dataclass(frozen=True)
class TrainConfig:
    """The one description of a run: model shape, grounding, decoding and
    optimisation. Training records it in every checkpoint, and evaluation
    reads it back from there, so the prior used at inference is the pipeline
    that was trained. Invalid values raise ContractError naming the field.
    """
    loss_mode: str = "generative"
    kl_weight: float = 1.0
    bridge_variant: str = "attn_kl"
    detach_posterior: bool = True
    decoder_feature_policy: str = "post_train_prior_eval"
    axis_mode: str = "columns"
    score_norm: str = "mean"
    fusion_residual: bool = True
    base_lr: float = 1e-3
    warmup_epochs: int = 1
    decay_every: int = 2
    decay_factor: float = 0.75
    max_epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
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
        choices = {"loss_mode": LOSS_MODES, "decoder_feature_policy": FEATURE_POLICIES,
                   "bridge_variant": BRIDGE_VARIANTS, "axis_mode": ("columns", "rows"),
                   "score_norm": ("mean", "sum")}
        for name, allowed in choices.items():
            if getattr(self, name) not in allowed:
                raise ContractError(f"{name} must be one of {allowed}")
        if self.kl_weight < 0:
            raise ContractError("kl_weight must be >= 0")
        if not 0 < self.decay_factor <= 1:
            raise ContractError("decay_factor must lie in (0, 1]")
        for name in ("max_epochs", "batch_size", "decay_every", "d_q", "d_e", "n_heads", "d_h",
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


def init_model_params(rng: np.random.Generator, vocab_size: int, d_v: int,
                      d_e: int = 64, d_q: int = 64, n_heads: int = 4,
                      d_h: Optional[int] = None, fusion_residual: bool = True) -> ModelParams:
    return ModelParams(
        encoder=init_encoder_params(rng, vocab_size, d_v, d_e=d_e, d_q=d_q,
                                    n_heads=n_heads, fusion_residual=fusion_residual),
        grounding=init_grounding_params(rng, d_q, d_h),
        decoder=init_decoder_params(rng, vocab_size, d_e=d_e, d_q=d_q),
    )


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


def zero_grads(params: ModelParams) -> None:
    for t in named_parameters(params).values():
        t.grad = None


@dataclass
class Unit:
    example_index: int
    round_index: int
    image_id: str
    q_ids: list[int]
    q_mask: list[bool]
    a_ids: list[int]            # answer padded like the question, for y
    a_mask: list[bool]
    answer_targets: list[int]   # trimmed answer tokens + EOS
    history: list[list[int]]
    candidates: list[list[int]]
    gt_index: int
    relevance: Optional[list[float]]
    gt_grounding: Optional[list[int]]
    features: Tensor


def _pad(tokens: Sequence[int], length: int) -> tuple[list[int], list[bool]]:
    ids = list(tokens)[:length]
    mask = [True] * len(ids) + [False] * (length - len(ids))
    return ids + [0] * (length - len(ids)), mask


def prepare_unit(ds: DialogDataset, example_index: int, round_index: int,
                 seq_len: int, max_history: int) -> Unit:
    ex: DialogExample = ds.examples[example_index]
    rnd = ex.rounds[round_index]
    if ex.region_features is None:
        raise ValueError(f"example {ex.image_id!r} has no region features attached")
    q_ids, q_mask = _pad(rnd.question_tokens, seq_len)
    a_ids, a_mask = _pad(rnd.answer_tokens, seq_len)
    history = [list(ex.caption_tokens)[:seq_len]]
    for prev in ex.rounds[:round_index]:
        history.append((list(prev.question_tokens) + list(prev.answer_tokens))[:seq_len])
    history = history[:1] + history[1:][-(max_history - 1):]
    targets = list(rnd.answer_tokens)[: seq_len - 1] + [EOS_ID]
    return Unit(
        example_index=example_index,
        round_index=round_index,
        image_id=ex.image_id,
        q_ids=q_ids,
        q_mask=q_mask,
        a_ids=a_ids,
        a_mask=a_mask,
        answer_targets=targets,
        history=history,
        candidates=[list(c) for c in rnd.candidates],
        gt_index=rnd.gt_index,
        relevance=list(rnd.relevance) if rnd.relevance is not None else None,
        gt_grounding=list(rnd.gt_grounding) if rnd.gt_grounding is not None else None,
        features=ex.region_features,
    )


def prepare_units(ds: DialogDataset, seq_len: int, max_history: int) -> list[Unit]:
    return [prepare_unit(ds, i, t, seq_len, max_history) for i, t in ds.units()]


@dataclass
class UnitForward:
    x: Tensor
    I: Tensor
    grounding: GroundingOutput
    L_G: Optional[Tensor] = None
    L_D: Optional[Tensor] = None
    L_KL: Optional[Tensor] = None


def encode_unit_context(params: ModelParams, unit: Unit) -> tuple[Tensor, Tensor]:
    """Context representation x and projected regions I for one unit."""
    Q = encode_tokens(unit.q_ids, unit.q_mask, params.encoder, "question")
    H = encode_history(unit.history, params.encoder)
    x = fuse_context(Q, H, unit.q_mask, params.encoder)
    I = project_regions(unit.features, params.encoder)
    return x, I


def forward_unit(params: ModelParams, unit: Unit, cfg: TrainConfig) -> UnitForward:
    """Training forward pass: losses for one unit under the configured mode."""
    x, I = encode_unit_context(params, unit)
    g, v_prior, I_x = prior_ground(I, x, unit.q_mask, params.grounding, cfg.axis_mode)
    y = encode_tokens(unit.a_ids, unit.a_mask, params.encoder, "answer")
    G, v_post, I_x_post = posterior_ground(I, x, y, unit.q_mask, params.grounding, cfg.axis_mode)
    out = GroundingOutput(I_x=I_x, g=g, v_prior=v_prior, G=G, v_post=v_post, I_x_post=I_x_post)
    L_KL = bridge_loss(out, cfg.bridge_variant, cfg.detach_posterior)

    v_star = v_post if cfg.decoder_feature_policy == "post_train_prior_eval" else v_prior
    fused = fuse_for_decoder(x, unit.q_mask, v_star, params.decoder)
    L_G = L_D = None
    if cfg.loss_mode in ("generative", "multitask"):
        L_G = generative_loss(fused, unit.answer_targets, params.encoder.embedding, params.decoder)
    if cfg.loss_mode in ("discriminative", "multitask"):
        L_D, _ = discriminative_loss_and_rank(
            fused, unit.candidates, unit.gt_index, params.encoder.embedding, params.decoder)
    return UnitForward(x=x, I=I, grounding=out, L_G=L_G, L_D=L_D, L_KL=L_KL)


def infer_unit_scores(params: ModelParams, unit: Unit, cfg: TrainConfig, *, decoder: str,
                      g_override: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Inference pass: candidate scores and the prior weights for one unit.

    Uses v_prior only (no answer information). `g_override` substitutes the
    distribution before pooling, for the ablation protocols.
    """
    x, I = encode_unit_context(params, unit)
    g, v_prior, I_x = prior_ground(I, x, unit.q_mask, params.grounding, cfg.axis_mode)
    if g_override is not None:
        mu, d_q = I_x.shape
        g_col = ad.const(np.asarray(g_override, dtype=float).reshape(mu, 1))
        v_prior = ad.reshape(ad.matmul(ad.transpose(g_col), I_x), (d_q,))
        g_used = np.asarray(g_override, dtype=float)
    else:
        g_used = g.data
    fused = fuse_for_decoder(x, unit.q_mask, v_prior, params.decoder)
    if decoder == "generative":
        scores = generative_rank(fused, unit.candidates, params.encoder.embedding,
                                 params.decoder, cfg.score_norm)
    elif decoder == "discriminative":
        scores = discriminative_scores(fused, unit.candidates, params.encoder.embedding,
                                       params.decoder)
    else:
        raise ValueError(f"unknown decoder {decoder!r}")
    return scores.data.copy(), g_used.copy()


def unit_prior_weights(params: ModelParams, unit: Unit, cfg: TrainConfig) -> np.ndarray:
    """Prior weights only (no decoding); used by exports and ablations."""
    x, I = encode_unit_context(params, unit)
    g, _, _ = prior_ground(I, x, unit.q_mask, params.grounding, cfg.axis_mode)
    return g.data.copy()


def unit_posterior_weights(params: ModelParams, unit: Unit, cfg: TrainConfig) -> np.ndarray:
    """Posterior weights for diagnostics and the answer-aware grounding export."""
    x, I = encode_unit_context(params, unit)
    y = encode_tokens(unit.a_ids, unit.a_mask, params.encoder, "answer")
    G, _, _ = posterior_ground(I, x, y, unit.q_mask, params.grounding, cfg.axis_mode)
    return G.data.copy()
