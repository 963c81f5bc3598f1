"""Optimizer, learning-rate schedule, loss composition, and the training
loop with its train/inference feature switch.

During training the decoder consumes the posterior visual feature; per-epoch
validation runs strictly in the inference condition (prior only, never the
posterior branch) and the best checkpoint is selected by validation MRR.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import grounding
from .autodiff import ContractError, Tape, Tensor, backward, read_tensor, write_tensor
from .data import DialogDataset, batch_iterator
from .evaluation import evaluate
from .model import ModelParams, TrainConfig, forward_batch, named_parameters, prepare_units, zero_grads


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


def compose_loss(L_G: Optional[Tensor], L_D: Optional[Tensor], L_KL: Tensor,
                 cfg: TrainConfig) -> Tensor:
    """Mode-selected sum of decoder losses plus kl_weight times the bridge."""
    bridge = ad.scale(L_KL, cfg.kl_weight)
    if cfg.loss_mode == "generative":
        if L_G is None:
            raise ContractError("generative mode needs L_G")
        return ad.add(L_G, bridge)
    if cfg.loss_mode == "discriminative":
        if L_D is None:
            raise ContractError("discriminative mode needs L_D")
        return ad.add(L_D, bridge)
    if cfg.loss_mode == "multitask":
        if L_G is None or L_D is None:
            raise ContractError("multitask mode needs both L_G and L_D")
        return ad.add(ad.add(L_G, L_D), bridge)
    raise ContractError(f"unknown loss_mode {cfg.loss_mode!r}")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Linear warm-up from base_lr/10, then stepwise decay.

    During warmup_epochs the rate ramps from base_lr/10 toward base_lr;
    afterwards lr = base_lr * decay_factor ** floor((epoch - warmup) / decay_every).
    """
    if epoch < 0:
        raise ContractError("epoch must be >= 0")
    lo = cfg.base_lr / 10.0
    if epoch < cfg.warmup_epochs:
        return lo + (cfg.base_lr - lo) * (epoch / cfg.warmup_epochs)
    steps = (epoch - cfg.warmup_epochs) // cfg.decay_every
    return cfg.base_lr * cfg.decay_factor ** steps


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adam_step(named: dict[str, Tensor], state: OptimizerState, lr: float,
              cfg: TrainConfig) -> None:
    """Bias-corrected Adam; parameters without a gradient are left alone.

    Every gradient is checked before any update, so a non-finite one raises
    with the parameters and the optimizer state untouched.
    """
    for name, p in named.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise DivergenceError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    for name, p in named.items():
        g = p.grad
        if g is None:
            continue
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# checkpoints: tensor blobs in manifest order plus a JSON manifest

def save_checkpoint(base: Path, named: dict[str, Tensor], cfg: TrainConfig,
                    vocab_tokens: list[str], extra: Optional[dict] = None) -> None:
    base = Path(base)
    names = list(named)
    with open(base.with_suffix(".bin"), "wb") as fh:
        for name in names:
            write_tensor(fh, named[name])
    manifest = {
        "tensors": [{"name": n, "shape": list(named[n].shape)} for n in names],
        "config": cfg.to_dict(),
        "vocab": vocab_tokens,
    }
    if extra:
        manifest.update(extra)
    base.with_suffix(".manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def load_checkpoint(base: Path) -> tuple[dict[str, np.ndarray], TrainConfig, list[str]]:
    base = Path(base)
    manifest = json.loads(base.with_suffix(".manifest.json").read_text())
    cfg = TrainConfig.from_dict(manifest["config"])
    tensors: dict[str, np.ndarray] = {}
    with open(base.with_suffix(".bin"), "rb") as fh:
        for entry in manifest["tensors"]:
            t = read_tensor(fh)
            if list(t.shape) != entry["shape"]:
                raise ValueError(
                    f"manifest mismatch for {entry['name']!r}: "
                    f"file has {t.shape}, manifest says {entry['shape']}")
            tensors[entry["name"]] = t.data
    return tensors, cfg, manifest["vocab"]


def restore_params(params: ModelParams, tensors: dict[str, np.ndarray]) -> None:
    named = named_parameters(params)
    if set(named) != set(tensors):
        missing = set(named) ^ set(tensors)
        raise ValueError(f"manifest mismatch: parameter set differs on {sorted(missing)}")
    for name, arr in tensors.items():
        if named[name].shape != arr.shape:
            raise ValueError(f"manifest mismatch for {name!r}: {named[name].shape} vs {arr.shape}")
        named[name].data = arr.copy()


def _snapshot(named: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {k: v.data.copy() for k, v in named.items()}


@dataclass
class TrainResult:
    epochs: list[dict]
    best_epoch: int
    best_mrr: float
    best_params: dict[str, np.ndarray]
    final_params: dict[str, np.ndarray]


def train(ds_train: DialogDataset, ds_val: DialogDataset, params: ModelParams,
          cfg: TrainConfig, out_dir: Optional[Path] = None,
          quiet: bool = True) -> TrainResult:
    """Run the full loop; returns per-epoch logs and best/final snapshots.

    With out_dir set, writes metrics.jsonl plus best/final checkpoints as it
    goes, so the best checkpoint survives a later divergence abort.
    """
    named = named_parameters(params)
    state = OptimizerState()
    train_units = dict(zip(ds_train.units(), prepare_units(ds_train, cfg.seq_len, cfg.max_history)))
    val_units = prepare_units(ds_val, cfg.seq_len, cfg.max_history)

    log_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        log_path = out_dir / "metrics.jsonl"
        log_path.write_text("")

    epochs: list[dict] = []
    best_epoch, best_mrr = -1, -1.0
    best_params = _snapshot(named)
    for epoch in range(cfg.max_epochs):
        lr = lr_at(epoch, cfg)
        sums = {"L_G": 0.0, "L_D": 0.0, "L_KL": 0.0}
        n_seen = 0
        for keys in batch_iterator(ds_train, cfg.batch_size, seed=cfg.seed * 1_000_003 + epoch,
                                   shuffle=True):
            batch = [train_units[key] for key in keys]
            zero_grads(params)
            with Tape() as tape:
                fw = forward_batch(params, batch, cfg)
                L_G, L_D, L_KL = fw.L_G, fw.L_D, fw.L_KL
                loss = compose_loss(L_G, L_D, L_KL, cfg)
            if not np.isfinite(loss.data).all():
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}; best checkpoint retained")
            backward(loss, tape)
            adam_step(named, state, lr, cfg)
            b = len(batch)
            n_seen += b
            if L_G is not None:
                sums["L_G"] += L_G.item() * b
            if L_D is not None:
                sums["L_D"] += L_D.item() * b
            sums["L_KL"] += L_KL.item() * b

        # inference-condition validation: the posterior branch must stay cold
        posterior_before = grounding.posterior_call_count()
        report = evaluate(params, ds_val, cfg, units=val_units)
        if grounding.posterior_call_count() != posterior_before:
            raise ContractError("validation touched the posterior branch")

        entry: dict = {"epoch": epoch, "lr": lr, "L_KL": sums["L_KL"] / n_seen,
                       "val": report.to_dict()}
        if cfg.loss_mode in ("generative", "multitask"):
            entry["L_G"] = sums["L_G"] / n_seen
        if cfg.loss_mode in ("discriminative", "multitask"):
            entry["L_D"] = sums["L_D"] / n_seen
        epochs.append(entry)
        if not quiet:
            print(json.dumps(entry, sort_keys=True))
        if log_path is not None:
            with open(log_path, "a") as fh:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")

        if report.mrr > best_mrr:
            best_mrr = report.mrr
            best_epoch = epoch
            best_params = _snapshot(named)
            if out_dir is not None:
                save_checkpoint(out_dir / "best", named, cfg, ds_train.vocab.id_to_token,
                                {"epoch": epoch})

    final_params = _snapshot(named)
    if out_dir is not None:
        save_checkpoint(out_dir / "final", named, cfg, ds_train.vocab.id_to_token,
                        {"epoch": cfg.max_epochs - 1})
    return TrainResult(epochs=epochs, best_epoch=best_epoch, best_mrr=best_mrr,
                       best_params=best_params, final_params=final_params)
