"""Adam at one constant learning rate, checkpoints, and the training loop.

During training the decoder consumes the posterior visual feature
(`model.forward_batch`); per-epoch validation is `evaluation.evaluate`,
which runs the prior alone, and the best checkpoint is selected by
validation MRR. Each step's optimizer update runs with the step's graph
released: `backward` consumes the tape, so only the parameters' gradients
outlive it and the step peaks at its forward activations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .autodiff import (
    ContractError,
    DivergenceError,
    Tape,
    Tensor,
    backward,
)
from .data import DialogDataset, batch_iterator, read_arrays, write_arrays
from .evaluation import evaluate
from .model import ModelParams, TrainConfig, forward_batch, named_parameters, prepare_units


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
BASE_LR = 1e-3  # the learning rate of every epoch


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adam_step(named: dict[str, Tensor], state: OptimizerState, lr: float) -> None:
    """Bias-corrected Adam; parameters without a gradient are left alone.

    Every gradient is checked before any update, so a non-finite one raises
    with the parameters and the optimizer state untouched.
    """
    for name, p in named.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise DivergenceError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
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
# checkpoints: one array file (see `data`), base.ckpt, of float64 tensors
# whose header holds "config", "vocab" and "epoch"

def _checkpoint_path(base) -> Path:
    """base with .ckpt appended, unless its name already ends in it."""
    base = Path(base)
    return base if base.name.endswith(".ckpt") else base.with_name(base.name + ".ckpt")


def save_checkpoint(base: Path, named: dict[str, Tensor], cfg: TrainConfig,
                    vocab_tokens: list[str], epoch: int) -> None:
    """Write base.ckpt through `write_arrays`: an error while writing leaves
    the previous checkpoint whole."""
    write_arrays(_checkpoint_path(base), {n: t.data for n, t in named.items()}, "<f8",
                 {"config": cfg.to_dict(), "vocab": vocab_tokens, "epoch": epoch})


def load_checkpoint(base: Path) -> tuple[dict[str, np.ndarray], TrainConfig, list[str]]:
    """Read what save_checkpoint wrote. A file that `read_arrays` refuses,
    or a manifest without "config" and "vocab" (a list of strings), raises
    ValueError; an invalid config raises ContractError, itself a
    ValueError."""
    path = _checkpoint_path(base)
    manifest, tensors = read_arrays(path, "<f8")
    missing = {"config", "vocab"} - set(manifest)
    if missing:
        raise ValueError(f"{path}: manifest lacks {sorted(missing)}")
    vocab = manifest["vocab"]
    if not isinstance(vocab, list) or not all(isinstance(t, str) for t in vocab):
        raise ValueError(f'{path}: "vocab" is not a list of strings')
    return tensors, TrainConfig.from_dict(manifest["config"]), vocab


def restore_params(params: ModelParams, tensors: dict[str, np.ndarray]) -> None:
    """Copy a checkpoint's tensors into params. Every name and shape is
    checked before any parameter is written, so a checkpoint that does not
    fit raises ValueError with params untouched."""
    named = named_parameters(params)
    lacks, extra = sorted(set(named) - set(tensors)), sorted(set(tensors) - set(named))
    if lacks or extra:
        sides = ([f"the checkpoint lacks {lacks}"] if lacks else []) + (
            [f"the checkpoint has {extra}, which the model does not"] if extra else [])
        raise ValueError(f"manifest mismatch: {'; '.join(sides)}")
    wrong = [f"{name!r}: model {named[name].shape}, checkpoint {arr.shape}"
             for name, arr in tensors.items() if named[name].shape != arr.shape]
    if wrong:
        raise ValueError(f"manifest mismatch for {'; '.join(wrong)}")
    for name, arr in tensors.items():
        named[name].data = arr.copy()


@dataclass
class TrainResult:
    epochs: list[dict]
    best_epoch: int
    best_mrr: float


def train(ds_train: DialogDataset, ds_val: DialogDataset, params: ModelParams,
          cfg: TrainConfig, out_dir: Optional[Path] = None,
          quiet: bool = True) -> TrainResult:
    """Run the full loop; returns per-epoch logs and the best epoch and MRR.

    With out_dir set, writes metrics.jsonl plus best/final checkpoints as it
    goes, so the best checkpoint survives a later divergence abort. Each
    Adam step runs after `backward` has consumed the batch's tape, so no
    saved activation or intermediate gradient of the step is alive during it.
    """
    named = named_parameters(params)
    state = OptimizerState()
    train_units = prepare_units(ds_train, cfg.seq_len, cfg.max_history)
    if not train_units:
        raise ContractError("train on an empty dataset")
    val_units = prepare_units(ds_val, cfg.seq_len, cfg.max_history)
    if not val_units:
        raise ContractError("validate on an empty dataset")

    log_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        log_path = out_dir / "metrics.jsonl"
        log_path.write_text("")

    epochs: list[dict] = []
    best_epoch, best_mrr = -1, -1.0
    for epoch in range(cfg.max_epochs):
        sums: dict[str, float] = {}
        n_seen = 0
        for batch in batch_iterator(train_units, cfg.batch_size,
                                    seed=cfg.seed * 1_000_003 + epoch):
            for t in named.values():
                t.grad = None
            with Tape() as tape:
                fw = forward_batch(params, batch, cfg)
            if not np.isfinite(fw.loss.data).all():
                kept = (f"the best checkpoint, of epoch {best_epoch}, is retained"
                        if out_dir is not None and best_epoch >= 0 else "no checkpoint was written")
                raise DivergenceError(f"non-finite loss at epoch {epoch}; {kept}")
            backward(fw.loss, tape)
            adam_step(named, state, BASE_LR)
            b = len(batch)
            n_seen += b
            for name, value in fw.losses.items():
                sums[name] = sums.get(name, 0.0) + value.item() * b

        report = evaluate(params, ds_val, cfg, units=val_units)

        entry: dict = {"epoch": epoch, "lr": BASE_LR, "val": report.to_dict()}
        entry.update({name: total / n_seen for name, total in sums.items()})
        epochs.append(entry)
        if not quiet:
            print(json.dumps(entry, sort_keys=True))
        if log_path is not None:
            with open(log_path, "a") as fh:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")

        if report.mrr > best_mrr:
            best_mrr = report.mrr
            best_epoch = epoch
            if out_dir is not None:
                save_checkpoint(out_dir / "best", named, cfg, ds_train.vocab.id_to_token,
                                epoch)

    if out_dir is not None:
        save_checkpoint(out_dir / "final", named, cfg, ds_train.vocab.id_to_token,
                        cfg.max_epochs - 1)
    return TrainResult(epochs=epochs, best_epoch=best_epoch, best_mrr=best_mrr)
