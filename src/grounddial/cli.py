"""Command-line surface: synthetic data generation, training, evaluation,
ablations, and attention export.

Exit codes: 0 success, 2 usage error (a flag or config value out of range),
3 data error (also an input or output path that cannot be read or
written), 4 numeric divergence.
Each field of SyntheticConfig (gen-synth) and TrainConfig (train) is one
flag, spelled like the field with dashes for underscores: `--max-epochs`
sets max_epochs, and a bool field's `--no-` flag clears it. The defaults
live only in the dataclasses, the model's shape included: train and eval
build the model from a TrainConfig with `model.init_params_for`, eval from
the one its checkpoint recorded. A JSON config file (train --config) uses
TrainConfig field names, as recorded in a run's manifest.json; given flags
override the file, and the file overrides TrainConfig's defaults. A
feature file (gen-synth's features.bin) and a checkpoint (a run's
best.ckpt, final.ckpt) are array files, the one layout `data` describes;
a checkpoint holds its TrainConfig, vocabulary and weights. eval --ckpt
names one with or without the .ckpt suffix, which is appended unless the
name ends in it. All randomness flows from the seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import ContractError, DegenerateSliceError, InvalidDistributionError
from .data import (
    DialogDataset,
    GenerationError,
    FeatureFileError,
    MissingFeatureError,
    ParseError,
    SyntheticConfig,
    Vocabulary,
    dump_dataset_json,
    generate_synthetic_raw,
    load_dataset,
    write_features,
)
from .evaluation import evaluate
from .model import init_params_for
from .training import DivergenceError, TrainConfig, load_checkpoint, restore_params, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4


class DataError(RuntimeError):
    pass


def _load(path, split: str, features, vocab) -> DialogDataset:
    """A dataset, with its features, that holds at least one round."""
    ds = load_dataset(path, split, features, vocab=vocab)
    if not ds.units():
        raise DataError(f"{path} holds no dialog rounds")
    return ds


def _add_config_flags(p: argparse.ArgumentParser, config_cls) -> None:
    """One flag per field of config_cls, typed like the field's default and
    defaulting to None, so that a given flag can be told from an absent one."""
    for f in fields(config_cls):
        kind = type(f.default)
        how = {"action": argparse.BooleanOptionalAction} if kind is bool else {"type": kind}
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, help=f"default: {f.default}", **how)


def _given(args, config_cls) -> dict:
    """The config fields whose flags were given."""
    return {f.name: getattr(args, f.name) for f in fields(config_cls)
            if getattr(args, f.name) is not None}


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int,
                    artifacts: list[str], started: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "code_version": __version__,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "artifacts": sorted(artifacts),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# gen-synth

def _gen_synth_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser("gen-synth", help="write a synthetic dataset + feature file")
    _add_config_flags(p, SyntheticConfig)
    p.add_argument("--split", default="train")
    p.add_argument("--out", required=True)
    return p


def cmd_gen_synth(args) -> int:
    started = time.time()
    try:
        cfg = SyntheticConfig(**_given(args, SyntheticConfig))
    except GenerationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    raw, features = generate_synthetic_raw(cfg)
    raw["split"] = args.split
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "dataset.json").write_text(dump_dataset_json(raw))
    write_features(out_dir / "features.bin", features)
    _write_manifest(out_dir, "gen-synth", cfg.__dict__, cfg.seed,
                    ["dataset.json", "features.bin"], started)
    print(f"wrote {out_dir / 'dataset.json'} and {out_dir / 'features.bin'} "
          f"({cfg.num_images} images, {cfg.mu} objects each)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train

def _train_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser("train", help="train on a dataset, checkpoint best-by-val-MRR")
    p.add_argument("--data", required=True, help="training dataset JSON")
    p.add_argument("--features", default=None, help="feature file (default: features.bin beside the data)")
    p.add_argument("--val-data", default=None, help="validation dataset JSON (default: reuse training data)")
    p.add_argument("--val-features", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None,
                   help="JSON object of TrainConfig fields, e.g. a run's manifest.json \"config\"")
    _add_config_flags(p, TrainConfig)
    p.add_argument("--verbose", action="store_true")
    return p


def _train_config(args) -> TrainConfig:
    """Layer precedence: explicit flag > config file > TrainConfig default."""
    settings = {}
    if args.config:
        try:
            settings = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:      # ValueError: not JSON, or not UTF-8
            raise DataError(f"cannot read config file {args.config}: {e}") from e
        if not isinstance(settings, dict):
            raise ContractError(f"config file {args.config} must hold a JSON object")
    return TrainConfig.from_dict({**settings, **_given(args, TrainConfig)})


def cmd_train(args) -> int:
    started = time.time()
    if args.val_features and not args.val_data:
        print("error: --val-features needs --val-data", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = _train_config(args)
    except ContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    ds_train = _load(args.data, "train", args.features, None)
    if args.val_data:
        ds_val = _load(args.val_data, "val", args.val_features, ds_train.vocab)
    else:
        ds_val = ds_train
    d_v = ds_train.examples[0].region_features.shape[1]
    val_d_v = ds_val.examples[0].region_features.shape[1]
    if val_d_v != d_v:
        raise DataError(f"the features of {args.val_data} have {val_d_v} values per region, "
                        f"those of {args.data} {d_v}")
    params = init_params_for(cfg, np.random.default_rng(cfg.seed), len(ds_train.vocab), d_v)
    out_dir = Path(args.out)
    result = train(ds_train, ds_val, params, cfg, out_dir=out_dir, quiet=not args.verbose)
    _write_manifest(out_dir, "train", cfg.to_dict(), cfg.seed,
                    ["metrics.jsonl", "best.ckpt", "final.ckpt"], started)
    print(f"trained {cfg.max_epochs} epochs; best val MRR {result.best_mrr:.4f} "
          f"at epoch {result.best_epoch}; artifacts in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval

def _eval_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser("eval", help="evaluate a checkpoint in the inference condition")
    p.add_argument("--ckpt", required=True, help="checkpoint base path (best / best.ckpt)")
    p.add_argument("--data", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--split", default="val")
    p.add_argument("--decoder", choices=["generative", "discriminative"],
                   help="override the decoder implied by the training mode")
    p.add_argument("--ablate", choices=["mean", "random", "oracle"], default="learned")
    p.add_argument("--export-attention", dest="attention_out", default=None,
                   help="write one JSON line per (image, round) to this path")
    p.add_argument("--with-answers", dest="with_answers", action="store_true",
                   help="also run the answer-aware posterior: its weights in the attention "
                        "export, its mean entropy and top-1 grounding in the report")
    p.add_argument("--report", default=None, help="write the EvalReport JSON here (default stdout)")
    p.add_argument("--seed", type=int, default=0)
    return p


def cmd_eval(args) -> int:
    if args.seed < 0:
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    base = Path(args.ckpt)
    try:
        tensors, cfg, vocab_tokens = load_checkpoint(base)
        vocab = Vocabulary(vocab_tokens)
    except FileNotFoundError as e:
        raise DataError(f"checkpoint not found: {e}") from e
    except ValueError as e:  # a corrupt checkpoint file, an invalid config or vocabulary
        raise DataError(f"checkpoint {base} cannot be loaded: {e}") from e
    ds = _load(args.data, args.split, args.features, vocab)
    if args.ablate == "oracle":
        for ex in ds.examples:
            for t, rnd in enumerate(ex.rounds):
                if rnd.gt_grounding is None:
                    raise DataError(f"--ablate oracle needs gt_grounding, which image_id "
                                    f"{ex.image_id!r} round {t} of {args.data} lacks")
    d_v = ds.examples[0].region_features.shape[1]
    params = init_params_for(cfg, np.random.default_rng(0), len(vocab), d_v)
    try:
        restore_params(params, tensors)
    except ValueError as e:
        raise DataError(f"checkpoint {base} does not fit the model: {e}") from e

    report = evaluate(params, ds, cfg, decoder=args.decoder, ablate=args.ablate,
                      seed=args.seed, with_posterior=args.with_answers)

    text = json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n"
    if args.report:
        Path(args.report).write_text(text)
    else:
        sys.stdout.write(text)

    if args.attention_out:
        with open(args.attention_out, "w") as fh:
            for rec in report.attention:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grounddial",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _gen_synth_parser(sub)
    _train_parser(sub)
    _eval_parser(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen-synth": cmd_gen_synth, "train": cmd_train, "eval": cmd_eval}
    try:
        return handlers[args.command](args)
    except (ParseError, MissingFeatureError, FeatureFileError, DataError, OSError,
            DegenerateSliceError, InvalidDistributionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
