import argparse
import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from grounddial.autodiff import Tensor
from grounddial.cli import build_parser, main
from grounddial.data import (
    SyntheticConfig,
    Vocabulary,
    load_dataset,
    load_features,
    write_features,
)
from grounddial.evaluation import evaluate
from grounddial.model import init_params_for
from grounddial.training import TrainConfig, load_checkpoint, restore_params, save_checkpoint


def run_cli(argv):
    return main(argv)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run_cli(["gen-synth", "--num-images", "4", "--mu", "8", "--rounds", "3",
                    "--candidates", "10", "--seed", "7", "--out", str(out)])
    assert code == 0
    return out


def small_train_args(synth_dir, out, extra=()):
    return ["train", "--data", str(synth_dir / "dataset.json"),
            "--out", str(out), "--max-epochs", "1", "--batch-size", "4",
            "--d-q", "8", "--d-e", "8", "--n-heads", "2", "--d-h", "8",
            "--seq-len", "10", "--max-history", "4", "--seed", "3", *extra]


def test_gen_synth_outputs(synth_dir):
    assert (synth_dir / "dataset.json").exists()
    assert (synth_dir / "features.bin").exists()
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["command"] == "gen-synth"
    assert manifest["seed"] == 7


def test_gen_synth_idempotent_bytes(synth_dir, tmp_path):
    out2 = tmp_path / "again"
    assert run_cli(["gen-synth", "--num-images", "4", "--mu", "8", "--rounds", "3",
                    "--candidates", "10", "--seed", "7", "--out", str(out2)]) == 0
    assert (out2 / "dataset.json").read_bytes() == (synth_dir / "dataset.json").read_bytes()
    assert (out2 / "features.bin").read_bytes() == (synth_dir / "features.bin").read_bytes()


def test_gen_synth_unsatisfiable_exits_2(tmp_path, capsys):
    code = run_cli(["gen-synth", "--num-images", "1", "--mu", "20", "--num-colors", "4",
                    "--num-shapes", "4", "--out", str(tmp_path / "x")])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: mu 20")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("mu", ["16", "12"])
def test_gen_synth_without_enough_referable_objects_exits_2(tmp_path, capsys, mu):
    """No image of 12 or 16 objects over 4 colors x 4 shapes has 3 objects
    with a color or a shape of their own."""
    code = run_cli(["gen-synth", "--out", str(tmp_path / "x"), "--num-images", "2", "--mu", mu,
                    "--num-colors", "4", "--num-shapes", "4"])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: mu {mu}, rounds 3: ")
    assert "num_colors x num_shapes = 4x4" in lines[0]
    assert not (tmp_path / "x").exists()


def test_gen_synth_builds_a_setting_random_draws_miss(tmp_path):
    """6 colors x 6 shapes hold 22 objects with 3 referable ones, though
    random object sets almost never do."""
    assert run_cli(["gen-synth", "--out", str(tmp_path / "x"), "--num-images", "2", "--mu", "22",
                    "--num-colors", "6", "--num-shapes", "6", "--seed", "1"]) == 0
    raw = json.loads((tmp_path / "x" / "dataset.json").read_text())
    assert [len(d["rounds"]) for d in raw["dialogs"]] == [3, 3]


@pytest.mark.parametrize("extra, field", [
    (["--num-images", "0"], "num_images"),
    (["--seed", "-1"], "seed"),
    (["--noise", "2.0"], "noise"),
    (["--d-v", "4"], "d_v"),
    (["--candidates", "60", "--num-colors", "2", "--num-shapes", "2", "--mu", "3",
      "--rounds", "2"], "candidates"),
])
def test_gen_synth_invalid_setting_exits_2_naming_the_field(tmp_path, capsys, extra, field):
    code = run_cli(["gen-synth", "--num-images", "4", *extra, "--out", str(tmp_path / "x")])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {field} ")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag", ["--bogus", "--no-detach-posterior"])
def test_unknown_flag_usage_error(synth_dir, tmp_path, flag):
    with pytest.raises(SystemExit) as e:
        run_cli(small_train_args(synth_dir, tmp_path / "t", extra=[flag]))
    assert e.value.code == 2
    assert not (tmp_path / "t").exists()  # no partial outputs on usage errors


def test_train_and_eval_roundtrip(synth_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(small_train_args(synth_dir, out)) == 0
    assert (out / "metrics.jsonl").exists()
    assert (out / "best.ckpt").exists()
    capsys.readouterr()

    code = run_cli(["eval", "--ckpt", str(out / "best.ckpt"),
                    "--data", str(synth_dir / "dataset.json"), "--split", "train"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert {"mrr", "r_at_1", "r_at_5", "r_at_10", "mean_rank", "ndcg",
            "grounding_top1"} <= set(report)


def test_train_determinism_byte_identical(synth_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(small_train_args(synth_dir, out1)) == 0
    assert run_cli(small_train_args(synth_dir, out2)) == 0
    assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
    assert (out1 / "best.ckpt").read_bytes() == (out2 / "best.ckpt").read_bytes()
    assert (out1 / "final.ckpt").read_bytes() == (out2 / "final.ckpt").read_bytes()


def test_train_config_file_with_flag_override(synth_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"max_epochs": 1, "batch_size": 4, "d_q": 8, "d_e": 8,
                                    "n_heads": 2, "d_h": 8, "seq_len": 10,
                                    "max_history": 4, "seed": 3, "kl_weight": 0.5}))
    out = tmp_path / "cfgrun"
    code = run_cli(["train", "--data", str(synth_dir / "dataset.json"),
                    "--out", str(out), "--config", str(cfg_path),
                    "--kl-weight", "0.0"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["kl_weight"] == 0.0   # flag beats file
    assert manifest["config"]["max_epochs"] == 1    # file beats default


def test_manifest_config_reproduces_the_run(synth_dir, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli(small_train_args(synth_dir, first, extra=["--loss-mode", "multitask"])) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(json.loads((first / "manifest.json").read_text())["config"]))
    assert run_cli(["train", "--data", str(synth_dir / "dataset.json"),
                    "--out", str(second), "--config", str(cfg_path)]) == 0
    assert (first / "metrics.jsonl").read_bytes() == (second / "metrics.jsonl").read_bytes()
    assert (first / "best.ckpt").read_bytes() == (second / "best.ckpt").read_bytes()


@pytest.mark.parametrize("extra, field", [
    (["--max-epochs", "0"], "max_epochs"),
    (["--d-q", "6", "--n-heads", "4"], "d_q"),
    (["--seed", "-1"], "seed"),
    (["--kl-weight", "nan"], "kl_weight"),
    (["--loss-mode", "gen"], "loss_mode"),
    (["--val-features", "val.bin"], "--val-features"),
])
def test_train_invalid_config_flag_exits_2(synth_dir, tmp_path, capsys, extra, field):
    out = tmp_path / "t"
    assert run_cli(small_train_args(synth_dir, out, extra=extra)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("settings, field", [
    ({"epocs": 1}, "epocs"),
    ({"max_epochs": "1"}, "max_epochs"),
    ({"base_lr": 0.001}, "base_lr"),
    ({"detach_posterior": True}, "detach_posterior"),
    ([], "cfg.json"),                          # not an object: the file is named
])
def test_train_bad_config_file_exits_2(synth_dir, tmp_path, capsys, settings, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(settings))
    out = tmp_path / "t"
    code = run_cli(["train", "--data", str(synth_dir / "dataset.json"),
                    "--out", str(out), "--config", str(cfg_path)])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_every_train_flag_sets_a_config_field():
    """A flag whose field is gone would otherwise be ignored without a word."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices["train"]._actions}
    not_config = {"help", "data", "features", "val_data", "val_features", "out", "config",
                  "verbose"}
    assert dests - not_config <= {f.name for f in dataclasses.fields(TrainConfig)}


TRAIN_FLAGS = [  # (argv, field, value): each TrainConfig field away from its default
    (["--loss-mode", "discriminative"], "loss_mode", "discriminative"),
    (["--kl-weight", "0.5"], "kl_weight", 0.5),
    (["--no-fusion-residual"], "fusion_residual", False),
    (["--max-epochs", "2"], "max_epochs", 2),
    (["--batch-size", "3"], "batch_size", 3),
    (["--seed", "5"], "seed", 5),
    (["--d-q", "4"], "d_q", 4),
    (["--d-e", "6"], "d_e", 6),
    (["--n-heads", "1"], "n_heads", 1),
    (["--d-h", "6"], "d_h", 6),
    (["--seq-len", "9"], "seq_len", 9),
    (["--max-history", "2"], "max_history", 2),
]

SYNTH_FLAGS = [  # (argv, field, value): each SyntheticConfig field away from its default
    (["--num-images", "3"], "num_images", 3),
    (["--mu", "5"], "mu", 5),
    (["--num-colors", "5"], "num_colors", 5),
    (["--num-shapes", "5"], "num_shapes", 5),
    (["--rounds", "2"], "rounds", 2),
    (["--candidates", "8"], "candidates", 8),
    (["--noise", "0.25"], "noise", 0.25),
    (["--d-v", "20"], "d_v", 20),
    (["--seed", "11"], "seed", 11),
]


def test_the_flag_tables_cover_every_config_field():
    assert [f for _, f, _ in TRAIN_FLAGS] == [f.name for f in dataclasses.fields(TrainConfig)]
    assert [f for _, f, _ in SYNTH_FLAGS] == [f.name for f in dataclasses.fields(SyntheticConfig)]


@pytest.mark.parametrize("flag, field, value", TRAIN_FLAGS, ids=[f for _, f, _ in TRAIN_FLAGS])
def test_each_train_flag_sets_its_field_in_the_manifest(synth_dir, tmp_path, flag, field, value):
    out = tmp_path / "run"
    assert run_cli(small_train_args(synth_dir, out, extra=flag)) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config[field] == value and type(config[field]) is type(value)


@pytest.mark.parametrize("flag, field, value", SYNTH_FLAGS, ids=[f for _, f, _ in SYNTH_FLAGS])
def test_each_gen_synth_flag_sets_its_field_in_the_manifest(tmp_path, flag, field, value):
    out = tmp_path / "synth"
    assert run_cli(["gen-synth", "--num-images", "2", *flag, "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config[field] == value and type(config[field]) is type(value)


def test_eval_unknown_checkpoint_config_key_exits_3(synth_dir, tmp_path, capsys):
    """Keys of deleted settings included: such a checkpoint is refused, naming the key."""
    out = tmp_path / "run"
    assert run_cli(small_train_args(synth_dir, out)) == 0
    saved = (out / "best.ckpt").read_bytes()
    for key, value in [("share_cross_attention", True), ("bridge_variant", "attn_kl"),
                       ("adam_beta1", 0.9), ("base_lr", 0.001), ("axis_mode", "columns"),
                       ("detach_posterior", True)]:
        (out / "best.ckpt").write_bytes(saved)
        _edit_manifest(out / "best", lambda m: m["config"].update({key: value}))
        capsys.readouterr()
        code = run_cli(["eval", "--ckpt", str(out / "best"),
                        "--data", str(synth_dir / "dataset.json"), "--split", "train"])
        assert code == 3
        assert key in capsys.readouterr().err


def test_eval_uses_the_checkpoint_config(synth_dir, tmp_path, capsys):
    """A setting that only the model's construction reads reaches eval too."""
    out = tmp_path / "run"
    assert run_cli(small_train_args(synth_dir, out, extra=["--no-fusion-residual"])) == 0
    capsys.readouterr()
    assert run_cli(["eval", "--ckpt", str(out / "best"),
                    "--data", str(synth_dir / "dataset.json"), "--split", "train"]) == 0
    reported = json.loads(capsys.readouterr().out)

    tensors, cfg, vocab = load_checkpoint(out / "best")
    assert cfg.fusion_residual is False
    ds = load_dataset(synth_dir / "dataset.json", "train", vocab=Vocabulary(vocab))

    def report_with(residual):
        params = init_params_for(dataclasses.replace(cfg, fusion_residual=residual),
                                 np.random.default_rng(0), len(vocab),
                                 ds.examples[0].region_features.shape[1])
        restore_params(params, tensors)
        return evaluate(params, ds, cfg).to_dict()

    assert reported == report_with(False)
    assert reported != report_with(True)


def test_eval_ablate_and_export(synth_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(small_train_args(synth_dir, out)) == 0
    capsys.readouterr()
    attn = tmp_path / "attn.jsonl"
    code = run_cli(["eval", "--ckpt", str(out / "best"),
                    "--data", str(synth_dir / "dataset.json"), "--split", "train",
                    "--ablate", "oracle", "--export-attention", str(attn),
                    "--with-answers"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["grounding_top1"] == 1.0  # oracle mode grounds perfectly
    assert 0 <= report["posterior_top1"] <= 1
    lines = attn.read_text().strip().split("\n")
    assert len(lines) == 12  # 4 images x 3 rounds
    rec = json.loads(lines[0])
    assert {"image_id", "round", "prior", "top3_prior", "posterior", "gt_grounding"} <= set(rec)


def test_empty_question_exits_3_naming_the_unit(synth_dir, tmp_path, capsys):
    raw = json.loads((synth_dir / "dataset.json").read_text())
    raw["dialogs"][2]["rounds"][1]["question"] = ""
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "dataset.json").write_text(json.dumps(raw))
    shutil.copy(synth_dir / "features.bin", bad / "features.bin")
    unit = f"'{raw['dialogs'][2]['image_id']}' round 1"

    def one_error_line():
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        return lines[0]

    capsys.readouterr()
    assert run_cli(small_train_args(bad, tmp_path / "bad_run")) == 3
    assert unit in one_error_line()
    out = tmp_path / "run"
    assert run_cli(small_train_args(synth_dir, out)) == 0
    capsys.readouterr()
    assert run_cli(["eval", "--ckpt", str(out / "best"), "--data", str(bad / "dataset.json"),
                    "--split", "train"]) == 3
    assert unit in one_error_line()


def _bad_copy(synth_dir, tmp_path, mutate, features=True):
    """A copy of the synthetic set with `mutate` applied to its dataset JSON."""
    raw = json.loads((synth_dir / "dataset.json").read_text())
    mutate(raw)
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "dataset.json").write_text(json.dumps(raw))
    if features:
        shutil.copy(synth_dir / "features.bin", bad / "features.bin")
    return bad / "dataset.json"


def _val_without_features(synth_dir, tmp_path):
    bad = _bad_copy(synth_dir, tmp_path, lambda raw: raw.update(split="val"), features=False)
    return (small_train_args(synth_dir, tmp_path / "run", extra=["--val-data", str(bad)]),
            f"feature file {bad.parent / 'features.bin'} does not exist")


def _mistyped_features(synth_dir, tmp_path):
    typo = tmp_path / "s" / "typo.bin"
    return small_train_args(synth_dir, tmp_path / "run", extra=["--features", str(typo)]), str(typo)


def _non_utf8_feature_id(synth_dir, tmp_path):
    bad = _bad_copy(synth_dir, tmp_path, lambda raw: None)
    path = bad.parent / "features.bin"
    # the first image id's first letter, in the manifest line
    path.write_bytes(path.read_bytes().replace(b'"name": "s', b'"name": "\xff', 1))
    return (small_train_args(bad.parent, tmp_path / "run"),
            f"{path}: manifest line is not UTF-8 JSON")


def _vfea_features(synth_dir, tmp_path):
    """A feature file of the retired binary layout: magic, version, count,
    then each image's id and [mu, d_v] float32 block."""
    bad = _bad_copy(synth_dir, tmp_path, lambda raw: None)
    path = bad.parent / "features.bin"
    feats = load_features(synth_dir / "features.bin")
    path.write_bytes(b"VFEA" + struct.pack("<II", 1, len(feats)) + b"".join(
        struct.pack("<H", len(i)) + i.encode() + struct.pack("<II", *a.shape)
        + a.astype("<f4").tobytes() for i, a in feats.items()))
    return small_train_args(bad.parent, tmp_path / "run"), str(path)


def _no_dialogs(synth_dir, tmp_path):
    bad = _bad_copy(synth_dir, tmp_path, lambda raw: raw["dialogs"].clear())
    return small_train_args(bad.parent, tmp_path / "run"), f"{bad} holds no dialog rounds"


def _oracle_without_gt_grounding(synth_dir, tmp_path):
    bad = _bad_copy(synth_dir, tmp_path, lambda raw: raw["dialogs"][2]["rounds"][1].pop("gt_grounding"))
    image_id = json.loads(bad.read_text())["dialogs"][2]["image_id"]
    assert run_cli(small_train_args(synth_dir, tmp_path / "run")) == 0
    return (["eval", "--ckpt", str(tmp_path / "run" / "best"), "--data", str(bad),
             "--split", "train", "--ablate", "oracle"], f"{image_id!r} round 1")


def _all_zero_relevance(synth_dir, tmp_path):
    def zero(raw):
        rnd = raw["dialogs"][2]["rounds"][1]
        rnd["relevance"] = [0.0] * len(rnd["answer_options"])
    bad = _bad_copy(synth_dir, tmp_path, zero)
    return small_train_args(bad.parent, tmp_path / "run"), f"{bad}: $.dialogs[2].rounds[1].relevance"


def _numeric_image_id(synth_dir, tmp_path):
    bad = _bad_copy(synth_dir, tmp_path, lambda raw: raw["dialogs"][2].update(image_id=7))
    return small_train_args(bad.parent, tmp_path / "run"), f"{bad}: $.dialogs[2].image_id"


def _with_features(synth_dir, tmp_path, split, widen):
    """A copy of the synthetic set, as `split`, whose feature blocks are
    those of `widen(image_id, block)`."""
    bad = _bad_copy(synth_dir, tmp_path, lambda raw: raw.update(split=split), features=False)
    feats = {k: widen(k, a) for k, a in load_features(synth_dir / "features.bin").items()}
    write_features(bad.parent / "features.bin", feats)
    return bad


def _mixed_feature_widths(synth_dir, tmp_path):
    second = list(load_features(synth_dir / "features.bin"))[1]
    bad = _with_features(synth_dir, tmp_path, "train",
                         lambda k, a: np.pad(a, ((0, 0), (0, k == second))))
    return (small_train_args(bad.parent, tmp_path / "run"),
            f"{bad.parent / 'features.bin'}: image id {second!r} has 17 values per region")


def _wider_val_features(synth_dir, tmp_path):
    bad = _with_features(synth_dir, tmp_path, "val", lambda k, a: np.pad(a, ((0, 0), (0, 1))))
    return (small_train_args(synth_dir, tmp_path / "run", extra=["--val-data", str(bad)]),
            f"the features of {bad} have 17 values per region, "
            f"those of {synth_dir / 'dataset.json'} 16")


def _on(command, make):
    """A case: `command` on the bad copy of the synthetic set that
    make(synth_dir, tmp_path) returns with the text its error must name;
    eval reads a checkpoint trained on the good set."""
    def case(synth_dir, tmp_path):
        bad, named = make(synth_dir, tmp_path)
        if command == "train":
            return small_train_args(bad.parent, tmp_path / "run"), named
        assert run_cli(small_train_args(synth_dir, tmp_path / "run")) == 0
        return (["eval", "--ckpt", str(tmp_path / "run" / "best"), "--data", str(bad),
                 "--split", "train"], named)
    case.__name__ = f"{make.__name__}_in_{command}"
    return case


def _non_finite_feature(value, command):
    """A case: `command` on a copy of the synthetic set with one feature of
    its fourth image set to float(value)."""
    def poisoned(synth_dir, tmp_path):
        fourth = list(load_features(synth_dir / "features.bin"))[3]

        def poison(image_id, block):
            block = block.copy()
            if image_id == fourth:
                block.flat[5] = float(value)
            return block

        bad = _with_features(synth_dir, tmp_path, "train", poison)
        return bad, (f"{bad.parent / 'features.bin'}: image id {fourth!r} has a non-finite "
                     "value in region 0")
    poisoned.__name__ = f"_{value}_feature"
    return _on(command, poisoned)


def _repeated_grounding_index(synth_dir, tmp_path):
    def repeat(raw):
        rnd = raw["dialogs"][2]["rounds"][1]
        rnd["gt_grounding"] = rnd["gt_grounding"] * 2
    bad = _bad_copy(synth_dir, tmp_path, repeat)
    return bad, f"{bad}: $.dialogs[2].rounds[1].gt_grounding: must not name a region twice"


def _region_free_image(synth_dir, tmp_path):
    fourth = list(load_features(synth_dir / "features.bin"))[3]
    bad = _with_features(synth_dir, tmp_path, "train", lambda k, a: a[:0] if k == fourth else a)
    return bad, f"{bad.parent / 'features.bin'}: image id {fourth!r} has shape [0, 16]"


def _zero_width_features(synth_dir, tmp_path):
    first = list(load_features(synth_dir / "features.bin"))[0]
    bad = _with_features(synth_dir, tmp_path, "train", lambda k, a: a[:, :0])
    return bad, f"{bad.parent / 'features.bin'}: image id {first!r} has shape [8, 0]"


def _non_utf8_dataset(synth_dir, tmp_path):
    bad = _bad_copy(synth_dir, tmp_path, lambda raw: None)
    bad.write_bytes(bad.read_bytes().replace(b'"caption": "', b'"caption": "\xff', 1))
    return bad, str(bad)


def _non_utf8_config(synth_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"kl_weight": 0.5, "seed": "\xff"}')
    return small_train_args(synth_dir, tmp_path / "run", extra=["--config", str(config)]), str(config)


def _train_out_is_a_file(synth_dir, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    return small_train_args(synth_dir, taken), str(taken)


def _gen_synth_out_is_a_file(synth_dir, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    return ["gen-synth", "--num-images", "2", "--out", str(taken)], str(taken)


def _eval_output_is_a_directory(flag):
    """A case: eval of a freshly trained checkpoint with `flag` naming a directory."""
    def case(synth_dir, tmp_path):
        assert run_cli(small_train_args(synth_dir, tmp_path / "run")) == 0
        folder = tmp_path / "folder"
        folder.mkdir()
        return (["eval", "--ckpt", str(tmp_path / "run" / "best"), "--data",
                 str(synth_dir / "dataset.json"), "--split", "train", flag, str(folder)],
                str(folder))
    case.__name__ = f"_eval_{flag.lstrip('-').replace('-', '_')}_is_a_directory"
    return case


def _corrupt_checkpoint(mutate):
    """A case: eval of a freshly trained best checkpoint after mutate(base)."""
    def case(synth_dir, tmp_path):
        assert run_cli(small_train_args(synth_dir, tmp_path / "run")) == 0
        base = tmp_path / "run" / "best"
        mutate(base)
        return (["eval", "--ckpt", str(base), "--data", str(synth_dir / "dataset.json"),
                 "--split", "train"], f"checkpoint {base}")
    case.__name__ = mutate.__name__
    return case


def _edit_manifest(base, edit):
    """Rewrite the manifest line of base.ckpt after edit(manifest), keeping its data bytes."""
    path = base.with_suffix(".ckpt")
    line, data = path.read_bytes().split(b"\n", 1)
    manifest = json.loads(line)
    edit(manifest)
    path.write_bytes(json.dumps(manifest).encode() + b"\n" + data)


def _truncated_blob(base):
    path = base.with_suffix(".ckpt")
    path.write_bytes(path.read_bytes()[:-5])


def _trailing_byte(base):
    path = base.with_suffix(".ckpt")
    path.write_bytes(path.read_bytes() + b"\0")


def _manifest_not_json(base):
    path = base.with_suffix(".ckpt")
    path.write_bytes(b'{"tensors": [\n' + path.read_bytes().split(b"\n", 1)[1])


def _manifest_shape_disagrees(base):
    _edit_manifest(base, lambda m: m["tensors"][0]["shape"].append(1))


def _manifest_without_vocab(base):
    _edit_manifest(base, lambda m: m.pop("vocab"))


def _tensors_not_objects(base):
    _edit_manifest(base, lambda m: m.update(tensors=[1]))


def _tensors_an_object(base):
    _edit_manifest(base, lambda m: m.update(tensors={"a": 1}))


def _tensor_without_name(base):
    _edit_manifest(base, lambda m: m["tensors"][0].pop("name"))


def _vocab_not_a_list(base):
    _edit_manifest(base, lambda m: m.update(vocab=5))


def _vocab_repeats_a_token(base):
    _edit_manifest(base, lambda m: m["vocab"].append(m["vocab"][-1]))


def _huge_first_dim(base):
    # 2 TB of data declared: the size check must refuse it before any read
    _edit_manifest(base, lambda m: m["tensors"][0].update(shape=[4_000_000_000, 64]))


def _shape_entry(value):
    """A case: the first tensor's first dimension replaced by `value`."""
    def mutate(base):
        _edit_manifest(base, lambda m: m["tensors"][0]["shape"].__setitem__(0, value))
    mutate.__name__ = f"_shape_entry_{value!r}"
    return mutate


@pytest.mark.parametrize("case", [_val_without_features, _mistyped_features,
                                  _non_utf8_feature_id, _vfea_features, _no_dialogs,
                                  _oracle_without_gt_grounding, _all_zero_relevance,
                                  _numeric_image_id, _mixed_feature_widths,
                                  _wider_val_features, _non_utf8_config, _train_out_is_a_file,
                                  _gen_synth_out_is_a_file,
                                  _eval_output_is_a_directory("--report"),
                                  _eval_output_is_a_directory("--export-attention"),
                                  _non_finite_feature("nan", "train"),
                                  _non_finite_feature("inf", "eval"),
                                  *(_on(command, make) for make in [
                                      _repeated_grounding_index, _region_free_image,
                                      _zero_width_features, _non_utf8_dataset]
                                    for command in ("train", "eval")),
                                  *map(_corrupt_checkpoint, [
                                      _truncated_blob, _trailing_byte, _manifest_not_json,
                                      _manifest_shape_disagrees, _manifest_without_vocab,
                                      _tensors_not_objects, _tensors_an_object,
                                      _tensor_without_name, _vocab_not_a_list,
                                      _vocab_repeats_a_token, _huge_first_dim,
                                      *map(_shape_entry, [-1, 2.5, True])])])
def test_data_errors_exit_3_naming_the_input(synth_dir, tmp_path, capsys, case):
    argv, named = case(synth_dir, tmp_path)
    capsys.readouterr()
    assert run_cli(argv) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0]


def test_eval_negative_seed_exits_2(synth_dir, tmp_path, capsys):
    code = run_cli(["eval", "--ckpt", str(tmp_path / "nope"), "--seed", "-1",
                    "--data", str(synth_dir / "dataset.json"), "--split", "train"])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "--seed" in lines[0]


def test_eval_of_a_nan_weight_exits_4_naming_the_unit(synth_dir, tmp_path, capsys):
    """A NaN score would otherwise rank the gt first and report a perfect MRR."""
    out = tmp_path / "run"
    assert run_cli(small_train_args(synth_dir, out)) == 0
    tensors, cfg, vocab = load_checkpoint(out / "best")
    tensors["decoder.bilinear"][0, 0] = np.nan
    save_checkpoint(out / "best", {k: Tensor(v) for k, v in tensors.items()}, cfg, vocab, 0)
    first = json.loads((synth_dir / "dataset.json").read_text())["dialogs"][0]["image_id"]
    capsys.readouterr()
    code = run_cli(["eval", "--ckpt", str(out / "best"), "--decoder", "discriminative",
                    "--data", str(synth_dir / "dataset.json"), "--split", "train"])
    assert code == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert f"image_id {first!r} round 0" in lines[0]


def test_eval_ckpt_with_or_without_its_suffix_names_one_file(synth_dir, tmp_path, capsys):
    """.ckpt is appended unless the name ends in it, so a dotted name such
    as best.old names best.old.ckpt, not best.ckpt."""
    out = tmp_path / "run"
    assert run_cli(small_train_args(synth_dir, out)) == 0
    tensors, cfg, vocab = load_checkpoint(out / "best")
    rng = np.random.default_rng(0)
    save_checkpoint(out / "best.old", {k: Tensor(v + rng.normal(size=v.shape))
                                       for k, v in tensors.items()}, cfg, vocab, 0)
    reports = {}
    for ckpt in ("best", "best.ckpt", "best.old", "best.old.ckpt"):
        reports[ckpt] = tmp_path / f"{ckpt}.json"
        assert run_cli(["eval", "--ckpt", str(out / ckpt), "--report", str(reports[ckpt]),
                        "--data", str(synth_dir / "dataset.json"), "--split", "train"]) == 0
    text = {ckpt: path.read_bytes() for ckpt, path in reports.items()}
    assert text["best"] == text["best.ckpt"]
    assert text["best.old"] == text["best.old.ckpt"]
    assert text["best.old"] != text["best"]
    capsys.readouterr()
    assert run_cli(["eval", "--ckpt", str(out / "nope"),
                    "--data", str(synth_dir / "dataset.json"), "--split", "train"]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: checkpoint not found")
    assert str(out / "nope.ckpt") in lines[0]


def test_eval_missing_checkpoint_exits_3(synth_dir, tmp_path, capsys):
    code = run_cli(["eval", "--ckpt", str(tmp_path / "nope.bin"),
                    "--data", str(synth_dir / "dataset.json"), "--split", "train"])
    assert code == 3


def test_eval_shape_mismatch_exits_3(synth_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(small_train_args(synth_dir, out)) == 0
    other = tmp_path / "otherdata"
    assert run_cli(["gen-synth", "--num-images", "2", "--mu", "8", "--d-v", "20",
                    "--seed", "1", "--out", str(other)]) == 0
    capsys.readouterr()
    code = run_cli(["eval", "--ckpt", str(out / "best"),
                    "--data", str(other / "dataset.json"), "--split", "train"])
    assert code == 3
    assert "mismatch" in capsys.readouterr().err


def test_console_entrypoint():
    # the child imports the package from where this process found it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "grounddial.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
