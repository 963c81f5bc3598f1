import copy
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grounddial import model, training
from grounddial.autodiff import ContractError, Tensor
from grounddial.data import DialogDataset, SyntheticConfig, Vocabulary, generate_synthetic
from grounddial.evaluation import ABLATION_MODES, evaluate
from grounddial.model import forward_batch, init_params_for, named_parameters, prepare_units
from grounddial.training import (
    DivergenceError,
    OptimizerState,
    TrainConfig,
    adam_step,
    load_checkpoint,
    restore_params,
    save_checkpoint,
    train,
)


def tiny_cfg(**kw):
    base = dict(max_epochs=2, batch_size=4, seed=11, d_q=8, d_e=8, n_heads=2,
                d_h=8, seq_len=10, max_history=4)
    base.update(kw)
    return TrainConfig(**base)


def tiny_data(n=3, seed=5):
    return generate_synthetic(SyntheticConfig(num_images=n, seed=seed))


def tiny_model(ds, cfg, seed=0):
    return init_params_for(cfg, np.random.default_rng(seed), len(ds.vocab),
                           ds.examples[0].region_features.shape[1])


# ---------------------------------------------------------------------------
# loss composition: forward_batch's training loss

def composed(mode, kl_weight):
    """(training loss, its batch-mean losses) of one batch under the mode."""
    ds = tiny_data()
    cfg = tiny_cfg(loss_mode=mode, kl_weight=kl_weight)
    units = prepare_units(ds, cfg.seq_len, cfg.max_history)
    fw = forward_batch(tiny_model(ds, cfg, seed=3), units[:4], cfg)
    return fw.loss.item(), {name: t.item() for name, t in fw.losses.items()}


def test_compose_kl_weight_zero_is_plain_generative():
    loss, parts = composed("generative", 0.0)
    assert list(parts) == ["L_G", "L_KL"]
    assert loss == parts["L_G"]


def test_compose_generative_arithmetic():
    loss, parts = composed("generative", 1.0)
    assert loss == parts["L_G"] + parts["L_KL"]


def test_compose_multitask_arithmetic():
    loss, parts = composed("multitask", 1.0)
    assert list(parts) == ["L_G", "L_D", "L_KL"]
    assert loss == (parts["L_G"] + parts["L_D"]) + parts["L_KL"]


def test_compose_discriminative():
    loss, parts = composed("discriminative", 2.0)
    assert list(parts) == ["L_D", "L_KL"]
    assert loss == parts["L_D"] + 2.0 * parts["L_KL"]


# ---------------------------------------------------------------------------
# learning rate

def test_every_epoch_trains_at_base_lr(monkeypatch):
    rates = []
    step = training.adam_step
    monkeypatch.setattr(training, "adam_step",
                        lambda named, state, lr: (rates.append(lr), step(named, state, lr)))
    ds = tiny_data()
    cfg = tiny_cfg(max_epochs=3)
    result = train(ds, ds, tiny_model(ds, cfg), cfg)
    assert [e["lr"] for e in result.epochs] == [training.BASE_LR] * 3
    assert len(rates) == 3 * math.ceil(len(prepare_units(ds, cfg.seq_len, cfg.max_history))
                                       / cfg.batch_size)
    assert set(rates) == {training.BASE_LR}


# ---------------------------------------------------------------------------
# adam

def test_adam_zero_gradients_leave_params():
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    p.grad = np.zeros((2, 2))
    before = p.data.copy()
    adam_step({"p": p}, OptimizerState(), 0.1)
    assert np.array_equal(p.data, before)


def test_adam_single_step_magnitude():
    """One step on f(w) = w^2 from w=1 moves toward 0 by about lr."""
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = 2.0 * p.data
    adam_step({"w": p}, OptimizerState(), 0.01)
    delta = 1.0 - p.data[0]
    assert delta > 0
    assert abs(delta - 0.01) < 1e-6


def test_adam_nan_gradient_names_parameter():
    p = Tensor(np.ones(2), requires_grad=True)
    p.grad = np.array([np.nan, 0.0])
    with pytest.raises(DivergenceError) as e:
        adam_step({"bad_param": p}, OptimizerState(), 0.1)
    assert "bad_param" in str(e.value)


def test_adam_nan_in_last_gradient_leaves_everything_unchanged():
    named = {name: Tensor(np.full(2, float(k + 1)), requires_grad=True)
             for k, name in enumerate(["first", "second", "last"])}
    for p in named.values():
        p.grad = np.ones(2)
    state = OptimizerState()
    adam_step(named, state, 0.1)
    before = ({n: p.data.copy() for n, p in named.items()},
              {n: m.copy() for n, m in state.m.items()},
              {n: v.copy() for n, v in state.v.items()}, state.step)
    named["last"].grad = np.array([0.0, np.nan])
    with pytest.raises(DivergenceError) as e:
        adam_step(named, state, 0.1)
    assert "last" in str(e.value)
    params, m, v, step = before
    assert all(np.array_equal(named[n].data, params[n]) for n in named)
    assert all(np.array_equal(state.m[n], m[n]) and np.array_equal(state.v[n], v[n]) for n in named)
    assert state.step == step


def test_adam_deterministic_trajectory():
    def run():
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        st = OptimizerState()
        for i in range(5):
            p.grad = p.data * 0.5 + i
            adam_step({"p": p}, st, 0.01)
        return p.data.copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# training loop

def test_train_runs_and_logs(tmp_path, capsys):
    cfg = tiny_cfg()
    ds = tiny_data()
    params = tiny_model(ds, cfg, seed=1)
    result = train(ds, ds, params, cfg, out_dir=tmp_path, quiet=False)
    assert len(result.epochs) == cfg.max_epochs
    lines = (tmp_path / "metrics.jsonl").read_text().strip().split("\n")
    assert len(lines) == cfg.max_epochs
    assert capsys.readouterr().out.splitlines() == lines   # verbose: each line printed too
    entry = json.loads(lines[0])
    assert {"epoch", "lr", "L_KL", "L_G", "val"} <= set(entry)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "best.ckpt", "final.ckpt", "metrics.jsonl"]


def test_train_deterministic_logs():
    cfg = tiny_cfg()
    ds = tiny_data()

    def run():
        params = tiny_model(ds, cfg, seed=2)
        return train(ds, ds, params, cfg).epochs

    a, b = run(), run()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_first_batch_generative_loss_independent_of_kl_weight():
    """Same init: the bridge weight cannot change L_G before any update."""
    ds = tiny_data()
    cfg = tiny_cfg()
    units = prepare_units(ds, cfg.seq_len, cfg.max_history)

    def first_lg(kl_weight):
        params = tiny_model(ds, cfg, seed=3)
        fw = forward_batch(params, units[:4], tiny_cfg(kl_weight=kl_weight))
        return fw.losses["L_G"].item()

    assert first_lg(0.0) == first_lg(1.0)


def test_validation_never_calls_posterior(monkeypatch):
    """train() runs the posterior once per training batch, and per-epoch
    validation never does."""
    ds = tiny_data()
    cfg = tiny_cfg()
    batch_sizes = []
    real = model.posterior_ground

    def counting(I, x, *args):
        batch_sizes.append(x.shape[0])
        return real(I, x, *args)

    monkeypatch.setattr(model, "posterior_ground", counting)
    train(ds, ds, tiny_model(ds, cfg, seed=4), cfg)
    units = len(ds.units())
    assert len(batch_sizes) == cfg.max_epochs * math.ceil(units / cfg.batch_size)
    assert sum(batch_sizes) == cfg.max_epochs * units


@pytest.mark.parametrize("bad_step, out, kept", [
    (0, True, "no checkpoint was written"),
    (3, True, "the best checkpoint, of epoch 0, is retained"),
    (3, False, "no checkpoint was written"),
])
def test_divergence_says_whether_a_best_checkpoint_exists(monkeypatch, tmp_path, bad_step,
                                                          out, kept):
    """Training step bad_step (three per epoch) gives a NaN loss."""
    ds = tiny_data()
    cfg = tiny_cfg()
    real, steps = training.forward_batch, []

    def diverging(*args):
        fw = real(*args)
        if len(steps) == bad_step:
            fw.loss.data = fw.loss.data * np.nan
        steps.append(1)
        return fw

    monkeypatch.setattr(training, "forward_batch", diverging)
    out_dir = tmp_path / "run" if out else None
    with pytest.raises(DivergenceError, match=f"non-finite loss at epoch {bad_step // 3}; {kept}$"):
        train(ds, ds, tiny_model(ds, cfg), cfg, out_dir=out_dir)
    assert (tmp_path / "run" / "best.ckpt").exists() == ("retained" in kept)


def test_train_on_an_empty_dataset_raises():
    ds = tiny_data()
    cfg = tiny_cfg()
    empty = DialogDataset(examples=[], vocab=ds.vocab, split="train")
    with pytest.raises(ContractError, match="empty"):
        train(empty, ds, tiny_model(ds, cfg), cfg)


def test_train_on_an_empty_validation_set_raises_before_the_first_epoch(monkeypatch):
    ds = tiny_data()
    cfg = tiny_cfg()
    empty = DialogDataset(examples=[], vocab=ds.vocab, split="val")

    def no_step(*args, **kwargs):
        raise AssertionError("train ran a step before checking the validation set")

    monkeypatch.setattr(training, "forward_batch", no_step)
    with pytest.raises(ContractError, match="validate on an empty dataset"):
        train(ds, empty, tiny_model(ds, cfg), cfg)


def test_multitask_mode_trains():
    cfg = tiny_cfg(loss_mode="multitask", max_epochs=1)
    ds = tiny_data(n=2)
    params = tiny_model(ds, cfg, seed=5)
    result = train(ds, ds, params, cfg)
    assert "L_G" in result.epochs[0] and "L_D" in result.epochs[0]


def dataset_lists(ds):
    """Every token, relevance and grounding list of the dataset."""
    return [(ex.caption_tokens, [(r.question_tokens, r.answer_tokens, r.candidates,
                                  r.relevance, r.gt_grounding) for r in ex.rounds])
            for ex in ds.examples]


def test_training_and_evaluation_leave_the_borrowed_lists_as_they_were():
    """Units borrow their round's lists, and a report its units' grounding
    lists, so no layer may write to them, and a record read from a report
    holds lists of its own."""
    cfg = tiny_cfg(loss_mode="multitask", max_epochs=1)
    ds = tiny_data(n=6)
    before = copy.deepcopy(dataset_lists(ds))
    params = tiny_model(ds, cfg, seed=5)
    train(ds, ds, params, cfg)
    assert dataset_lists(ds) == before
    for ablate in ABLATION_MODES:
        for decoder in ("generative", "discriminative"):
            report = evaluate(params, ds, cfg, decoder=decoder, ablate=ablate, seed=1,
                              with_posterior=True)
            assert dataset_lists(ds) == before, (ablate, decoder)
            for rec in report.attention:
                rec["gt_grounding"].append(-1)
                rec["top3_prior"].reverse()
            assert dataset_lists(ds) == before, (ablate, decoder)
            assert report.attention[0]["gt_grounding"][-1] != -1


def test_optimizer_step_runs_with_the_graph_released(monkeypatch):
    """On a step after the first (Adam's m and v exist), the traced peak
    across backward and adam_step exceeds the memory live at the end of
    forward_batch by at most the parameters' gradients: they are the only
    arrays backward creates that outlive it."""
    ds = generate_synthetic(SyntheticConfig(num_images=5, seed=5, rounds=10, mu=12,
                                            num_colors=12, num_shapes=12, d_v=24))
    ds_train = DialogDataset(ds.examples[:4], ds.vocab, "train")
    ds_val = DialogDataset(ds.examples[4:], ds.vocab, "val")
    cfg = TrainConfig(loss_mode="generative", batch_size=20, max_epochs=1)
    real_forward, real_adam, steps = training.forward_batch, training.adam_step, []

    def forward(*args):
        fw = real_forward(*args)
        steps.append({"live": tracemalloc.get_traced_memory()[0]})
        tracemalloc.reset_peak()
        return fw

    def adam(named, *args):
        real_adam(named, *args)
        steps[-1]["peak"] = tracemalloc.get_traced_memory()[1]
        steps[-1]["grads"] = sum(p.grad.nbytes for p in named.values() if p.grad is not None)

    monkeypatch.setattr(training, "forward_batch", forward)
    monkeypatch.setattr(training, "adam_step", adam)
    tracemalloc.start()
    try:
        train(ds_train, ds_val, tiny_model(ds, cfg), cfg)
    finally:
        tracemalloc.stop()
    assert len(steps) == 2
    second = steps[1]
    assert second["peak"] - second["live"] <= second["grads"], second


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_cfg()
    ds = tiny_data(n=2)
    params = tiny_model(ds, cfg, seed=6)
    named = named_parameters(params)
    save_checkpoint(tmp_path / "ck", named, cfg, ds.vocab.id_to_token, 3)
    # one sorted manifest line holds the header and the shapes; the float64
    # data alone follows it
    line = (tmp_path / "ck.ckpt").read_bytes().split(b"\n", 1)[0]
    assert line == json.dumps({
        "config": cfg.to_dict(), "epoch": 3, "vocab": ds.vocab.id_to_token,
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in named.items()]},
        sort_keys=True).encode()
    assert (tmp_path / "ck.ckpt").stat().st_size == (
        len(line) + 1 + 8 * sum(t.size for t in named.values()))
    tensors, cfg2, vocab = load_checkpoint(tmp_path / "ck")
    assert cfg2.to_dict() == cfg.to_dict()
    assert vocab == ds.vocab.id_to_token
    params2 = tiny_model(ds, cfg, seed=99)
    restore_params(params2, tensors)
    for name, t in named_parameters(params2).items():
        assert np.array_equal(t.data, named[name].data)


def test_a_failed_rewrite_leaves_the_previous_checkpoint_whole(tmp_path, monkeypatch):
    """An error while the data is written (a full disk, say) or while the
    file is renamed into place leaves the checkpoint of the last good save
    byte for byte, and no temporary."""
    cfg = tiny_cfg()
    ds = tiny_data(n=2)
    named = named_parameters(tiny_model(ds, cfg, seed=6))
    save_checkpoint(tmp_path / "ck", named, cfg, ds.vocab.id_to_token, 0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    class FullDisk:
        """A tensor whose data fails to reach the file, after the manifest line."""
        shape = (1,)

        @property
        def data(self):
            return self

        def __array__(self, dtype=None, copy=None):
            raise OSError(28, "No space left on device")

    with pytest.raises(OSError):
        save_checkpoint(tmp_path / "ck", {**named, "z": FullDisk()}, cfg,
                        ds.vocab.id_to_token, 1)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert sorted(before) == ["ck.ckpt"]

    renames = []

    def interrupted(src, dst):
        renames.append((src, dst))
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(tmp_path / "ck", named, cfg, ds.vocab.id_to_token, 1)
    assert renames == [(tmp_path / "ck.ckpt.tmp", tmp_path / "ck.ckpt")]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert json.loads(before["ck.ckpt"].split(b"\n", 1)[0])["epoch"] == 0


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """(directory, bytes) of a d_q=4 model's checkpoint: 12 tokens, 16 values per region."""
    cfg = TrainConfig(d_q=4, d_e=4, n_heads=2, d_h=4)
    vocab = Vocabulary([f"w{i}" for i in range(8)])
    named = named_parameters(init_params_for(cfg, np.random.default_rng(0), len(vocab), 16))
    out = tmp_path_factory.mktemp("fuzz")
    save_checkpoint(out / "ck", named, cfg, vocab.id_to_token, 0)
    return out, (out / "ck.ckpt").read_bytes()


def _cut(data, spot):
    return data[:spot % len(data)]


def _one_byte_of_the_line_changed(data, spot, delta):
    i = spot % data.index(b"\n")
    return data[:i] + bytes([(data[i] + delta) % 256]) + data[i + 1:]


@settings(max_examples=500, deadline=None)
@given(spot=st.integers(0, 2 ** 16), delta=st.integers(1, 255), cut=st.booleans())
def test_a_damaged_checkpoint_loads_or_raises_value_error(tiny_checkpoint, spot, delta, cut):
    """What eval does with a checkpoint cut anywhere or with one byte of its
    manifest line changed either succeeds or raises ValueError, which the
    CLI reports as a data error."""
    out, data = tiny_checkpoint
    damaged = _cut(data, spot) if cut else _one_byte_of_the_line_changed(data, spot, delta)
    base = out / f"case{len(list(out.iterdir()))}"
    base.with_suffix(".ckpt").write_bytes(damaged)   # a fresh name: no truncating rewrite
    try:
        tensors, cfg, tokens = load_checkpoint(base)
        vocab = Vocabulary(tokens)
        restore_params(init_params_for(cfg, np.random.default_rng(0), len(vocab), 16), tensors)
    except ValueError:
        pass


def test_checkpoint_manifest_mismatch(tmp_path):
    cfg = tiny_cfg()
    ds = tiny_data(n=2)
    params = tiny_model(ds, cfg, seed=7)
    named = named_parameters(params)
    save_checkpoint(tmp_path / "ck", named, cfg, ds.vocab.id_to_token, 0)
    tensors, _, _ = load_checkpoint(tmp_path / "ck")
    other_cfg = tiny_cfg(d_q=16, d_h=16)
    params_big = tiny_model(ds, other_cfg, seed=8)
    with pytest.raises(ValueError) as e:
        restore_params(params_big, tensors)
    assert "mismatch" in str(e.value)


def _saved_with_a_manifest_edit(tmp_path, edit):
    """Save a tiny model's checkpoint, then rewrite its manifest line after
    edit(manifest), keeping its data bytes."""
    cfg = tiny_cfg()
    ds = tiny_data(n=2)
    save_checkpoint(tmp_path / "ck", named_parameters(tiny_model(ds, cfg)), cfg,
                    ds.vocab.id_to_token, 0)
    path = tmp_path / "ck.ckpt"
    line, data = path.read_bytes().split(b"\n", 1)
    manifest = json.loads(line)
    edit(manifest)
    path.write_bytes(json.dumps(manifest).encode() + b"\n" + data)


@pytest.mark.parametrize("first, message", [
    # gigabytes declared: the data's size refuses them before any array is formed
    (4_000_000_000, r"holds \d+ data bytes where the manifest's shapes need \d+$"),
    *((bad, "non-negative ints") for bad in (-1, 2.5, True)),
], ids=["huge", "negative", "float", "bool"])
def test_load_refuses_a_bad_manifest_shape(tmp_path, first, message):
    _saved_with_a_manifest_edit(tmp_path, lambda m: m["tensors"][0]["shape"].__setitem__(0, first))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(tmp_path / "ck")


def test_load_refuses_a_manifest_that_names_a_tensor_twice(tmp_path):
    """Each name keeps its own shape, so the data's size alone would pass."""
    def repeat(manifest):
        tensors = manifest["tensors"]
        tensors[1]["name"] = tensors[0]["name"]
    _saved_with_a_manifest_edit(tmp_path, repeat)
    with pytest.raises(ValueError, match=r"manifest names '[^']+' twice$"):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("edit, message", [
    ("drop", r"^manifest mismatch: the checkpoint lacks \['decoder\.bilinear'\]$"),
    ("add", r"^manifest mismatch: the checkpoint has \['decoder\.extra'\], "
            r"which the model does not$"),
    ("rename", r"^manifest mismatch: the checkpoint lacks \['decoder\.bilinear'\]; "
               r"the checkpoint has \['decoder\.extra'\], which the model does not$"),
    ("reshape", r"^manifest mismatch for 'decoder\.bilinear': "
                r"model \(8, 8\), checkpoint \(2, 2\)$"),
], ids=["drop", "add", "rename", "reshape"])
def test_restore_refuses_a_different_parameter_set_naming_the_tensor(edit, message):
    cfg = tiny_cfg()
    ds = tiny_data(n=2)
    params = tiny_model(ds, cfg, seed=7)
    tensors = {name: t.data for name, t in named_parameters(params).items()}
    if edit in ("drop", "rename"):
        del tensors["decoder.bilinear"]
    if edit in ("add", "rename"):
        tensors["decoder.extra"] = np.zeros((2, 2))
    if edit == "reshape":
        tensors["decoder.bilinear"] = np.zeros((2, 2))
    with pytest.raises(ValueError, match=message):
        restore_params(params, tensors)


def test_restore_checks_every_tensor_before_writing_any():
    """A checkpoint whose last tensor has the wrong shape is refused with
    every parameter as it was, the ones it lists first included."""
    cfg = tiny_cfg()
    ds = tiny_data(n=2)
    params = tiny_model(ds, cfg, seed=7)
    before = {name: t.data.copy() for name, t in named_parameters(params).items()}
    tensors = {name: t.data for name, t in named_parameters(tiny_model(ds, cfg, seed=8)).items()}
    last = list(tensors)[-1]
    tensors[last] = np.zeros((3, 3))
    with pytest.raises(ValueError, match=f"for {last!r}: model"):
        restore_params(params, tensors)
    for name, t in named_parameters(params).items():
        assert np.array_equal(t.data, before[name]), name


def test_train_config_from_dict_refuses_a_non_object():
    with pytest.raises(ContractError, match="JSON object, got list"):
        TrainConfig.from_dict([])
