"""Model-level checks of the batched recurrence: equivalence with the per-step
reference path, and a tape whose size does not grow with sentence length."""

import contextlib
import dataclasses

import numpy as np
import pytest

import reference_lstm as ref
from grounddial import decoders, encoders, model
from grounddial.autodiff import Tape, backward
from grounddial.data import EOS_ID, SyntheticConfig, generate_synthetic
from grounddial.model import (
    forward_unit,
    infer_unit_scores,
    init_model_params,
    named_parameters,
    prepare_units,
)
from grounddial.training import TrainConfig, compose_loss

LONG_HISTORY = dict(rounds=10, mu=12, num_colors=12, num_shapes=12, d_v=24)


def setup(rounds_cfg: dict, seed: int):
    ds = generate_synthetic(SyntheticConfig(num_images=1, seed=seed, **rounds_cfg))
    cfg = TrainConfig()
    params = init_model_params(np.random.default_rng(seed), len(ds.vocab),
                               d_v=ds.examples[0].region_features.shape[1])
    return params, prepare_units(ds, cfg.seq_len, cfg.max_history), cfg


@pytest.fixture(scope="module")
def three_rounds():
    return setup({}, seed=4)


@pytest.fixture(scope="module")
def ten_rounds():
    return setup(LONG_HISTORY, seed=5)


@contextlib.contextmanager
def per_step_path():
    """Route every recurrence through the per-step reference."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(encoders, "_bi_lstm_states", ref.ref_bi_lstm_states)
        m.setattr(model, "encode_history", ref.ref_encode_history)
        m.setattr(model, "generative_loss", ref.ref_generative_loss)
        m.setattr(model, "generative_rank", ref.ref_generative_rank)
        m.setattr(model, "discriminative_scores", ref.ref_discriminative_scores)
        m.setattr(decoders, "discriminative_scores", ref.ref_discriminative_scores)
        yield


def loss_and_grads(params, unit, cfg, mode):
    for t in named_parameters(params).values():
        t.grad = None
    cfg = dataclasses.replace(cfg, loss_mode=mode)
    with Tape() as tape:
        fw = forward_unit(params, unit, cfg)
        loss = compose_loss(fw.L_G, fw.L_D, fw.L_KL, cfg)
    backward(loss, tape)
    grads = {name: t.grad for name, t in named_parameters(params).items()}
    return loss.item(), grads, len(tape.nodes)


def assert_same_loss_and_grads(got, want):
    (loss, grads, _), (ref_loss, ref_grads, _) = got, want
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert {n for n, g in grads.items() if g is None} == {n for n, g in ref_grads.items() if g is None}
    # some gradients vanish in theory at init (uniform pooling makes the grounded
    # feature independent of the weights) and are rounding noise in practice, so
    # the absolute floor scales with the largest gradient
    atol = 1e-12 * max(np.abs(g).max() for g in ref_grads.values() if g is not None)
    for name, g in grads.items():
        if g is not None:
            assert np.allclose(g, ref_grads[name], rtol=1e-9, atol=atol), name


@pytest.mark.parametrize("fixture, mode, rounds", [
    ("three_rounds", "multitask", [0, 1, 2]),
    ("ten_rounds", "generative", [0, 4, 9]),
])
def test_forward_unit_matches_per_step_path(request, fixture, mode, rounds):
    params, units, cfg = request.getfixturevalue(fixture)
    for r in rounds:
        got = loss_and_grads(params, units[r], cfg, mode)
        with per_step_path():
            want = loss_and_grads(params, units[r], cfg, mode)
        assert_same_loss_and_grads(got, want)


@pytest.mark.parametrize("decoder", ["generative", "discriminative"])
def test_inference_scores_match_per_step_path(three_rounds, decoder):
    params, units, cfg = three_rounds
    for unit in units:
        got = infer_unit_scores(params, unit, cfg, decoder=decoder)[0]
        with per_step_path():
            want = infer_unit_scores(params, unit, cfg, decoder=decoder)[0]
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def lengthened(unit, extra):
    """The unit with every question, answer, history sentence and candidate longer."""
    def grow(ids, mask):
        n, k = sum(mask), len(extra)
        return ids[:n] + extra + ids[n + k:], mask[:n] + [True] * k + mask[n + k:]

    q_ids, q_mask = grow(unit.q_ids, unit.q_mask)
    a_ids, a_mask = grow(unit.a_ids, unit.a_mask)
    return dataclasses.replace(
        unit, q_ids=q_ids, q_mask=q_mask, a_ids=a_ids, a_mask=a_mask,
        answer_targets=unit.answer_targets[:-1] + extra + [EOS_ID],
        history=[h + extra for h in unit.history],
        candidates=[c + extra for c in unit.candidates])


@pytest.mark.parametrize("mode", ["multitask", "generative"])
def test_tape_size_does_not_grow_with_sentence_length(three_rounds, mode):
    params, units, cfg = three_rounds
    unit = units[2]
    extra = unit.q_ids[:3]
    longer = lengthened(unit, extra)
    assert sum(longer.q_mask) == sum(unit.q_mask) + 3 < len(unit.q_mask)
    assert all(len(a) == len(b) + 3 for a, b in zip(longer.history, unit.history))
    assert loss_and_grads(params, longer, cfg, mode)[2] == loss_and_grads(params, unit, cfg, mode)[2]
