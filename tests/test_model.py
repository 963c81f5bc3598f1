"""Model-level checks of the batched forward pass: equivalence with the
per-unit oracle (`reference_model`, itself checked against the per-step
recurrences of `reference_lstm`) and with the gather-first composition,
row-wise layers that run once per distinct image and history sentence,
distinct sentences found once per batch and read in one gather,
invariance to the order of a batch, and a tape whose size depends neither
on the batch size nor on sentence length."""

import contextlib
import dataclasses
import tracemalloc
from collections import Counter
from functools import reduce

import numpy as np
import pytest

import reference_lstm as ref
import reference_model as oracle
from grounddial import autodiff as ad
from grounddial import encoders, model
from grounddial.autodiff import ContractError, DegenerateSliceError, Tape, backward
from grounddial.data import EOS_ID, SyntheticConfig, generate_synthetic
from grounddial.model import (
    Unit,
    forward_batch,
    infer_batch_scores,
    init_model_params,
    init_params_for,
    named_parameters,
    pack_batch,
    prepare_units,
)
from grounddial.training import TrainConfig

LONG_HISTORY = dict(rounds=10, mu=12, num_colors=12, num_shapes=12, d_v=24)


def setup(rounds_cfg: dict, seed: int, num_images: int = 1, region_counts=()):
    """Params, units and config; image i keeps only region_counts[i] regions."""
    ds = generate_synthetic(SyntheticConfig(num_images=num_images, seed=seed, **rounds_cfg))
    for ex, mu in zip(ds.examples, region_counts):
        ex.region_features = ex.region_features[:mu]
    cfg = TrainConfig()
    params = init_params_for(cfg, np.random.default_rng(seed), len(ds.vocab),
                             ds.examples[0].region_features.shape[1])
    # zero-initialized pooling scores make every prior uniform; give them structure
    params.grounding.w2.data = np.random.default_rng(seed + 1).uniform(
        -1.0, 1.0, size=params.grounding.w2.shape)
    return params, prepare_units(ds, cfg.seq_len, cfg.max_history), cfg


@pytest.fixture(scope="module")
def three_rounds():
    return setup({}, seed=4)


@pytest.fixture(scope="module")
def ten_rounds():
    return setup(LONG_HISTORY, seed=5)


def lengthened(unit, extra):
    """The unit with every question, answer, history sentence and candidate longer."""
    return dataclasses.replace(
        unit, question=unit.question + extra, answer=unit.answer + extra,
        answer_targets=unit.answer_targets[:-1] + extra + [EOS_ID],
        history=[h + extra for h in unit.history],
        candidates=[c + extra for c in unit.candidates])


@pytest.fixture(scope="module")
def mixed():
    """Twelve units: rounds 0-9 of three 10-round dialogs whose images keep
    12, 8 and 6 regions, some with every sentence two tokens longer."""
    params, units, cfg = setup(LONG_HISTORY, seed=6, num_images=3, region_counts=(12, 8, 6))
    picks = [units[0], units[9], units[13], units[18], units[21], units[27], units[4],
             units[15], units[22], units[10], units[6], units[23]]
    extra = units[0].question[:2]
    batch = [lengthened(u, extra) if k % 3 == 1 else u for k, u in enumerate(picks)]
    assert {u.features.shape[0] for u in batch} == {12, 8, 6}
    assert {u.round_index for u in batch} == set(range(10))
    assert len({len(u.question) for u in batch}) > 2
    return params, batch, cfg


@contextlib.contextmanager
def per_step_path():
    """Route every recurrence of the per-unit oracle through the per-step reference."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "_bi_lstm_states", ref.ref_bi_lstm_states)
        m.setattr(oracle, "encode_history", ref.ref_encode_history)
        m.setattr(oracle, "generative_loss", ref.ref_generative_loss)
        m.setattr(oracle, "generative_rank", ref.ref_generative_rank)
        m.setattr(oracle, "discriminative_scores", ref.ref_discriminative_scores)
        yield


def grads_of(params, run):
    """(loss, every parameter gradient, tape nodes) of the scalar `run()` builds."""
    for t in named_parameters(params).values():
        t.grad = None
    with Tape() as tape:
        loss = run()
    backward(loss, tape)
    grads = {name: t.grad for name, t in named_parameters(params).items()}
    return loss.item(), grads, len(tape.nodes)


def total_loss(L_G, L_D, L_KL, cfg):
    """The decoder losses the mode trains, then + kl_weight * L_KL."""
    decoder = [loss for loss in (L_G, L_D) if loss is not None]
    return reduce(ad.add, [*decoder, ad.scale(L_KL, cfg.kl_weight)])


def unit_loss_and_grads(params, unit, cfg):
    def run():
        fw = oracle.forward_unit(params, unit, cfg)
        return total_loss(fw.L_G, fw.L_D, fw.L_KL, cfg)
    return grads_of(params, run)


def oracle_loss_and_grads(params, units, cfg):
    """The per-unit losses averaged over the batch, as training did unit by unit."""
    def run():
        fws = [oracle.forward_unit(params, u, cfg) for u in units]
        mean = lambda name: (ref.mean_of([getattr(f, name) for f in fws])
                             if getattr(fws[0], name) is not None else None)
        return total_loss(mean("L_G"), mean("L_D"), mean("L_KL"), cfg)
    return grads_of(params, run)


def batch_loss_and_grads(params, units, cfg):
    return grads_of(params, lambda: forward_batch(params, units, cfg).loss)


def assert_same_loss_and_grads(got, want, rtol=1e-9):
    (loss, grads, _), (ref_loss, ref_grads, _) = got, want
    assert loss == pytest.approx(ref_loss, rel=rtol)
    # a weight that never acts (a recurrence one step from a zero state) may
    # get no gradient where the per-step reference forms one of exact zeros
    assert {n for n, g in ref_grads.items() if g is None} \
        <= {n for n, g in grads.items() if g is None} \
        <= {n for n, g in ref_grads.items() if g is None or not g.any()}
    # decoder.cand.proj_b's gradient vanishes in theory (it shifts every candidate
    # score alike) and is rounding noise in practice, so the absolute floor
    # scales with the largest gradient
    atol = 1e-12 * max(np.abs(g).max() for g in ref_grads.values() if g is not None)
    for name, g in grads.items():
        if g is not None:
            assert np.allclose(g, ref_grads[name], rtol=rtol, atol=atol), name


# ---------------------------------------------------------------------------
# the per-unit oracle against the per-step recurrences

@pytest.mark.parametrize("fixture, mode, rounds", [
    ("three_rounds", "multitask", [0, 1, 2]),
    ("ten_rounds", "generative", [0, 4, 9]),
])
def test_forward_unit_matches_per_step_path(request, fixture, mode, rounds):
    params, units, cfg = request.getfixturevalue(fixture)
    cfg = dataclasses.replace(cfg, loss_mode=mode)
    for r in rounds:
        got = unit_loss_and_grads(params, units[r], cfg)
        with per_step_path():
            want = unit_loss_and_grads(params, units[r], cfg)
        assert_same_loss_and_grads(got, want)


@pytest.mark.parametrize("decoder", ["generative", "discriminative"])
def test_inference_scores_match_per_step_path(three_rounds, decoder):
    params, units, _ = three_rounds
    for unit in units:
        got = oracle.infer_unit_scores(params, unit, decoder=decoder)[0]
        with per_step_path():
            want = oracle.infer_unit_scores(params, unit, decoder=decoder)[0]
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# the batched path against the per-unit oracle

@pytest.mark.parametrize("settings", [
    dict(loss_mode="multitask"),
    dict(loss_mode="generative"),
    dict(loss_mode="discriminative"),
])
def test_forward_batch_matches_per_unit_oracle(mixed, settings):
    params, units, cfg = mixed
    cfg = dataclasses.replace(cfg, **settings)
    assert_same_loss_and_grads(batch_loss_and_grads(params, units, cfg),
                               oracle_loss_and_grads(params, units, cfg))


@pytest.mark.parametrize("decoder", ["generative", "discriminative"])
def test_inference_matches_per_unit_oracle(mixed, decoder):
    params, units, _ = mixed
    scores, g, posteriors = infer_batch_scores(params, units, decoder=decoder,
                                               with_posterior=True)
    rng = np.random.default_rng(0)
    override = np.zeros(g.shape)
    for k, u in enumerate(units):
        override[k, :u.features.shape[0]] = rng.dirichlet(np.ones(u.features.shape[0]))
    scores_o, g_o, no_posterior = infer_batch_scores(params, units, decoder=decoder,
                                                     g_override=lambda learned: override)
    assert no_posterior is None
    assert np.array_equal(g_o, override)
    for k, u in enumerate(units):
        mu = u.features.shape[0]
        assert not g[k, mu:].any() and not posteriors[k, mu:].any()
        want_s, want_g = oracle.infer_unit_scores(params, u, decoder=decoder)
        assert np.allclose(scores[k], want_s, rtol=1e-9, atol=1e-12)
        assert np.allclose(g[k, :mu], want_g, rtol=1e-9, atol=1e-15)
        want_s, want_g = oracle.infer_unit_scores(params, u, decoder=decoder,
                                                  g_override=override[k, :mu])
        assert np.allclose(scores_o[k], want_s, rtol=1e-9, atol=1e-12)
        assert np.allclose(posteriors[k, :mu], oracle.unit_posterior_weights(params, u),
                           rtol=1e-9, atol=1e-15)


def test_g_override_of_the_wrong_shape_raises(mixed):
    params, units, _ = mixed
    with pytest.raises(ContractError, match=r"shape \(12, 11\), expected \(12, 12\)"):
        infer_batch_scores(params, units, decoder="generative",
                           g_override=lambda learned: learned[:, :-1])
    with pytest.raises(ContractError, match="g_override returned weights of shape"):
        infer_batch_scores(params, units, decoder="generative",
                           g_override=lambda learned: learned[:-1])


# where each shape field of a TrainConfig shows in the model it builds
SHAPE_READINGS = {
    "d_e": lambda p: p.encoder.embedding.shape[1],
    "d_q": lambda p: p.encoder.w_q.shape,
    "n_heads": lambda p: p.encoder.n_heads,
    "d_h": lambda p: p.grounding.w1.shape[1],
    "fusion_residual": lambda p: p.encoder.fusion_residual,
}
SMALL_SHAPE = dict(d_e=8, d_q=8, n_heads=2, d_h=8, fusion_residual=True)
OTHER_SHAPE = dict(d_e=12, d_q=16, n_heads=8, d_h=12, fusion_residual=False)


@pytest.mark.parametrize("field", sorted(SHAPE_READINGS))
def test_every_shape_field_reaches_the_model(field):
    """A config that changes one shape field builds a model that differs
    in that field's place, and only there."""
    def readings(cfg):
        params = init_params_for(cfg, np.random.default_rng(0), 10, 6)
        return {name: read(params) for name, read in SHAPE_READINGS.items()}

    base = TrainConfig(**SMALL_SHAPE)
    before = readings(base)
    after = readings(dataclasses.replace(base, **{field: OTHER_SHAPE[field]}))
    assert after[field] != before[field]
    assert {k: v for k, v in after.items() if k != field} == \
        {k: v for k, v in before.items() if k != field}


def test_init_params_for_draws_what_the_explicit_call_draws():
    """With every shape field off its default, the config's model is the
    explicit `init_model_params` call's, byte for byte, from the same seed."""
    assert all(OTHER_SHAPE[f] != getattr(TrainConfig, f) for f in OTHER_SHAPE)
    built = init_params_for(TrainConfig(**OTHER_SHAPE), np.random.default_rng(3), 10, 6)
    explicit = init_model_params(np.random.default_rng(3), 10, 6, **OTHER_SHAPE)
    assert (built.encoder.n_heads, built.encoder.fusion_residual) == \
        (explicit.encoder.n_heads, explicit.encoder.fusion_residual)
    a, b = named_parameters(built), named_parameters(explicit)
    assert list(a) == list(b)
    for name in a:
        assert a[name].shape == b[name].shape, name
        assert a[name].data.tobytes() == b[name].data.tobytes(), name


def test_init_gives_the_attention_and_the_answer_encoder_a_gradient():
    """At init `w2 = 0` pools the regions uniformly. Each region's softmax
    over the tokens still lets the attention projections and the answer
    encoder, which only the posterior's queries read, move the pooled vector.
    Synthetic answers are one word, which leaves the answer encoder's
    recurrent weights nothing to act on, so the answers are lengthened."""
    ds = generate_synthetic(SyntheticConfig(num_images=4, seed=4))
    cfg = TrainConfig()
    params = init_params_for(cfg, np.random.default_rng(0), len(ds.vocab),
                             ds.examples[0].region_features.shape[1])
    units = [lengthened(u, u.question[:2]) for u in prepare_units(ds, cfg.seq_len, cfg.max_history)]
    _, grads, _ = batch_loss_and_grads(params, units, cfg)
    answer = [name for name in grads if name.startswith("encoder.answer.")]
    assert answer
    for name in ["grounding.att_wi", "grounding.att_wx", *answer]:
        assert np.abs(grads[name]).max() > 1e-6, name


def test_batch_loss_does_not_depend_on_unit_order(mixed):
    params, units, cfg = mixed
    cfg = dataclasses.replace(cfg, loss_mode="multitask")
    loss, grads, _ = batch_loss_and_grads(params, units, cfg)
    order = np.random.default_rng(1).permutation(len(units))
    loss_p, grads_p, _ = batch_loss_and_grads(params, [units[int(i)] for i in order], cfg)
    assert abs(loss_p - loss) <= 1e-12 * abs(loss)
    for name, g in grads.items():
        assert np.allclose(grads_p[name], g, rtol=1e-9, atol=1e-12), name


# ---------------------------------------------------------------------------
# late gathers against the gather-first composition

def test_late_gather_is_the_gather_first_composition(mixed):
    """Twelve units on three images, with history sentences that several
    units hold: inference with either decoder, the posterior included, is
    the gather-first composition's bit for bit, as is the training loss;
    each gradient agrees to 1e-12 of its largest entry, as duplicate rows'
    gradients are now summed before the shared weights' products."""
    params, units, cfg = mixed
    cfg = dataclasses.replace(cfg, loss_mode="multitask")
    batch = pack_batch(units)
    assert batch.regions.shape[0] < sum(u.features.shape[0] for u in units)
    assert len({tuple(h) for h in batch.history}) < len(batch.history)
    for decoder in ("generative", "discriminative"):
        got = infer_batch_scores(params, units, decoder=decoder, with_posterior=True)
        with oracle.gather_first():
            want = infer_batch_scores(params, units, decoder=decoder, with_posterior=True)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), decoder
    loss, grads, _ = batch_loss_and_grads(params, units, cfg)
    with oracle.gather_first():
        want_loss, want_grads, _ = batch_loss_and_grads(params, units, cfg)
    assert loss == want_loss
    assert grads.keys() == want_grads.keys()
    for name, g in want_grads.items():
        if g is None:
            assert grads[name] is None, name
        else:
            assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name


def test_row_wise_layers_run_once_per_distinct_image_and_history_sentence(mixed):
    """The packed regions hold each image's features once, and on the tape
    the region projection, the region-side attention product (once for
    both branches) and the key and value products take one row per
    distinct region or history sentence, not one per unit's copy."""
    params, units, cfg = mixed
    images = list({id(u.features): u.features for u in units}.values())
    batch = pack_batch(units)
    assert np.array_equal(batch.regions.data, np.concatenate([f.data for f in images]))
    n_regions = batch.regions.shape[0]
    for b, u in enumerate(units):
        rows = batch.region_rows[b]
        assert np.array_equal(batch.regions.data[rows[rows < n_regions]], u.features)
    n_history = len({tuple(h) for h in batch.history})
    assert n_history < len(batch.history)
    enc, grd = params.encoder, params.grounding
    weights = {id(enc.region_w1), id(grd.att_wi), id(enc.w_k), id(enc.w_v)}
    with Tape() as tape:
        forward_batch(params, units, cfg)
    rows: dict[int, list[int]] = {}
    for node in tape.nodes:
        for t in node.inputs[1:]:
            if id(t) in weights:
                rows.setdefault(id(t), []).append(node.inputs[0].shape[0])
    assert rows == {id(enc.region_w1): [n_regions], id(grd.att_wi): [n_regions],
                    id(enc.w_k): [n_history], id(enc.w_v): [n_history]}


# ---------------------------------------------------------------------------
# distinct sentences, found once per batch

def test_each_batch_finds_its_distinct_sentences_once(mixed, monkeypatch):
    """The mixed batch with three of its units again, so questions,
    answers, candidates and history rows all repeat. In training and in
    inference by either decoder: each history sentence is tuple-keyed once
    for each unit row that holds it, as the encoders find the distinct
    ones and packing passes the rows on as they come; `fuse_context` reads
    one row per distinct history sentence, in order of first occurrence,
    through a grid whose real positions are a prefix of each unit's row,
    its sentences in order; and no `gather_rows` call reads every row of
    its input in order, or another gather's output.

    A third of the units are two tokens longer. Were every answer and
    candidate one token long, the reads of their final states would be
    every row in order; the op sequence stays the same whatever the
    sentence lengths (`test_tape_size_does_not_grow_with_sentence_length`),
    so those reads stay."""
    params, units, cfg = mixed
    units = units + units[:3]
    cfg = dataclasses.replace(cfg, loss_mode="multitask")
    history = [tuple(h) for h in pack_batch(units).history]
    assert history == [tuple(h) for u in units for h in u.history]
    distinct = list(dict.fromkeys(history))
    others = [[u.question for u in units], [u.answer for u in units],
              [c for u in units for c in u.candidates]]
    for seqs in [history, *others]:
        assert len({tuple(s) for s in seqs}) < len(seqs)
    assert not set(distinct) & {tuple(s) for seqs in others for s in seqs}

    keyed = Counter()

    def counting_tuple(items=()):
        key = tuple(items)
        keyed[key] += 1
        return key

    for module in (encoders, model):
        monkeypatch.setattr(module, "tuple", counting_tuple, raising=False)
    gathers, grids = [], []
    gather_rows, fuse_context = ad.gather_rows, model.fuse_context

    def recording_gather(a, index):
        out = gather_rows(a, index)
        gathers.append((a, np.asarray(index), out))
        return out

    def recording_fuse(Q, H, mask_q, rows_h, enc):
        grids.append((H.shape[0], np.asarray(rows_h)))
        return fuse_context(Q, H, mask_q, rows_h, enc)

    monkeypatch.setattr(ad, "gather_rows", recording_gather)
    monkeypatch.setattr(model, "fuse_context", recording_fuse)
    runs = {"training": lambda: forward_batch(params, units, cfg)}
    for decoder in ("generative", "discriminative"):
        runs[decoder] = lambda decoder=decoder: infer_batch_scores(
            params, units, decoder=decoder, with_posterior=True)
    for name, run in runs.items():
        keyed.clear()
        gathers.clear()
        grids.clear()
        run()
        assert {s: keyed[s] for s in distinct} == Counter(history), name
        (n_rows, rows_h), = grids
        assert n_rows == len(distinct), name
        real = rows_h < n_rows
        for b, u in enumerate(units):
            n = len(u.history)
            assert real[b].tolist() == [True] * n + [False] * (real.shape[1] - n), name
            assert [distinct[r] for r in rows_h[b, :n]] == [tuple(h) for h in u.history], name
        made = {id(out) for _, _, out in gathers}
        for a, index, _ in gathers:
            assert id(a) not in made, name
            flat = index.reshape(-1)
            assert not (flat.size == a.shape[0]
                        and np.array_equal(flat, np.arange(flat.size))), name


# ---------------------------------------------------------------------------
# the one-node layers against the composed graph they replaced

def test_one_node_layers_give_the_composed_graph_bit_for_bit(mixed):
    """`affine`, `layer_norm`, the stacked-heads `fuse_context` and the k=1
    `matmul` against the composed forms (`reference_model.composed_layers`):
    on a batch with padded history rows, regions and question positions,
    the losses and every parameter's gradient are byte for byte the same,
    from a shorter tape."""
    params, units, cfg = mixed
    cfg = dataclasses.replace(cfg, loss_mode="multitask")

    def run():
        for t in named_parameters(params).values():
            t.grad = None
        with Tape() as tape:
            fw = forward_batch(params, units, cfg)
        backward(fw.loss, tape)
        losses = [fw.loss.data.tobytes()] + [fw.losses[k].data.tobytes() for k in sorted(fw.losses)]
        grads = {name: t.grad for name, t in named_parameters(params).items()}
        return losses, grads, len(tape.nodes)

    losses, grads, nodes = run()
    with oracle.composed_layers():
        want_losses, want_grads, want_nodes = run()
    assert losses == want_losses
    assert grads.keys() == want_grads.keys()
    for name, g in want_grads.items():
        assert g is not None and g.tobytes() == grads[name].tobytes(), name
    assert nodes < want_nodes


# ---------------------------------------------------------------------------
# tape size

@pytest.mark.parametrize("mode", ["multitask", "generative"])
def test_tape_nodes_per_batch_do_not_depend_on_batch_size(mode):
    params, units, cfg = setup(LONG_HISTORY, seed=7, num_images=2)
    cfg = dataclasses.replace(cfg, loss_mode=mode)
    small = batch_loss_and_grads(params, units[:4], cfg)[2]
    assert batch_loss_and_grads(params, units[4:20], cfg)[2] == small


@pytest.mark.parametrize("mode", ["multitask", "generative"])
def test_tape_size_does_not_grow_with_sentence_length(three_rounds, mode):
    params, units, cfg = three_rounds
    cfg = dataclasses.replace(cfg, loss_mode=mode)
    extra = units[2].question[:3]
    longer = [lengthened(u, extra) for u in units]
    assert all(len(a.question) == len(b.question) + 3 < cfg.seq_len for a, b in zip(longer, units))
    assert all(len(a) == len(b) + 3 for a, b in zip(longer[2].history, units[2].history))
    assert (batch_loss_and_grads(params, longer, cfg)[2]
            == batch_loss_and_grads(params, units, cfg)[2])


# ---------------------------------------------------------------------------
# packing

def test_prepare_units_cut_tokens_to_seq_len():
    ds = generate_synthetic(SyntheticConfig(num_images=2, seed=4))
    for unit, (i, t) in zip(prepare_units(ds, seq_len=3, max_history=4), ds.units()):
        rnd = ds.examples[i].rounds[t]
        assert unit.question == rnd.question_tokens[:3] and len(rnd.question_tokens) > 3
        assert unit.answer == rnd.answer_tokens[:3]
        assert unit.answer_targets == rnd.answer_tokens[:2] + [EOS_ID]
        assert all(len(h) <= 3 for h in unit.history)


@pytest.mark.parametrize("max_history", [1, 2, 3])
def test_prepare_units_keep_the_caption_and_the_latest_rounds(max_history):
    ds = generate_synthetic(SyntheticConfig(num_images=1, rounds=4, seed=4))
    units = prepare_units(ds, seq_len=20, max_history=max_history)
    for t, unit in enumerate(units):
        assert len(unit.history) == min(t + 1, max_history)
        assert unit.history[0] == ds.examples[0].caption_tokens[:20]
        if t and max_history > 1:
            prev = ds.examples[0].rounds[t - 1]
            assert unit.history[-1] == (prev.question_tokens + prev.answer_tokens)[:20]


def test_prepare_units_build_what_the_per_unit_builder_copies():
    """Every field of every unit equals the oracle's fresh copies, and the
    features are the example's own tensor."""
    for grid, seed in (({}, 4), (LONG_HISTORY, 5)):
        ds = generate_synthetic(SyntheticConfig(num_images=3, seed=seed, **grid))
        ds.examples[1].rounds[0].relevance = None
        ds.examples[1].rounds[1].gt_grounding = None
        for seq_len, max_history in ((20, 3), (20, 11), (3, 3), (3, 11)):
            units = prepare_units(ds, seq_len, max_history)
            want = oracle.prepare_units_per_unit(ds, seq_len, max_history)
            assert len(units) == len(want) == len(ds.units())
            for unit, ref_unit in zip(units, want):
                for f in dataclasses.fields(Unit):
                    got, expected = getattr(unit, f.name), getattr(ref_unit, f.name)
                    assert got is expected if f.name == "features" else got == expected, f.name
            cut = [len(u.question) < len(ds.examples[i].rounds[t].question_tokens)
                   for u, (i, t) in zip(units, ds.units())]
            assert all(cut) if seq_len == 3 else not any(cut)


def test_units_borrow_their_rounds_lists_and_share_their_dialogs_rows():
    ds = generate_synthetic(SyntheticConfig(num_images=2, seed=5, **LONG_HISTORY))
    for seq_len in (20, 3):
        units = prepare_units(ds, seq_len, max_history=11)
        for u, (i, t) in zip(units, ds.units()):
            rnd = ds.examples[i].rounds[t]
            assert u.candidates is rnd.candidates
            assert u.relevance is rnd.relevance and u.gt_grounding is rnd.gt_grounding
            assert (u.question is rnd.question_tokens) == (seq_len == 20)
            assert (u.answer is rnd.answer_tokens) == (len(rnd.answer_tokens) <= seq_len)
        for i, ex in enumerate(ds.examples):
            dialog = [u for u, (j, _) in zip(units, ds.units()) if j == i]
            rows = {id(h) for u in dialog for h in u.history}
            assert len(rows) == len(ex.rounds)          # the caption and R - 1 pairs
            for u, later in zip(dialog, dialog[1:]):
                assert all(a is b for a, b in zip(u.history, later.history))


def test_prepare_units_allocate_a_third_of_the_per_unit_copies():
    ds = generate_synthetic(SyntheticConfig(num_images=20, seed=5, **LONG_HISTORY))

    def traced_bytes(build):
        tracemalloc.start()
        try:
            units = build(ds, 20, 11)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(units) == 200
        return size

    assert traced_bytes(prepare_units) <= traced_bytes(oracle.prepare_units_per_unit) / 3


def test_pack_batch_names_a_unit_with_an_empty_question(three_rounds):
    params, units, cfg = three_rounds
    empty = dataclasses.replace(units[1], question=[])
    with pytest.raises(DegenerateSliceError, match=rf"'{units[1].image_id}' round 1"):
        forward_batch(params, [units[0], empty], cfg)
    with pytest.raises(DegenerateSliceError, match="round 1"):
        infer_batch_scores(params, [empty], decoder="generative")
