import dataclasses
import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grounddial import evaluation, model
from grounddial.autodiff import ContractError, InvalidDistributionError
from grounddial.cli import main
from grounddial.data import (
    SyntheticConfig,
    dataset_from_dict,
    dump_dataset_json,
    generate_synthetic,
    generate_synthetic_raw,
    write_features,
)
from grounddial.evaluation import (
    ABLATION_MODES,
    EvalReport,
    attention_record,
    distribution_entropy,
    evaluate,
    mean_rank,
    mrr,
    ndcg,
    rank_of_gt,
    recall_at_k,
)
from grounddial.model import (
    TrainConfig,
    infer_batch_scores,
    init_params_for,
    named_parameters,
    prepare_units,
)
from grounddial.training import save_checkpoint
from reference_model import generative_rank_per_column


# ---------------------------------------------------------------------------
# independent brute-force oracles, written from the definitions only

def oracle_rank(scores, gt_index):
    """Sort candidate indices by (-score, index); rank = 1 + position of gt."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order.index(gt_index) + 1


def oracle_mrr(ranks):
    return sum(1.0 / r for r in ranks) / len(ranks)


def oracle_recall(ranks, k):
    return sum(1 for r in ranks if r <= k) / len(ranks)


def oracle_mean_rank(ranks):
    return sum(ranks) / len(ranks)


def oracle_ndcg(scores, relevance):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    dcg = sum(relevance[i] / math.log2(pos + 2) for pos, i in enumerate(order))
    ideal_order = sorted(range(len(scores)), key=lambda i: -relevance[i])
    idcg = sum(relevance[i] / math.log2(pos + 2) for pos, i in enumerate(ideal_order))
    return dcg / idcg


def oracle_entropy(dist):
    return -math.fsum(p * math.log(p) for p in dist if p > 0)


def oracle_top(g, k):
    """The k regions of highest weight, ties to the lower index."""
    return sorted(range(len(g)), key=lambda i: (-g[i], i))[:k]


def oracle_hit(g, gt_grounding, k):
    return bool(set(oracle_top(g, k)) & set(gt_grounding or ()))


def top_k_hits(g, gt_grounding, k):
    """The grounding hits `evaluate` counts: per row of g, whether its top k
    regions include one of the row's gt_grounding indices."""
    g = np.asarray(g, dtype=float)
    return evaluation._top_k_hits(evaluation._descending_order(g),
                                  evaluation._gt_mask(gt_grounding, g), k)


def same_report(a, b) -> bool:
    """Whether two reports hold equal metrics and equal records, however
    their units were batched."""
    return a.to_dict() == b.to_dict() and a.attention == b.attention


# ---------------------------------------------------------------------------
# rank_of_gt

def test_rank_unique_max_is_one():
    assert rank_of_gt([0.1, 0.9, 0.3], 1) == 1


def test_rank_all_tied_lowest_index_wins():
    assert rank_of_gt([0.5] * 100, 0) == 1
    assert rank_of_gt([0.5] * 100, 99) == 100


def test_rank_hand_sorted():
    assert rank_of_gt([0.1, 0.9, 0.5], 2) == 2


def test_rank_index_error():
    with pytest.raises(IndexError):
        rank_of_gt([0.1, 0.2], 2)


# ---------------------------------------------------------------------------
# aggregates

def test_mrr_values():
    assert mrr([1, 1, 1]) == 1.0
    assert mrr([2, 4]) == 0.375


def test_recall_boundary_inclusive():
    assert recall_at_k([5], 5) == 1.0
    assert recall_at_k([1, 6, 11], 5) == pytest.approx(1 / 3)
    assert recall_at_k([3, 7], 100) == 1.0


def test_mean_rank_values():
    assert mean_rank([1, 1, 1]) == 1.0
    assert mean_rank([1, 3]) == 2.0
    assert mean_rank([7]) == 7.0
    with pytest.raises(ContractError):
        mean_rank([])


# ---------------------------------------------------------------------------
# ndcg

def test_ndcg_ideal_order_is_one():
    assert ndcg([[0.9, 0.5, 0.1]], [[1.0, 0.5, 0.0]]) == pytest.approx([1.0])


def test_ndcg_two_item_hand_value():
    (val,) = ndcg([[0.1, 0.9]], [[1.0, 0.0]])  # 0-relevance candidate ranked first
    assert val == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)
    assert abs(val - 0.6309) < 1e-4


def test_ndcg_all_zero_relevance_errors():
    with pytest.raises(ContractError):
        ndcg([[1.0, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 0.0]])


def test_rowwise_metrics_take_rows_only():
    with pytest.raises(ContractError):
        ndcg([0.9, 0.5], [1.0, 0.0])
    with pytest.raises(ContractError):
        ndcg([[0.9, 0.5]], [[1.0, 0.0, 0.0]])
    with pytest.raises(ContractError):
        distribution_entropy([0.5, 0.5])


def test_metrics_match_oracles_on_200_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        scores = rng.normal(size=n)
        if rng.random() < 0.3:  # force ties sometimes
            scores = np.round(scores, 1)
        relevance = rng.random(n)
        relevance[int(rng.integers(n))] = 1.0
        gt = int(np.argmax(relevance))
        r_impl = rank_of_gt(scores, gt)
        assert r_impl == oracle_rank(list(scores), gt)
        (val,) = ndcg(scores[None], relevance[None])
        assert abs(val - oracle_ndcg(list(scores), list(relevance))) < 1e-9
    ranks = [oracle_rank(list(np.random.default_rng(s).normal(size=10)), 3) for s in range(40)]
    assert abs(mrr(ranks) - oracle_mrr(ranks)) < 1e-9
    for k in (1, 5, 10):
        assert abs(recall_at_k(ranks, k) - oracle_recall(ranks, k)) < 1e-9
    assert abs(mean_rank(ranks) - oracle_mean_rank(ranks)) < 1e-9


def test_recall_monotonicity_random_runs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        ranks = list(rng.integers(1, 30, size=20))
        r1, r5, r10 = (recall_at_k(ranks, k) for k in (1, 5, 10))
        assert r1 <= r5 <= r10
        assert mrr(ranks) >= r1


# ---------------------------------------------------------------------------
# grounding accuracy

def test_grounding_one_hot_correct():
    one_hot = [[0.0, 1.0, 0.0]] * 2
    assert top_k_hits(one_hot, [[1], [2]], 1).tolist() == [True, False]


def test_grounding_uniform_expected_three_eighths():
    """Uniform prior over 8 regions, top-3 by the index tie rule, gt cycling
    over every index: exactly 3 of the 8 hit."""
    uniform = np.full((8, 8), 1.0 / 8)
    assert top_k_hits(uniform, [[i] for i in range(8)], 3).tolist() == [True] * 3 + [False] * 5


def test_grounding_hits_only_real_regions():
    """An index outside a row's regions, or on a -inf pad, never hits, even
    where the pad ranks among the top k; a None row hits nothing."""
    g = np.array([[0.5, 0.5, -np.inf], [0.2, 0.8, -np.inf], [0.9, 0.1, 0.0], [0.9, 0.1, 0.0]])
    gts = [[2], [-1, 3, 5], None, [-3, 0]]
    for k in (1, 2, 3):
        assert top_k_hits(g, gts, k).tolist() == [False, False, False, True]


def test_grounding_top1_needs_every_unit_annotated():
    ds = generate_synthetic(SyntheticConfig(num_images=2, seed=9))
    cfg = TrainConfig(d_e=8, d_q=8, n_heads=2, d_h=8, seq_len=10, max_history=4)
    params = init_params_for(cfg, np.random.default_rng(0), len(ds.vocab), 16)
    ds.examples[1].rounds[2].gt_grounding = None
    rep = evaluate(params, ds, cfg)
    assert rep.grounding_top1 is None and rep.grounding_top3 is None
    assert "gt_grounding" not in rep.attention[-1]


def test_attention_record_shape():
    g = np.array([0.1, 0.6, 0.2, 0.1])
    rec = attention_record("img1", 2, g, evaluation._descending_order(g)[:3].tolist(),
                           G=np.array([0.0, 1.0, 0.0, 0.0]), gt_grounding=[1])
    assert rec["top3_prior"] == [1, 2, 0]
    assert rec["gt_grounding"] == [1]
    assert len(rec["prior"]) == 4 and len(rec["posterior"]) == 4


# ---------------------------------------------------------------------------
# entropy

def test_entropy_one_hot_zero():
    assert distribution_entropy([[0.0, 1.0, 0.0]]).tolist() == [0.0]


def test_entropy_uniform_log_mu():
    assert distribution_entropy([[0.25] * 4]) == pytest.approx([math.log(4.0)])


def test_entropy_hand_value():
    (val,) = distribution_entropy([[0.5, 0.25, 0.25]])
    assert val == pytest.approx(1.5 * math.log(2.0), abs=1e-12)
    assert abs(val - 1.0397) < 1e-4


def test_entropy_invalid():
    for dist in ([0.5, 0.2], [float("nan"), 1.0], [0.5, 0.5, float("nan")], [math.inf, 0.0]):
        with pytest.raises(InvalidDistributionError):
            distribution_entropy([dist])


# ---------------------------------------------------------------------------
# the row-wise helpers on ragged batches

TIED = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats(-5, 5))


@st.composite
def ragged_units(draw):
    """One dict per unit: scores (tied often), relevance with a positive
    entry, region weights with zeros and ties, and gt_grounding indices that
    may fall outside the unit's regions."""
    units = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 12))
        mu = draw(st.integers(1, 12))
        relevance = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.0]), min_size=n, max_size=n))
        relevance[draw(st.integers(0, n - 1))] = 1.0
        counts = draw(st.lists(st.integers(0, 3), min_size=mu, max_size=mu))
        counts[draw(st.integers(0, mu - 1))] += 1
        units.append(dict(
            scores=draw(st.lists(TIED, min_size=n, max_size=n)),
            relevance=relevance,
            weights=[c / sum(counts) for c in counts],
            gt_grounding=draw(st.one_of(st.none(),
                                        st.lists(st.integers(-2, mu + 2), max_size=3))),
        ))
    return units


def padded(rows, fill):
    out = np.full((len(rows), max(map(len, rows))), fill)
    for b, row in enumerate(rows):
        out[b, :len(row)] = row
    return out


def assert_rowwise(f, rows, per_unit_rows, is_padded):
    """f of a padded batch, row by row: bit for bit f of that padded row given
    alone as a one-row batch, and f of the unit's own row alone, bit for bit
    or within 1e-12 where padding changed the summation order."""
    got = f(*rows)
    assert got.tolist() == [f(*(r[b:b + 1] for r in rows))[0] for b in range(len(got))]
    per_unit = [f(*([r] for r in unit))[0] for unit in zip(*per_unit_rows)]
    if is_padded:
        assert np.allclose(got, per_unit, rtol=0, atol=1e-12)
    else:
        assert got.tolist() == per_unit
    return got


@settings(max_examples=200, deadline=None)
@given(ragged_units())
def test_rowwise_helpers_match_the_per_unit_oracles(units):
    scores = [u["scores"] for u in units]
    weights = [u["weights"] for u in units]
    gts = [u["gt_grounding"] for u in units]
    scores_padded = any(len(s) != len(scores[0]) for s in scores)
    weights_padded = any(len(w) != len(weights[0]) for w in weights)

    relevance = [u["relevance"] for u in units]
    got = assert_rowwise(ndcg, (padded(scores, -np.inf), padded(relevance, 0.0)),
                         (scores, relevance), scores_padded)
    assert np.allclose(got, [oracle_ndcg(u["scores"], u["relevance"]) for u in units],
                       rtol=0, atol=1e-12)

    got = assert_rowwise(distribution_entropy, (padded(weights, 0.0),), (weights,),
                         weights_padded)
    assert np.allclose(got, [oracle_entropy(w) for w in weights], rtol=0, atol=1e-12)

    g = padded(weights, -np.inf)
    for k in (1, 3):
        want = [oracle_hit(w, gt, k) for w, gt in zip(weights, gts)]
        assert top_k_hits(g, gts, k).tolist() == want
        assert [top_k_hits([w], [gt], k)[0] for w, gt in zip(weights, gts)] == want
    order = evaluation._descending_order(g)
    for b, w in enumerate(weights):
        assert order[b, :min(3, len(w))].tolist() == oracle_top(w, 3)


# ---------------------------------------------------------------------------
# end-to-end evaluation plumbing

@pytest.fixture(scope="module")
def tiny_setup():
    ds = generate_synthetic(SyntheticConfig(num_images=3, seed=9))
    cfg = TrainConfig(d_e=8, d_q=8, n_heads=2, d_h=8, seq_len=10, max_history=4)
    params = init_params_for(cfg, np.random.default_rng(0), len(ds.vocab),
                             ds.examples[0].region_features.shape[1])
    return ds, params, cfg


def test_evaluate_report_fields(tiny_setup):
    ds, params, cfg = tiny_setup
    rep = evaluate(params, ds, cfg, decoder="generative")
    assert 0 < rep.mrr <= 1
    assert rep.r_at_1 <= rep.r_at_5 <= rep.r_at_10
    assert 1 <= rep.mean_rank <= 10
    assert rep.ndcg is not None and 0 <= rep.ndcg <= 1
    assert rep.grounding_top1 is not None
    assert rep.entropy_prior is not None
    assert rep.n_units == 9
    assert rep.entropy_posterior is None


def test_evaluate_decoder_follows_loss_mode(tiny_setup):
    ds, params, cfg = tiny_setup
    for mode, decoder in [("generative", "generative"), ("multitask", "generative"),
                          ("discriminative", "discriminative")]:
        run = dataclasses.replace(cfg, loss_mode=mode)
        assert same_report(evaluate(params, ds, run), evaluate(params, ds, cfg, decoder=decoder))


def test_evaluate_posterior_diagnostics(tiny_setup):
    ds, params, cfg = tiny_setup
    rep = evaluate(params, ds, cfg, with_posterior=True)
    assert rep.entropy_posterior is not None
    assert all("posterior" in rec for rec in rep.attention)
    assert rep.entropy_posterior == pytest.approx(
        np.mean(distribution_entropy([rec["posterior"] for rec in rep.attention])))
    ranking = {k: v for k, v in rep.to_dict().items()
               if k not in ("entropy_posterior", "posterior_top1")}
    assert ranking == evaluate(params, ds, cfg).to_dict()


def test_ablate_mean_mode_is_uniform(tiny_setup):
    ds, params, cfg = tiny_setup
    rep = evaluate(params, ds, cfg, ablate="mean")
    assert isinstance(rep, EvalReport)
    mu = ds.examples[0].region_features.shape[0]
    assert rep.entropy_prior == pytest.approx(math.log(mu))


def test_ablate_oracle_and_random(tiny_setup):
    ds, params, cfg = tiny_setup
    oracle = evaluate(params, ds, cfg, ablate="oracle")
    assert oracle.grounding_top1 == 1.0
    rnd = evaluate(params, ds, cfg, ablate="random", seed=3)
    assert isinstance(rnd.mrr, float)
    with pytest.raises(ValueError):
        evaluate(params, ds, cfg, ablate="nope")


def test_ablate_unknown_mode_rejected_before_any_work(tiny_setup, monkeypatch):
    ds, params, cfg = tiny_setup

    def no_work(*args, **kwargs):
        raise AssertionError("evaluate ran the model before checking the ablation mode")

    for name in ("prepare_units", "infer_batch_scores"):
        monkeypatch.setattr(evaluation, name, no_work)
    with pytest.raises(ValueError, match="nope"):
        evaluate(params, ds, cfg, ablate="nope")


@pytest.mark.parametrize("with_posterior", [False, True])
@pytest.mark.parametrize("ablate", ABLATION_MODES)
def test_every_ablation_encodes_each_batch_once(ablate, with_posterior, monkeypatch, tmp_path):
    """24 units in batches of 8: one context encoding per batch, the posterior
    included, in evaluate and in `eval --export-attention [--with-answers]`."""
    synthetic = SyntheticConfig(num_images=8, seed=9)
    ds = generate_synthetic(synthetic)
    monkeypatch.setattr(evaluation, "EVAL_BATCH_UNITS", 8)
    cfg = TrainConfig(d_e=8, d_q=8, n_heads=2, d_h=8, seq_len=10, max_history=4)
    params = init_params_for(cfg, np.random.default_rng(0), len(ds.vocab), 16)
    calls = []
    real = model.encode_context

    def counting(params, batch):
        calls.append(len(batch.units))
        return real(params, batch)

    monkeypatch.setattr(model, "encode_context", counting)
    evaluate(params, ds, cfg, ablate=ablate, seed=3, with_posterior=with_posterior)
    assert calls == [8, 8, 8]

    raw, features = generate_synthetic_raw(synthetic)
    (tmp_path / "dataset.json").write_text(dump_dataset_json(raw))
    write_features(tmp_path / "features.bin", features)
    save_checkpoint(tmp_path / "best", named_parameters(params), cfg, ds.vocab.id_to_token, 0)
    exported = tmp_path / "attention.jsonl"
    calls.clear()
    assert main(["eval", "--ckpt", str(tmp_path / "best"), "--data", str(tmp_path / "dataset.json"),
                 "--report", str(tmp_path / "report.json"), "--export-attention", str(exported),
                 *(["--ablate", ablate] if ablate != "learned" else []),
                 *(["--with-answers"] if with_posterior else [])]) == 0
    assert calls == [8, 8, 8]
    records = [json.loads(line) for line in exported.read_text().splitlines()]
    assert len(records) == 24
    assert all(("posterior" in rec) == with_posterior for rec in records)


def test_ablate_deterministic(tiny_setup):
    ds, params, cfg = tiny_setup
    a = evaluate(params, ds, cfg, ablate="random", seed=5)
    b = evaluate(params, ds, cfg, ablate="random", seed=5)
    assert a.to_dict() == b.to_dict()


def prior_weights(params, batch):
    return infer_batch_scores(params, batch, decoder="generative")[1]


def random_overrides(monkeypatch, params, ds, cfg, seed):
    """(batch, distributions pooled with) of every batch that
    evaluate(ablate="random") ranks."""
    seen = []

    def recording(params, batch, *, decoder, with_posterior, g_override):
        def record(learned):
            seen.append((batch, g_override(learned)))
            return seen[-1][1]
        return infer_batch_scores(params, batch, decoder=decoder,
                                  with_posterior=with_posterior, g_override=record)

    monkeypatch.setattr(evaluation, "infer_batch_scores", recording)
    evaluate(params, ds, cfg, ablate="random", seed=seed)
    return seen


def test_ablate_random_with_one_region_count_permutes_each_batch(tiny_setup, monkeypatch):
    ds, params, cfg = tiny_setup
    monkeypatch.setattr(evaluation, "EVAL_BATCH_UNITS", 4)
    seen = random_overrides(monkeypatch, params, ds, cfg, seed=7)
    assert [len(batch) for batch, _ in seen] == [4, 4, 1]
    rng = np.random.default_rng(7)
    for batch, override in seen:
        learned = prior_weights(params, batch)
        want = [learned[int(k)] for k in rng.permutation(len(batch))]
        assert all(np.array_equal(w, v) for w, v in zip(override, want))


def test_ablate_random_shuffles_among_units_with_the_same_region_count(monkeypatch):
    ds = generate_synthetic(SyntheticConfig(num_images=4, seed=9))
    for ex in ds.examples[1::2]:
        ex.region_features = ex.region_features[:6]
    monkeypatch.setattr(evaluation, "EVAL_BATCH_UNITS", 5)
    cfg = TrainConfig(d_e=8, d_q=8, n_heads=2, d_h=8, seq_len=10, max_history=4)
    params = init_params_for(cfg, np.random.default_rng(0), len(ds.vocab), 16)
    params.grounding.w2.data = np.random.default_rng(1).uniform(-1, 1, size=(cfg.d_h, 1))
    seen = random_overrides(monkeypatch, params, ds, cfg, seed=3)
    assert [{u.features.shape[0] for u in batch} for batch, _ in seen] == [{6, 8}, {6, 8}, {6}]
    moved = 0
    for batch, override in seen:
        learned = prior_weights(params, batch)
        for mu in {u.features.shape[0] for u in batch}:
            same = [b for b, u in enumerate(batch) if u.features.shape[0] == mu]
            got = sorted(tuple(override[b]) for b in same)
            assert got == sorted(tuple(learned[b]) for b in same)
            moved += sum(not np.array_equal(override[b], learned[b]) for b in same)
    assert moved > 0


def test_evaluate_keeps_attention_records(tiny_setup):
    ds, params, cfg = tiny_setup
    rep = evaluate(params, ds, cfg)
    recs = rep.attention
    assert len(recs) == 9
    assert {"image_id", "round", "prior", "top3_prior", "gt_grounding"} <= set(recs[0])
    assert "posterior" not in recs[0]
    assert "attention" not in rep.to_dict()
    assert "posterior" in evaluate(params, ds, cfg, with_posterior=True).attention[0]


def mixed_regions_setup(num_images, synthetic=None):
    """Images of mixed region counts (every third one cut to 6 regions or
    to its last ground-truth one), a small model and a prior that is not
    uniform."""
    ds = generate_synthetic(SyntheticConfig(num_images=num_images, seed=9, **(synthetic or {})))
    for ex in ds.examples[1::3]:
        mu = max(6, 1 + max(i for r in ex.rounds for i in r.gt_grounding))
        ex.region_features = ex.region_features[:mu]
    cfg = TrainConfig(d_e=8, d_q=8, n_heads=2, d_h=8, seq_len=10, max_history=4)
    params = init_params_for(cfg, np.random.default_rng(0), len(ds.vocab),
                             ds.examples[0].region_features.shape[1])
    params.grounding.w2.data = np.random.default_rng(1).uniform(-1, 1, size=(cfg.d_h, 1))
    return ds, params, cfg


@pytest.mark.parametrize("size", [5, 64])
@pytest.mark.parametrize("with_posterior", [False, True])
@pytest.mark.parametrize("decoder", ["generative", "discriminative"])
def test_report_records_are_each_batchs_attention_records(monkeypatch, decoder, with_posterior,
                                                          size):
    """`report.attention` is, dict for dict and in JSON, attention_record of
    each unit's row of its batch's infer_batch_scores outputs, with the top-3
    regions of the brute-force oracle; on images of mixed region counts and
    with one unit lacking gt_grounding. A report of evaluate(units=None)
    keeps none of the units it prepared, and two reports' metrics and
    records differ exactly when a metric or a region weight does, not
    where only the padding past a unit's regions does."""
    ds, params, cfg = mixed_regions_setup(12)
    units = prepare_units(ds, cfg.seq_len, cfg.max_history)
    units[7] = dataclasses.replace(units[7], gt_grounding=None)
    monkeypatch.setattr(evaluation, "EVAL_BATCH_UNITS", size)
    rep = evaluate(params, ds, cfg, decoder=decoder, with_posterior=with_posterior, units=units)
    want = []
    for k in range(0, len(units), size):
        batch = units[k:k + size]
        _, g, G = infer_batch_scores(params, batch, decoder=decoder,
                                     with_posterior=with_posterior)
        for b, u in enumerate(batch):
            mu = u.features.shape[0]
            want.append(attention_record(u.image_id, u.round_index, g[b, :mu],
                                         oracle_top(g[b, :mu].tolist(), 3),
                                         G=None if G is None else G[b, :mu],
                                         gt_grounding=u.gt_grounding))
    assert len({len(rec["prior"]) for rec in want}) > 1
    assert rep.attention == want
    assert json.dumps(rep.attention) == json.dumps(want)
    assert "gt_grounding" not in rep.attention[7]

    prepared = []
    real_prepare = evaluation.prepare_units

    def recording(*args):
        out = real_prepare(*args)
        prepared.extend(weakref.ref(u) for u in out)
        return out

    monkeypatch.setattr(evaluation, "prepare_units", recording)
    own = evaluate(params, ds, cfg, decoder=decoder, with_posterior=with_posterior)
    gc.collect()
    assert prepared and all(ref() is None for ref in prepared)
    assert own.n_units == len(units)

    def with_batches(report, edit):
        batches = [dataclasses.replace(batch, prior=batch.prior.copy())
                   for batch in report.record_batches]
        edit(batches)
        return dataclasses.replace(report, record_batches=batches)

    batch = next(b for b in rep.record_batches if min(b.mus) < b.prior.shape[1])
    k, row = rep.record_batches.index(batch), batch.mus.index(min(batch.mus))

    def padding(batches):
        batches[k].prior[row, -1] = 0.5

    def region(batches):
        batches[k].prior[row, 0] += 1e-9

    assert same_report(rep, evaluate(params, ds, cfg, decoder=decoder,
                                     with_posterior=with_posterior, units=units))
    assert same_report(with_batches(rep, padding), rep)
    assert not same_report(with_batches(rep, region), rep)
    assert not same_report(dataclasses.replace(rep, mrr=rep.mrr / 2), rep)
    assert not same_report(rep, dataclasses.replace(rep, record_batches=rep.record_batches[:-1]))


@pytest.mark.parametrize("with_posterior", [False, True])
@pytest.mark.parametrize("synthetic", [{}, dict(rounds=10, mu=12, num_colors=12, num_shapes=12,
                                                d_v=24)], ids=["default", "long_history"])
def test_report_keeps_a_third_of_its_records_bytes(synthetic, with_posterior):
    """Over 600 units, the traced bytes a report keeps alive are at most a
    third of those of its records built as dicts."""
    ds, params, cfg = mixed_regions_setup(600 // synthetic.get("rounds", 3), synthetic)
    units = prepare_units(ds, cfg.seq_len, cfg.max_history)
    assert len(units) == 600
    evaluate(params, ds, cfg, with_posterior=with_posterior, units=units)   # warm the workspace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = evaluate(params, ds, cfg, with_posterior=with_posterior, units=units)
        kept = tracemalloc.get_traced_memory()[0] - base
        records = rep.attention
        built = tracemalloc.get_traced_memory()[0] - base - kept
    finally:
        tracemalloc.stop()
    assert len(records) == 600
    assert kept <= built / 3, (kept, built)


@pytest.mark.parametrize("ablate", ABLATION_MODES)
def test_grounding_hits_match_the_records(tiny_setup, ablate):
    """The top-1 and top-3 accuracies count the same hits as the exported
    records' top-3 regions."""
    ds, params, cfg = tiny_setup
    rep = evaluate(params, ds, cfg, ablate=ablate, seed=2)
    for k, value in ((1, rep.grounding_top1), (3, rep.grounding_top3)):
        want = np.mean([bool(set(rec["top3_prior"][:k]) & set(rec["gt_grounding"]))
                        for rec in rep.attention])
        assert value == want


def test_posterior_top1_counts_the_records_posterior_argmax(monkeypatch):
    """posterior_top1 is the share of records whose posterior argmax, ties
    to the lower region, is a ground-truth region; on images of different
    region counts, with a posterior that is not uniform, in 5-unit batches."""
    ds, params, cfg = mixed_regions_setup(12)
    units = prepare_units(ds, cfg.seq_len, cfg.max_history)
    monkeypatch.setattr(evaluation, "EVAL_BATCH_UNITS", 5)
    for ablate in ABLATION_MODES:
        rep = evaluate(params, ds, cfg, ablate=ablate, seed=2, with_posterior=True,
                       units=units[:29])
        hits = [int(np.argmax(rec["posterior"])) in rec["gt_grounding"] for rec in rep.attention]
        assert rep.posterior_top1 == sum(hits) / len(hits)
        assert rep.to_dict()["posterior_top1"] == rep.posterior_top1
    assert 0 < sum(hits) < len(hits)
    assert len({len(rec["posterior"]) for rec in rep.attention}) > 1
    assert evaluate(params, ds, cfg, units=units[:29]).posterior_top1 is None
    ungrounded = [units[0], dataclasses.replace(units[1], gt_grounding=None)]
    rep = evaluate(params, ds, cfg, with_posterior=True, units=ungrounded)
    assert rep.posterior_top1 is None and rep.entropy_posterior is not None


@pytest.mark.parametrize("decoder", ["generative", "discriminative"])
def test_evaluate_ranks_each_unit_once_on_its_own_scores(monkeypatch, decoder):
    """The benchmark wraps evaluation.rank_of_gt to check every rank: evaluate
    calls it once per unit, in unit order, with the unit's own scores and no
    -inf padding, also in batches whose units have different candidate counts."""
    ds = generate_synthetic(SyntheticConfig(num_images=4, seed=9))
    size = 5
    monkeypatch.setattr(evaluation, "EVAL_BATCH_UNITS", size)
    cfg = TrainConfig(d_e=8, d_q=8, n_heads=2, d_h=8, seq_len=10, max_history=4)
    params = init_params_for(cfg, np.random.default_rng(0), len(ds.vocab), 16)
    units = []
    for k, u in enumerate(prepare_units(ds, cfg.seq_len, cfg.max_history)):
        n = max(u.gt_index + 1, 10 - 3 * (k % 3))
        units.append(dataclasses.replace(u, candidates=u.candidates[:n], relevance=u.relevance[:n]))
    batches = [units[k:k + size] for k in range(0, len(units), size)]
    assert all(len({len(u.candidates) for u in batch}) > 1 for batch in batches)
    calls = []
    real = evaluation.rank_of_gt

    def recording(scores, gt_index):
        calls.append((np.array(scores), gt_index))
        return real(scores, gt_index)

    monkeypatch.setattr(evaluation, "rank_of_gt", recording)
    evaluate(params, ds, cfg, decoder=decoder, units=units)
    assert len(calls) == len(units)
    for k, batch in enumerate(batches):
        scores = infer_batch_scores(params, batch, decoder=decoder)[0]
        for b, u in enumerate(batch):
            got, gt_index = calls[k * size + b]
            assert gt_index == u.gt_index
            assert np.array_equal(got, scores[b, :len(u.candidates)])
            assert np.isfinite(got).all()


@pytest.mark.parametrize("with_posterior", [False, True])
@pytest.mark.parametrize("ablate", ["learned", "mean", "oracle"])
@pytest.mark.parametrize("decoder", ["generative", "discriminative"])
def test_evaluation_does_not_depend_on_its_batch(monkeypatch, decoder, ablate, with_posterior):
    """The report and every attention record are byte-identical whether the
    units run 8 at a time, EVAL_BATCH_UNITS at a time or all at once, with
    region and candidate counts that differ within each batch and a prior
    that is not uniform."""
    ds, params, cfg = mixed_regions_setup(30)
    units = []
    for k, u in enumerate(prepare_units(ds, cfg.seq_len, cfg.max_history)):
        n = max(u.gt_index + 1, 10 - 3 * (k % 4))
        units.append(dataclasses.replace(u, candidates=u.candidates[:n], relevance=u.relevance[:n]))
    assert len(units) > evaluation.EVAL_BATCH_UNITS

    def run(size):
        monkeypatch.setattr(evaluation, "EVAL_BATCH_UNITS", size)
        rep = evaluate(params, ds, cfg, decoder=decoder, ablate=ablate,
                       with_posterior=with_posterior, units=units)
        return json.dumps(rep.to_dict()), json.dumps(rep.attention)

    want = run(evaluation.EVAL_BATCH_UNITS)
    assert run(8) == want
    assert run(len(units)) == want



@pytest.mark.parametrize("d_q", [8, 64])
@pytest.mark.parametrize("decoder", ["generative", "discriminative"])
def test_batches_of_a_few_units_evaluate_as_64_unit_passes(monkeypatch, decoder, d_q):
    """Evaluation batches of 1, 2, 3 and 5 units give the report and every
    attention record, posteriors included, byte for byte as 64-unit passes.
    A small batch may hold one question, history sentence or decoder state,
    a one-row product, which BLAS would round apart from the same row of a
    larger product; the package forms it on two copies of its row (the
    one-row rule in `autodiff`). Every image has the same region count
    here: a batch whose images all have fewer regions than the widest one
    still rounds its attention records otherwise."""
    ds = generate_synthetic(SyntheticConfig(num_images=30, seed=9))
    cfg = TrainConfig(d_e=8, d_q=d_q, n_heads=2, d_h=8, seq_len=10, max_history=4)
    params = init_params_for(cfg, np.random.default_rng(0), len(ds.vocab), 16)
    params.grounding.w2.data = np.random.default_rng(1).uniform(-1, 1, size=(cfg.d_h, 1))

    def run(size):
        monkeypatch.setattr(evaluation, "EVAL_BATCH_UNITS", size)
        rep = evaluate(params, ds, cfg, decoder=decoder, with_posterior=True)
        return json.dumps(rep.to_dict()), json.dumps(rep.attention)

    want = run(64)
    for size in (1, 2, 3, 5):
        assert run(size) == want, f"batches of {size} units"

PREFIX_OPTIONS = ["yes", "yes it is", "no", "no it is not", "", "it is", "yes it is not",
                  "no it is"]


def prefix_dataset():
    """Hand-built dialogs whose answer options share prefixes beyond BOS
    ("yes", "yes it is", "yes it is not"; "no", "no it is", "no it is not")
    and include an option that tokenizes to nothing; each round has 4 to 8
    of them in a rotated order, each image 6 to 8 regions."""
    dialogs = []
    for i in range(12):
        rounds = []
        for j in range(3):
            k = 3 * i + j
            opts = (PREFIX_OPTIONS[k % 8:] + PREFIX_OPTIONS[:k % 8])[:4 + k % 5]
            gt = next(n for n, o in enumerate(opts) if o and n >= k % 3)
            rounds.append({"question": f"is the {['red', 'blue', 'big'][j]} one left ?",
                           "answer": opts[gt], "answer_options": opts, "gt_index": gt,
                           "gt_grounding": [k % 6]})
        dialogs.append({"image_id": f"p{i}", "caption": "objects on a table", "rounds": rounds})
    g = np.random.default_rng(4)
    features = {d["image_id"]: g.normal(size=(6 + i % 3, 16)) for i, d in enumerate(dialogs)}
    return dataset_from_dict({"dialogs": dialogs}, features)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 64])
@pytest.mark.parametrize("data", ["synthetic", "prefixes"])
def test_generative_ranking_is_the_per_column_oracle(monkeypatch, data, size):
    """Evaluation batches of 1, 2, 3, 5 and 64 units: generative ranking
    over shared decoder states gives every batch's scores, the report and
    every attention record byte for byte as ranking each candidate as its
    own sequence (`reference_model.generative_rank_per_column`), on
    single-word synthetic candidates and on candidates sharing deeper
    prefixes, an empty one included."""
    ds = prefix_dataset() if data == "prefixes" else generate_synthetic(
        SyntheticConfig(num_images=30, seed=9))
    cfg = TrainConfig(d_e=8, d_q=16, n_heads=2, d_h=8, seq_len=10, max_history=4)
    params = init_params_for(cfg, np.random.default_rng(0), len(ds.vocab), 16)
    params.grounding.w2.data = np.random.default_rng(1).uniform(-1, 1, size=(cfg.d_h, 1))
    units = prepare_units(ds, cfg.seq_len, cfg.max_history)
    if data == "prefixes":
        assert any(c == [] for u in units for c in u.candidates)
        assert any(len({tuple(c[:2]) for c in u.candidates if len(c) > 2})
                   < sum(len(c) > 2 for c in u.candidates) for u in units)
    monkeypatch.setattr(evaluation, "EVAL_BATCH_UNITS", size)
    shared = model.generative_rank

    def run(rank):
        scores = []

        def recording(*args):
            scores.append(rank(*args))
            return scores[-1]

        monkeypatch.setattr(model, "generative_rank", recording)
        rep = evaluate(params, ds, cfg, decoder="generative", with_posterior=True, units=units)
        return json.dumps(rep.to_dict()), json.dumps(rep.attention), [s.tobytes() for s in scores]

    got = run(shared)
    assert len(got[2]) == math.ceil(len(units) / size)
    assert got == run(generative_rank_per_column)
