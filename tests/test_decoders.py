import math

import numpy as np
import pytest

from grounddial import autodiff as ad
from grounddial.autodiff import ContractError, DegenerateSliceError, Tensor
from grounddial.data import BOS_ID, EOS_ID
from grounddial.decoders import (
    discriminative_loss_and_rank,
    discriminative_scores,
    fuse_for_decoder,
    generative_loss,
    generative_rank,
    init_decoder_params,
)
from gradcheck import grad_check
from reference_model import generative_rank_per_column

D_Q = 8
D_E = 8
VOCAB = 12


@pytest.fixture
def params():
    return init_decoder_params(np.random.default_rng(0), VOCAB, d_e=D_E, d_q=D_Q)


@pytest.fixture
def embedding():
    return Tensor(np.random.default_rng(1).uniform(-0.5, 0.5, size=(VOCAB, D_E)),
                  requires_grad=True)


def rng():
    return np.random.default_rng(2)


# ---------------------------------------------------------------------------
# fusion

def test_fuse_shape(params):
    g = rng()
    x = Tensor(g.normal(size=(1, 4, D_Q)))
    v = Tensor(g.normal(size=(1, D_Q)))
    out = fuse_for_decoder(x, [[True, True, True, False]], v, params)
    assert out.shape == (1, D_Q)


def test_fuse_block_structure(params):
    """Zero weights on the visual half make the output context-only."""
    g = rng()
    params.fuse_w.data[D_Q:, :] = 0.0
    x = Tensor(g.normal(size=(1, 3, D_Q)))
    a = fuse_for_decoder(x, [[True, True, True]], Tensor(np.zeros((1, D_Q))), params)
    b = fuse_for_decoder(x, [[True, True, True]], Tensor(g.normal(size=(1, D_Q))), params)
    assert np.allclose(a.data, b.data, atol=1e-12)


def test_fuse_sensitive_to_visual_feature(params):
    g = rng()
    x = Tensor(g.normal(size=(1, 3, D_Q)))
    mask = [[True, True, True]]
    v1 = Tensor(g.normal(size=(1, D_Q)))
    v2 = Tensor(v1.data + g.normal(size=(1, D_Q)))
    a = fuse_for_decoder(x, mask, v1, params)
    b = fuse_for_decoder(x, mask, v2, params)
    assert not np.allclose(a.data, b.data)
    same = fuse_for_decoder(x, mask, Tensor(v1.data.copy()), params)
    assert np.allclose(a.data, same.data)


def test_fuse_all_masked_raises(params):
    with pytest.raises(DegenerateSliceError):
        fuse_for_decoder(Tensor(np.zeros((1, 2, D_Q))), [[False, False]],
                         Tensor(np.zeros((1, D_Q))), params)


# ---------------------------------------------------------------------------
# generative decoder

def test_generative_uniform_head_gives_log_vocab(params, embedding):
    params.out_w.data[:] = 0.0
    params.out_b.data[:] = 0.0
    fused = Tensor(rng().normal(size=(1, D_Q)))
    loss = generative_loss(fused, [[5, EOS_ID]], embedding, params)
    assert abs(loss.item() - math.log(VOCAB)) < 1e-12


def test_generative_loss_permutation_sensitive(params, embedding):
    fused = Tensor(rng().normal(size=(1, D_Q)))
    a = generative_loss(fused, [[4, 5, 6, EOS_ID]], embedding, params).item()
    b = generative_loss(fused, [[6, 5, 4, EOS_ID]], embedding, params).item()
    assert a != b


def test_generative_single_token_normalization(params, embedding):
    """'yes EOS' is two positions; the loss is their mean."""
    fused = Tensor(rng().normal(size=(1, D_Q)))
    from grounddial.decoders import _teacher_forced_position_losses
    losses = _teacher_forced_position_losses(fused, [[7, EOS_ID]], embedding, params)
    assert losses.shape == (2,)
    total = sum(losses.data)
    mean = generative_loss(fused, [[7, EOS_ID]], embedding, params).item()
    assert abs(mean - total / 2) < 1e-12


def test_generative_requires_eos_and_nonempty(params, embedding):
    fused = Tensor(rng().normal(size=(1, D_Q)))
    with pytest.raises(ContractError):
        generative_loss(fused, [[]], embedding, params)
    with pytest.raises(ContractError):
        generative_loss(fused, [[4, 5]], embedding, params)


def test_generative_rank_single_candidate(params, embedding):
    fused = Tensor(rng().normal(size=(1, D_Q)))
    scores = generative_rank(fused, [[[4]]], embedding, params)
    assert len(scores) == 1 and scores[0].shape == (1,)


def test_generative_rank_duplicate_candidates_tie(params, embedding):
    fused = Tensor(rng().normal(size=(1, D_Q)))
    scores = generative_rank(fused, [[[4, 5], [4, 5], [6]]], embedding, params)[0]
    assert scores[0] == scores[1]
    from grounddial.evaluation import rank_of_gt
    assert rank_of_gt(scores, 0) == 1
    assert rank_of_gt(scores, 1) == 2


def test_generative_rank_negates_loss_exactly(params, embedding):
    """A candidate is scored on its tokens and then EOS."""
    fused = Tensor(rng().normal(size=(1, D_Q)))
    loss = generative_loss(fused, [[4, 9, EOS_ID]], embedding, params).item()
    score = generative_rank(fused, [[[4, 9]]], embedding, params)[0][0]
    assert score == -loss


RANKED = {
    "one candidate": [[[4]]],
    "one unit, BOS shared": [[[4], [5, 6], [7], [4, 6]]],
    "one unit, empty candidates": [[[], []]],
    "one unit, one state per step": [[[4, 5], [4, 5], [4, 5, EOS_ID]]],
    "deep prefixes": [[[4, 5, 6], [4, 5], [4, 5, 6, 7], [], [4, 5, 6, EOS_ID]],
                      [[4, 5, 6], [4], [8, 9, 10, 11]], [[EOS_ID], [5]]],
    "ragged units": [[[4]], [[5, 6], [6, 5], [7]], [[8], [8], [9, 4]], [[10, 11, 4]]],
}


@pytest.mark.parametrize("d", [8, 64])
@pytest.mark.parametrize("case", RANKED)
def test_generative_rank_is_the_per_column_oracle_bit_for_bit(case, d):
    """Units whose candidates share states at every depth, one state per
    step, a single state in all (two empty candidates), candidates that hold
    the EOS id as an ordinary token: the scores are byte-equal to ranking
    each candidate as its own sequence from a copy of its unit's state, for
    24 draws of the units' states."""
    candidates = RANKED[case]
    vocab = 29                       # wide enough that BLAS rounds a one-row output layer otherwise
    params = init_decoder_params(np.random.default_rng(5), vocab, d_e=D_E, d_q=d)
    embedding = Tensor(np.random.default_rng(6).normal(size=(vocab, D_E)))
    g = np.random.default_rng(7)
    for _ in range(24):              # a one-ulp change in a logit moves few scores
        fused = Tensor(g.normal(size=(len(candidates), d)))
        got = generative_rank(fused, candidates, embedding, params)
        want = generative_rank_per_column(fused, candidates, embedding, params)
        assert got.tobytes() == want.tobytes()


def test_generative_rank_rejects_bad_candidates(params, embedding):
    fused = Tensor(rng().normal(size=(2, D_Q)))
    with pytest.raises(ContractError):
        generative_rank(fused, [[[4]], []], embedding, params)
    with pytest.raises(IndexError):
        generative_rank(fused, [[[4]], [[VOCAB]]], embedding, params)


# ---------------------------------------------------------------------------
# discriminative decoder

def test_discriminative_symmetric_candidates_uniform(params, embedding):
    """Identical candidates score identically, so the loss is ln N."""
    fused = Tensor(rng().normal(size=(1, D_Q)))
    L, scores = discriminative_loss_and_rank(fused, [[[4, 5], [4, 5]]], [0], embedding, params)
    assert abs(scores.data[0, 0] - scores.data[0, 1]) < 1e-12
    assert abs(L.item() - math.log(2.0)) < 1e-12


def test_discriminative_permutation_equivariance(params, embedding):
    fused = Tensor(rng().normal(size=(1, D_Q)))
    cands = [[4], [5, 6], [7], [8, 9]]
    L1, s1 = discriminative_loss_and_rank(fused, [cands], [2], embedding, params)
    perm = [3, 2, 0, 1]
    cands_p = [cands[i] for i in perm]
    L2, s2 = discriminative_loss_and_rank(fused, [cands_p], [1], embedding, params)
    assert np.allclose(s2.data[0], s1.data[0][perm], atol=1e-12)
    assert abs(L1.item() - L2.item()) < 1e-12


def test_discriminative_hand_softmax(params, embedding):
    fused = Tensor(rng().normal(size=(1, D_Q)))
    cands = [[4], [5], [6]]
    L, scores = discriminative_loss_and_rank(fused, [cands], [1], embedding, params)
    z = scores.data[0]
    expect = -math.log(math.exp(z[1] - z.max()) / np.exp(z - z.max()).sum()) + 0.0
    assert abs(L.item() - expect) < 1e-10


def test_discriminative_empty_candidate_is_zero_row_in_mixed_batch(params, embedding):
    """An empty candidate encodes to a zero row, so its bilinear score is exactly 0."""
    params.cand.proj_b.data[:] = 0.5  # an empty candidate must not pick up the bias
    fused = Tensor(rng().normal(size=(1, D_Q)))
    cands = [[4], [], [5, 6]]
    scores = discriminative_scores(fused, [cands], embedding, params).data[0]
    assert scores[1] == 0.0
    for i in (0, 2):
        solo = discriminative_scores(fused, [[cands[i]]], embedding, params).data[0, 0]
        assert abs(scores[i] - solo) < 1e-12


def test_discriminative_index_error(params, embedding):
    fused = Tensor(rng().normal(size=(1, D_Q)))
    with pytest.raises(IndexError):
        discriminative_loss_and_rank(fused, [[[4]]], [1], embedding, params)


# ---------------------------------------------------------------------------
# batches

def test_batch_losses_and_scores_match_one_unit_at_a_time(params, embedding):
    """Units with different answers and different candidate counts: the batch
    losses are the means of the per-unit ones, and candidate scores past a
    unit's last are -inf."""
    fused = Tensor(np.random.default_rng(3).normal(size=(3, D_Q)))
    answers = [[4, EOS_ID], [5, 6, 7, EOS_ID], [EOS_ID]]
    cands = [[[4], [5, 6]], [[7], [4], [], [8, 9]], [[5, 6], [10]]]
    gts = [1, 3, 0]
    rows = [Tensor(fused.data[b:b + 1]) for b in range(3)]
    L_G = generative_loss(fused, answers, embedding, params).item()
    alone = [generative_loss(rows[b], [answers[b]], embedding, params).item() for b in range(3)]
    assert L_G == pytest.approx(np.mean(alone), rel=1e-12)
    L_D, scores = discriminative_loss_and_rank(fused, cands, gts, embedding, params)
    ranked = generative_rank(fused, cands, embedding, params)
    alone = []
    for b in range(3):
        L1, s1 = discriminative_loss_and_rank(rows[b], [cands[b]], [gts[b]], embedding, params)
        alone.append(L1.item())
        n = len(cands[b])
        assert np.allclose(scores.data[b, :n], s1.data[0], rtol=1e-12, atol=1e-14)
        assert np.all(scores.data[b, n:] == -np.inf)
        assert np.allclose(ranked[b, :n], generative_rank(rows[b], [cands[b]], embedding, params)[0],
                           rtol=1e-12, atol=1e-14)
        assert np.all(ranked[b, n:] == -np.inf)
    assert L_D.item() == pytest.approx(np.mean(alone), rel=1e-12)


# ---------------------------------------------------------------------------
# gradients

def test_decoder_grad_checks(params, embedding):
    g = rng()
    x_arr = g.normal(size=(1, 3, D_Q))
    v_arr = g.normal(size=(1, D_Q))
    mask = [[True, True, True]]

    def f_gen(t):
        fused = fuse_for_decoder(Tensor(x_arr), mask, t, params)
        return generative_loss(fused, [[4, 9, EOS_ID]], embedding, params)

    def f_disc(t):
        fused = fuse_for_decoder(Tensor(x_arr), mask, t, params)
        L, _ = discriminative_loss_and_rank(fused, [[[4], [5, 6], [7]]], [1], embedding, params)
        return L

    assert grad_check(f_gen, Tensor(v_arr.copy())) < 1e-6
    assert grad_check(f_disc, Tensor(v_arr.copy())) < 1e-6

    def f_w(t):
        params.out_w = t
        fused = fuse_for_decoder(Tensor(x_arr), mask, Tensor(v_arr), params)
        return generative_loss(fused, [[4, EOS_ID]], embedding, params)

    w = params.out_w
    assert grad_check(f_w, w, coords=range(0, w.size, 7)) < 1e-6


def test_ragged_batch_decoder_grad_checks(params, embedding):
    """Gradients through a batch whose units have different candidate counts
    (the -inf padding) and answer lengths."""
    cands = [[[4], [5, 6], [7]], [[8]], [[9, 4], [6]]]
    answers = [[4, 9, EOS_ID], [EOS_ID], [5, EOS_ID]]

    def f(t):
        L_D, _ = discriminative_loss_and_rank(t, cands, [2, 0, 1], embedding, params)
        return ad.add(L_D, generative_loss(t, answers, embedding, params))

    assert grad_check(f, Tensor(rng().normal(size=(3, D_Q)))) < 1e-6
