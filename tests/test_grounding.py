import math

import numpy as np
import pytest

from grounddial.autodiff import (
    DegenerateSliceError,
    DimensionError,
    Tape,
    Tensor,
    backward,
    mul,
    sum_all,
)
from grounddial.grounding import (
    bridge_loss,
    cross_attend,
    gather_regions,
    init_grounding_params,
    pool,
    posterior_ground,
    prior_ground,
    region_weights,
)
from gradcheck import grad_check

D_Q = 6


@pytest.fixture
def params():
    p = init_grounding_params(np.random.default_rng(0), d_q=D_Q, d_h=D_Q)
    # score weights are zero-initialized (uniform start); give them structure
    # so prior/posterior differences are visible to these tests
    p.w2.data = np.random.default_rng(1).uniform(-1.0, 1.0, size=p.w2.shape)
    return p


def rng():
    return np.random.default_rng(1)


def one(arr, requires_grad=False):
    """A batch of one unit: an [n, d] array as a [1, n, d] tensor."""
    return Tensor(np.asarray(arr, dtype=float)[None], requires_grad=requires_grad)


def every(t):
    """The mask of a batch whose rows are all real: [B, n] of an [B, n, d] tensor."""
    return np.ones(t.shape[:2], dtype=bool)


def unit(I, params):
    """The regions of a one-unit batch that reads each row of the [n, d]
    region matrix I once, in order."""
    return gather_regions(I, np.arange(I.shape[0])[None], params)


def dot_product(d):
    """Grounding parameters whose cross-attention logits are the bare I xᵀ."""
    p = init_grounding_params(np.random.default_rng(0), d_q=d, d_h=d)
    p.att_wi.data = math.sqrt(d) * np.eye(d)
    p.att_wx.data = np.eye(d)
    return p


# ---------------------------------------------------------------------------
# cross attention

def test_cross_attend_single_token(params):
    g = rng()
    I = Tensor(g.normal(size=(4, D_Q)))
    x = one(g.normal(size=(1, D_Q)))
    P, I_x = cross_attend(unit(I, params), x, x, [[True]], params)
    assert np.allclose(P.data[0], np.ones((4, 1)))
    assert np.allclose(I_x.data[0], np.repeat(x.data[0], 4, axis=0) + I.data)


def test_cross_attend_zero_regions_uniform_rows(params):
    """Zero logits give each real region a uniform row over the real tokens."""
    g = rng()
    I = Tensor(np.zeros((5, D_Q)))
    x = one(g.normal(size=(4, D_Q)))
    P, _ = cross_attend(unit(I, params), x, x, [[True, True, True, False]], params)
    assert np.array_equal(P.data[0], np.repeat([[1 / 3, 1 / 3, 1 / 3, 0.0]], 5, axis=0))


def test_cross_attend_hand_evaluated_toy():
    # mu=2, lam=2: logits I x^T chosen by hand, values v apart from the queries
    I = Tensor([[1.0, 0.0], [0.0, 1.0]])
    x = one([[math.log(3.0), 0.0], [0.0, math.log(2.0)]])
    v = one([[1.0, 2.0], [3.0, 4.0]])
    # logits = [[ln3, 0], [0, ln2]]
    p = dot_product(2)
    P, I_x = cross_attend(unit(I, p), x, v, [[True, True]], p)
    assert np.allclose(P.data[0, 0], [0.75, 0.25], atol=1e-12)
    assert np.allclose(P.data[0, 1], [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    assert np.allclose(I_x.data[0], P.data[0] @ v.data[0] + I.data)


def test_cross_attend_rows_sum_to_one_and_padding_weighs_zero(params):
    """Every real region's row sums to 1 over the real tokens; padding
    tokens get weight exactly 0 and padding regions zero rows of P and of
    I_x. Each unit reads its regions from the shared rows through its grid,
    one row read by both."""
    g = rng()
    I = g.normal(size=(6, D_Q))
    x = g.normal(size=(2, 5, D_Q))
    mask_x = np.array([[True, True, False, False, False], [True, True, True, True, False]])
    rows_i = np.array([[0, 1, 2, 6], [3, 1, 4, 5]])
    mask_i = rows_i < 6
    P, I_x = cross_attend(gather_regions(Tensor(I), rows_i, params), Tensor(x), Tensor(x),
                          mask_x, params)
    assert P.shape == (2, 4, 5) and I_x.shape == (2, 4, D_Q)
    assert np.array_equal(I_x.data[0, 3], np.zeros(D_Q))
    for b in range(2):
        P_b, I_x_b = cross_attend(unit(Tensor(I[rows_i[b][mask_i[b]]]), params),
                                  Tensor(x[b:b + 1]), Tensor(x[b:b + 1]), mask_x[b:b + 1],
                                  params)
        assert np.allclose(P.data[b][mask_i[b]], P_b.data[0], rtol=1e-12, atol=1e-15)
        assert np.allclose(I_x.data[b][mask_i[b]], I_x_b.data[0], rtol=1e-12, atol=1e-14)
    assert np.abs(P.data.sum(axis=2)[mask_i] - 1).max() < 1e-12
    assert (P.data[0, :3, :2] > 0).all() and (P.data[1, :, :4] > 0).all()
    assert np.array_equal(P.data[0, :, 2:], np.zeros((4, 3)))
    assert np.array_equal(P.data[1, :, 4], np.zeros(4))
    assert np.array_equal(P.data[0, 3], np.zeros(5))


def test_gather_regions_reads_each_units_rows(params):
    """Each unit's rows, and their product with att_wi formed once per
    distinct row, come out in its grid, bit for bit the rows the product
    gives when every unit's copy is formed; padding positions are zero rows
    and masked out."""
    g = rng()
    I = g.normal(size=(6, D_Q))
    rows_i = np.array([[0, 1, 2, 6], [3, 1, 4, 5], [1, 6, 6, 6]])
    mask_i = rows_i < 6
    regions = gather_regions(Tensor(I), rows_i, params)
    copies = np.concatenate([I, np.zeros((1, D_Q))])[rows_i]
    assert np.array_equal(regions.mask, mask_i)
    assert np.array_equal(regions.I.data, copies)
    assert regions.keys.data.tobytes() == (copies.reshape(12, D_Q) @ params.att_wi.data).tobytes()
    with pytest.raises(DimensionError):
        gather_regions(Tensor(copies), rows_i, params)


def test_cross_attend_all_masked_raises(params):
    g = rng()
    I, x = Tensor(g.normal(size=(3, D_Q))), one(g.normal(size=(2, D_Q)))
    with pytest.raises(DegenerateSliceError):
        cross_attend(unit(I, params), x, x, [[False, False]], params)


# ---------------------------------------------------------------------------
# pooling

def test_pool_identical_rows_uniform_weights(params):
    row = rng().normal(size=(1, D_Q))
    I_x = one(np.repeat(row, 5, axis=0))
    w = region_weights(I_x, params, every(I_x))
    pooled = pool(w, I_x)
    assert np.allclose(w.data[0], np.full(5, 0.2))
    assert np.allclose(pooled.data[0], row[0])


def test_pool_dominant_row_limit(params):
    g = rng()
    I_x_arr = g.normal(size=(4, D_Q))
    I_x = one(I_x_arr)
    w = region_weights(I_x, params, every(I_x))
    # push row 2's score up by +30 via a shift on its hidden activation
    h = np.maximum(I_x_arr @ params.w1.data + params.b1.data, 0.0)
    scores = h @ params.w2.data
    scores[2, 0] += 30.0
    e = np.exp(scores - scores.max())
    w_hand = (e / e.sum()).reshape(-1)
    assert w_hand.argmax() == 2 and w_hand[2] > 0.999
    # same through the op when the shift is baked into the inputs
    shifted = scores  # hand result only; structural check of the op below
    same = one(np.repeat(I_x_arr[2:3], 4, axis=0))
    w2 = region_weights(same, params, every(same))
    pooled2 = pool(w2, same)
    assert np.allclose(pooled2.data[0], (w2.data.reshape(1, 4) @ np.repeat(I_x_arr[2:3], 4, axis=0))[0])


def test_pool_hand_evaluation_toy():
    p = init_grounding_params(np.random.default_rng(2), d_q=2, d_h=2)
    p.w1.data = np.array([[1.0, 0.0], [0.0, 1.0]])
    p.b1.data = np.array([[0.0, 0.0]])
    p.w2.data = np.array([[1.0], [-1.0]])
    I_x = one([[1.0, 2.0], [0.0, 0.0], [-3.0, 1.0]])
    w = region_weights(I_x, p, every(I_x))
    pooled = pool(w, I_x)
    scores = np.array([
        max(1.0, 0) * 1 + max(2.0, 0) * -1,
        0.0,
        max(-3.0, 0) * 1 + max(1.0, 0) * -1,
    ])
    e = np.exp(scores - scores.max())
    expect = e / e.sum()
    assert np.allclose(w.data[0], expect, atol=1e-12)
    assert np.allclose(pooled.data[0], expect @ I_x.data[0], atol=1e-12)


# ---------------------------------------------------------------------------
# prior / posterior

def test_prior_simplex_random_inputs(params):
    g = rng()
    for _ in range(25):
        I = Tensor(g.normal(size=(7, D_Q)))
        x = one(g.normal(size=(4, D_Q)))
        gd, I_x = prior_ground(unit(I, params), x, [[True, True, True, False]], params)
        v = pool(gd, I_x)
        assert gd.data.min() >= 0
        assert abs(gd.data.sum() - 1.0) < 1e-9
        assert v.shape == (1, D_Q)


def test_prior_permutation_equivariance(params):
    g = rng()
    I_arr = g.normal(size=(6, D_Q))
    x = one(g.normal(size=(3, D_Q)))
    mask = [[True, True, True]]
    regions = np.arange(6)[None]
    g1, I_x1 = prior_ground(gather_regions(Tensor(I_arr), regions, params), x, mask, params)
    perm = [4, 0, 5, 2, 1, 3]
    g2, I_x2 = prior_ground(gather_regions(Tensor(I_arr[perm]), regions, params), x, mask,
                            params)
    v1, v2 = pool(g1, I_x1), pool(g2, I_x2)
    assert np.allclose(g2.data[0], g1.data[0][perm], atol=1e-12)
    assert np.allclose(v2.data, v1.data, atol=1e-12)


def test_posterior_zero_answer_reduces_to_prior_bitwise(params):
    g = rng()
    I = Tensor(g.normal(size=(5, D_Q)))
    x = one(g.normal(size=(3, D_Q)))
    mask = [[True, True, False]]
    gp, I_x = prior_ground(unit(I, params), x, mask, params)
    vp = pool(gp, I_x)
    y = one(np.zeros((3, D_Q)))
    G, v_post = posterior_ground(unit(I, params), x, y, mask, params)
    assert np.array_equal(G.data, gp.data)
    assert np.array_equal(v_post.data, vp.data)


def test_posterior_differs_with_nonzero_answer(params):
    g = rng()
    I = Tensor(g.normal(size=(5, D_Q)))
    x = one(g.normal(size=(3, D_Q)))
    y = one(g.normal(size=(3, D_Q)))
    mask = [[True, True, True]]
    gp, _ = prior_ground(unit(I, params), x, mask, params)
    G, _ = posterior_ground(unit(I, params), x, y, mask, params)
    assert abs(G.data.sum() - 1.0) < 1e-9
    assert not np.allclose(G.data, gp.data)


def test_ragged_batch_rows_match_single_unit_calls(params):
    """Padding tokens hold garbage here and the masks keep it out; the
    region rows a unit's grid does not name, rows other units read, are
    kept out too."""
    g = rng()
    shapes = [(5, 3), (3, 4), (4, 1)]                       # (regions, real tokens)
    I = g.normal(size=(9, D_Q))
    rows_i = np.array([[0, 1, 2, 3, 4], [5, 6, 7, 9, 9], [2, 8, 0, 6, 9]])
    x = g.normal(size=(3, 4, D_Q))
    y = g.normal(size=(3, 4, D_Q))
    mask_x = np.array([[t < n for t in range(4)] for _, n in shapes])
    regions = gather_regions(Tensor(I), rows_i, params)
    gb, I_xb = prior_ground(regions, Tensor(x), mask_x, params)
    vb = pool(gb, I_xb)
    Gb, vpb = posterior_ground(regions, Tensor(x), Tensor(y), mask_x, params)
    singles = []
    for b, (mu, n) in enumerate(shapes):
        I1, x1, y1 = Tensor(I[rows_i[b, :mu]]), one(x[b, :n]), one(y[b, :n])
        g1, I_x1 = prior_ground(unit(I1, params), x1, [[True] * n], params)
        v1 = pool(g1, I_x1)
        G1, vp1 = posterior_ground(unit(I1, params), x1, y1, [[True] * n], params)
        assert np.allclose(gb.data[b, :mu], g1.data[0], rtol=1e-12, atol=1e-15)
        assert np.array_equal(gb.data[b, mu:], np.zeros(5 - mu))
        assert np.allclose(vb.data[b], v1.data[0], rtol=1e-12, atol=1e-14)
        assert np.allclose(Gb.data[b, :mu], G1.data[0], rtol=1e-12, atol=1e-15)
        assert np.allclose(vpb.data[b], vp1.data[0], rtol=1e-12, atol=1e-14)
        singles.append(bridge_loss(G1, g1).item())
    assert bridge_loss(Gb, gb).item() == pytest.approx(np.mean(singles), rel=1e-12)


# ---------------------------------------------------------------------------
# bridge loss

def _branches_for(params, I_arr, x_arr, y_arr, mask):
    """(posterior G, prior g) of one unit."""
    I, x, y = Tensor(I_arr), one(x_arr), one(y_arr)
    g, _ = prior_ground(unit(I, params), x, mask, params)
    G, _ = posterior_ground(unit(I, params), x, y, mask, params)
    return G, g


def test_bridge_zero_answer_all_variants_zero(params):
    """A zero answer makes the posterior equal the prior, so the bridge, the
    one KL, is zero."""
    g = rng()
    G, gp = _branches_for(params, g.normal(size=(4, D_Q)), g.normal(size=(2, D_Q)),
                          np.zeros((2, D_Q)), [[True, True]])
    assert abs(bridge_loss(G, gp).item()) < 1e-12


def test_bridge_attn_kl_hand_value(params):
    val = bridge_loss(Tensor([[0.25, 0.75]]), Tensor([[0.5, 0.5]])).item()
    expect = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    assert abs(val - expect) < 1e-12
    # swapped-direction sanity: the spec's 0.14384 example with posterior [0.25,0.75] as p
    assert abs(bridge_loss(Tensor([[0.5, 0.5]]), Tensor([[0.25, 0.75]])).item()
               - 0.14384) < 5e-6


def test_bridge_nonnegative_kl(params):
    g = rng()
    for _ in range(50):
        G, gp = _branches_for(params, g.normal(size=(5, D_Q)), g.normal(size=(3, D_Q)),
                              g.normal(size=(3, D_Q)), [[True, True, True]])
        assert bridge_loss(G, gp).item() >= 0.0


def test_bridge_detach_blocks_posterior_gradient(params):
    g = rng()
    I = Tensor(g.normal(size=(4, D_Q)))
    x = one(g.normal(size=(2, D_Q)), requires_grad=True)
    y = one(g.normal(size=(2, D_Q)), requires_grad=True)
    mask = [[True, True]]
    with Tape() as tape:
        gp, _ = prior_ground(unit(I, params), x, mask, params)
        G, _ = posterior_ground(unit(I, params), x, y, mask, params)
        loss = bridge_loss(G, gp)
    backward(loss, tape)
    # y feeds only the posterior branch; detached target -> no gradient at all
    assert y.grad is None
    assert x.grad is not None and np.abs(x.grad).max() > 0


def test_end_to_end_grad_check_prior_plus_bridge(params):
    """Gradient fidelity of the trained path: the posterior is a fixed label,
    so finite differences see exactly the prior-side derivative."""
    g = rng()
    I_arr = g.normal(size=(4, D_Q))
    G_fixed = Tensor(np.array([[0.1, 0.4, 0.3, 0.2]]))
    mask = [[True, True]]

    def f(x):
        I = Tensor(I_arr)
        gp, _ = prior_ground(unit(I, params), x, mask, params)
        return bridge_loss(G_fixed, gp)

    for seed in range(5):
        x = Tensor(np.random.default_rng(seed).normal(size=(1, 2, D_Q)))
        assert grad_check(f, x) < 1e-4


def test_end_to_end_grad_check_joint_posterior(params):
    """Gradient fidelity of the posterior branch the decoder reads in
    training: a loss on v_post reaches x through the pooling weights G, the
    x + y queries and the attended values, and must match finite
    differences."""
    g = rng()
    I_arr = g.normal(size=(4, D_Q))
    y_arr = g.normal(size=(2, D_Q))
    w = Tensor(g.normal(size=(1, D_Q)))
    mask = [[True, True]]

    def f(x):
        I = Tensor(I_arr)
        y = one(y_arr)
        _, v_post = posterior_ground(unit(I, params), x, y, mask, params)
        return sum_all(mul(v_post, w))

    for seed in range(5):
        x = Tensor(np.random.default_rng(seed).normal(size=(1, 2, D_Q)))
        assert grad_check(f, x) < 1e-4

