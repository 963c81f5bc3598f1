import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grounddial import autodiff as ad
from grounddial.autodiff import (
    ContractError,
    DegenerateSliceError,
    DimensionError,
    InvalidDistributionError,
    Tape,
    Tensor,
    backward,
)
from gradcheck import grad_check
from reference_lstm import (columns, cross_entropy, lstm_sequence_rows, step_sequence,
                            step_sequence_loss, transpose)
from reference_model import composed_layers, gather_rows_padded_copy, power


def rng():
    return np.random.default_rng(0)


def softmax(logits, axis):
    """masked_softmax with every entry real."""
    return ad.masked_softmax(logits, axis=axis, mask=np.ones(logits.shape, dtype=bool))


def squared_gap(a, b):
    """Mean over all entries of (a - b)**2."""
    diff = ad.add(a, ad.scale(b, -1.0))
    return ad.mean_all(ad.mul(diff, diff))


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(Tensor(np.eye(2)), a)
    assert np.array_equal(out.data, a.data)


def test_matmul_hand_expansion():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_zero_annihilator():
    out = ad.matmul(Tensor(np.zeros((2, 3))), Tensor(rng().normal(size=(3, 2))))
    assert np.array_equal(out.data, np.zeros((2, 2)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as e:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(e.value)


def test_matmul_backward():
    a = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng().normal(size=(4, 2)), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.matmul(a, b))
    backward(loss, tape)
    g = np.ones((3, 2))
    assert np.allclose(a.grad, g @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ g)


@pytest.mark.parametrize("op, shapes", [
    (ad.matmul, [(3, 4), (4, 2)]),
    (ad.bmm, [(2, 3, 4), (2, 4, 5)]),
    (lambda a, b: ad.bmm(a, b, transpose_b=True), [(2, 3, 4), (2, 5, 4)]),
    (ad.mul, [(3, 4), (3, 4)]),
], ids=["matmul", "bmm", "bmm_transposed", "mul"])
def test_product_rules_skip_the_gradient_of_a_constant(op, shapes):
    """A product's rule forms no gradient for an input that does not require
    one, and the other input's gradient is the one both inputs get."""
    g = rng()
    for const_side in (0, 1):
        parts = [Tensor(g.normal(size=s), requires_grad=True) for s in shapes]
        both = _lstm_grads(lambda a, b: ad.sum_all(op(a, b)), parts)
        parts[1 - const_side].requires_grad = True
        with Tape() as tape:
            out = op(*parts)
        grads = tape.nodes[0].rule(np.ones(out.shape))
        assert grads[const_side] is None
        assert grads[1 - const_side].tobytes() == both[1 - const_side].tobytes()


@pytest.mark.parametrize("transpose_b", [False, True])
def test_grad_check_bmm(transpose_b):
    g = rng()
    a_arr = g.normal(size=(3, 4, 2))
    b_arr = g.normal(size=(3, 5, 2) if transpose_b else (3, 2, 5))
    weights = Tensor(g.normal(size=(3, 4, 5)))

    def loss(a, b):
        return ad.sum_all(ad.mul(ad.bmm(a, b, transpose_b=transpose_b), weights))

    assert grad_check(lambda t: loss(t, Tensor(b_arr)), Tensor(a_arr)) < 1e-8
    assert grad_check(lambda t: loss(Tensor(a_arr), t), Tensor(b_arr)) < 1e-8


def test_bmm_shape_errors():
    a = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionError):
        ad.bmm(a, Tensor(np.zeros((2, 5, 4))))
    with pytest.raises(DimensionError):
        ad.bmm(a, Tensor(np.zeros((3, 4, 5))))
    with pytest.raises(DimensionError):
        ad.bmm(a, Tensor(np.zeros((4, 5))))
    assert ad.bmm(a, Tensor(np.zeros((2, 5, 4))), transpose_b=True).shape == (2, 3, 5)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bmm_random_shapes_match_slice_products_and_grad_check(data):
    B, m, k, n = (data.draw(st.integers(1, 4), label=name) for name in "Bmkn")
    transpose_b = data.draw(st.booleans(), label="transpose_b")
    g = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    a = g.normal(size=(B, m, k))
    b = g.normal(size=(B, n, k) if transpose_b else (B, k, n))
    weights = Tensor(g.normal(size=(B, m, n)))
    out = ad.bmm(Tensor(a), Tensor(b), transpose_b=transpose_b).data
    for i in range(B):
        want = a[i] @ (b[i].T if transpose_b else b[i])
        assert np.allclose(out[i], want, rtol=1e-12, atol=1e-12)

    def loss(t, other, first):
        pair = (t, other) if first else (other, t)
        return ad.sum_all(ad.mul(ad.bmm(*pair, transpose_b=transpose_b), weights))

    assert grad_check(lambda t: loss(t, Tensor(b), True), Tensor(a)) < 1e-7
    assert grad_check(lambda t: loss(t, Tensor(a), False), Tensor(b)) < 1e-7


# ---------------------------------------------------------------------------
# one-node layers, against the composed forms they replace, byte for byte

def drawn(data, shape, label):
    """A normal matrix of `shape` with some entries set to +0.0 or -0.0, so
    that signed zeros are compared too."""
    g = np.random.default_rng(data.draw(st.integers(0, 2**16), label=label + " seed"))
    a = g.normal(size=shape) * data.draw(st.sampled_from([1.0, 1e3, 1e-3]), label=label + " scale")
    share = data.draw(st.sampled_from([0.0, 0.3, 1.0]), label=label + " zeros")
    a[g.random(shape) < share / 2] = 0.0
    a[g.random(shape) < share / 2] = -0.0
    return a


def value_and_grads(layer, inputs, g):
    """The layer's output and each input's gradient under the loss sum(out * g)."""
    leaves = [Tensor(x.copy(), requires_grad=True) for x in inputs]
    with Tape() as tape:
        out = layer(*leaves)
        loss = ad.sum_all(ad.mul(out, Tensor(g)))
    backward(loss, tape)
    return [out.data] + [t.grad for t in leaves]


def assert_same_bytes(got, want):
    for k, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), k


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_affine_is_the_tiled_bias_form_bit_for_bit(data):
    """One-row inputs and one-wide products (k or n of 1) included."""
    m, k, n = (data.draw(st.integers(1, 7), label=name) for name in "mkn")
    inputs = [drawn(data, (m, k), "x"), drawn(data, (k, n), "w"), drawn(data, (1, n), "b")]
    g = drawn(data, (m, n), "g")
    got = value_and_grads(ad.affine, inputs, g)
    with composed_layers():
        want = value_and_grads(ad.affine, inputs, g)
    assert_same_bytes(got, want)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_layer_norm_is_the_composed_form_bit_for_bit(data):
    """One-row and one-column inputs included, and rows of zeros."""
    m, d = data.draw(st.integers(1, 7), label="m"), data.draw(st.integers(1, 12), label="d")
    t = drawn(data, (m, d), "t") + data.draw(st.sampled_from([0.0, 5.0]), label="offset")
    g = drawn(data, (m, d), "g")
    got = value_and_grads(ad.layer_norm, [t], g)
    with composed_layers():
        want = value_and_grads(ad.layer_norm, [t], g)
    assert_same_bytes(got, want)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_matmul_with_inner_dimension_one_is_the_blas_product(data):
    """[m, 1] @ [1, n] is broadcast, and so is the rule's dA = g bᵀ when b
    has one column; both give BLAS's k=1 GEMM bit for bit, -0.0 read as +0.0."""
    m, k, n = (data.draw(st.integers(1, 9), label=name) for name in "mkn")
    a, b = drawn(data, (m, 1), "a"), drawn(data, (1, n), "b")
    assert_same_bytes([ad.matmul(Tensor(a), Tensor(b)).data], [a @ b])
    x, w, g = drawn(data, (m, k), "x"), drawn(data, (k, 1), "w"), drawn(data, (m, 1), "g")
    grads = value_and_grads(lambda t: ad.matmul(t, Tensor(w)), [x], g)
    assert_same_bytes(grads[1:], [g @ w.T])


def test_permute_copies_and_permutes_the_gradient_back():
    a = rng().normal(size=(2, 3, 4))
    g = np.arange(24.0).reshape(4, 2, 3)
    out, grad = value_and_grads(lambda t: ad.permute(t, (2, 0, 1)), [a], g)
    assert np.array_equal(out, a.transpose(2, 0, 1)) and out.flags.c_contiguous
    assert np.array_equal(grad, g.transpose(1, 2, 0))
    with pytest.raises(DimensionError):
        ad.permute(Tensor(a), (0, 1))


def test_one_node_layers_check_their_shapes():
    with pytest.raises(DimensionError):
        ad.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros((1, 3))))
    with pytest.raises(DimensionError):
        ad.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((1, 4))))
    with pytest.raises(DimensionError):
        ad.layer_norm(Tensor(np.zeros((2, 3, 4))))


# ---------------------------------------------------------------------------
# elementwise

def test_relu_sign_cases():
    out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
    assert out.data.tolist() == [0.0, 0.0, 2.0]


def test_relu_gradient_zero_at_zero():
    x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.relu(x))
    backward(loss, tape)
    assert x.grad.tolist() == [0.0, 0.0, 1.0]


def test_add_identity():
    x = Tensor([1.0, -2.0, 3.0])
    out = ad.add(x, Tensor(np.zeros(3)))
    assert np.array_equal(out.data, x.data)
    with pytest.raises(DimensionError):
        ad.add(Tensor([1.0]), Tensor([1.0, 2.0]))


# ---------------------------------------------------------------------------
# masked softmax

def test_softmax_uniform_logits():
    out = softmax(Tensor([0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [0.5, 0.5])


def test_softmax_large_equal_logits_stable():
    out = softmax(Tensor([1000.0, 1000.0, 1000.0]), axis=0)
    assert np.allclose(out.data, [1 / 3] * 3)
    assert np.isfinite(out.data).all()


def test_softmax_hand_value():
    out = softmax(Tensor([0.0, math.log(3.0)]), axis=0)
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_mask_exact_zero_and_renormalized():
    logits = Tensor([[1.0, 2.0, 3.0]])
    mask = np.array([[True, False, True]])
    out = ad.masked_softmax(logits, axis=1, mask=mask)
    assert out.data[0, 1] == 0.0
    assert abs(out.data.sum() - 1.0) < 1e-12


def test_softmax_fully_masked_slice_raises():
    with pytest.raises(DegenerateSliceError):
        ad.masked_softmax(Tensor([[1.0, 2.0]]), axis=1, mask=np.zeros((1, 2), dtype=bool))


def test_softmax_mask_is_a_bool_array_and_no_tape_input():
    """The recorded node's one input is the logits; a mask that is a Tensor,
    a list or a float array is rejected."""
    logits = Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
    with Tape() as tape:
        ad.masked_softmax(logits, axis=1, mask=np.ones((1, 3), dtype=bool))
    assert [node.inputs for node in tape.nodes] == [(logits,)]
    for bad in (Tensor([[1.0, 1.0, 1.0]]), [[True, True, True]], np.ones((1, 3))):
        with pytest.raises(ContractError, match="bool array"):
            ad.masked_softmax(logits, axis=1, mask=bad)


def test_softmax_slices_sum_to_one_and_nonnegative():
    g = rng()
    for _ in range(50):
        z = Tensor(g.normal(size=(4, 6)) * 10)
        for axis in (0, 1):
            y = softmax(z, axis=axis).data
            assert (y >= 0).all()
            assert np.abs(y.sum(axis=axis) - 1.0).max() < 1e-9


def test_softmax_argmax_shift_invariant():
    g = rng()
    for _ in range(20):
        z = g.normal(size=7)
        a = softmax(Tensor(z), axis=0).data
        b = softmax(Tensor(z + 123.456), axis=0).data
        assert a.argmax() == b.argmax()


# ---------------------------------------------------------------------------
# kl divergence

def test_kl_identical_distributions_zero():
    p = np.array([[0.2, 0.3, 0.5]])
    assert abs(ad.kl_divergence(p, Tensor([[0.2, 0.3, 0.5]])).item()) < 1e-12


def test_kl_hand_value():
    val = ad.kl_divergence(np.array([[0.5, 0.5]]), Tensor([[0.25, 0.75]])).item()
    expect = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(val - expect) < 1e-12
    assert abs(val - 0.14384) < 5e-6


def test_kl_single_support_point():
    val = ad.kl_divergence(np.array([[1.0, 0.0]]), Tensor([[0.5, 0.5]])).item()
    assert abs(val - math.log(2.0)) < 1e-12


def test_kl_nonnegative_random():
    g = rng()
    for _ in range(200):
        p = g.random(5) + 1e-3
        q = g.random(5) + 1e-3
        p /= p.sum()
        q /= q.sum()
        assert ad.kl_divergence(p[None], Tensor(q[None])).item() >= 0.0


def test_kl_batch_mean_over_rows():
    p = np.array([[0.5, 0.5], [1.0, 0.0]])
    q = Tensor([[0.25, 0.75], [0.5, 0.5]])
    single = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(ad.kl_divergence(p, q).item() - (single + math.log(2.0)) / 2) < 1e-12


def test_kl_rejects_a_nan_row_on_either_side():
    nan_row = np.array([[np.nan, 0.5]])
    with pytest.raises(InvalidDistributionError):
        ad.kl_divergence(nan_row, Tensor([[0.5, 0.5]]))
    with pytest.raises(InvalidDistributionError):
        ad.kl_divergence(np.array([[0.5, 0.5]]), Tensor(nan_row))


def test_kl_invalid_inputs():
    with pytest.raises(InvalidDistributionError):
        ad.kl_divergence(np.array([[0.7, 0.7]]), Tensor([[0.5, 0.5]]))
    with pytest.raises(InvalidDistributionError):
        ad.kl_divergence(np.array([[-0.1, 1.1]]), Tensor([[0.5, 0.5]]))
    for shape in ((2,), (1, 1, 2)):          # rows of a [B, n] batch only
        with pytest.raises(DimensionError):
            ad.kl_divergence(np.full(shape, 0.5), Tensor(np.full(shape, 0.5)))
    with pytest.raises(DimensionError, match="shapes differ"):
        ad.kl_divergence(np.full((1, 2), 0.5), Tensor(np.full((1, 4), 0.25)))


# ---------------------------------------------------------------------------
# cross entropy

def test_cross_entropy_uniform():
    val = ad.cross_entropy_rows(Tensor([[0.0, 0.0, 0.0, 0.0]]), [0]).item()
    assert abs(val - math.log(4.0)) < 1e-12


def test_cross_entropy_confident():
    val = ad.cross_entropy_rows(Tensor([[10.0, -10.0]]), [0]).item()
    assert abs(val - 2.06e-9) < 2e-11


def test_cross_entropy_from_softmax_example():
    val = ad.cross_entropy_rows(Tensor([[0.0, math.log(3.0)]]), [1]).item()
    assert abs(val - (-math.log(0.75))) < 1e-12


def test_cross_entropy_index_error():
    with pytest.raises(IndexError):
        ad.cross_entropy_rows(Tensor([[0.0, 1.0]]), [2])


# ---------------------------------------------------------------------------
# backward mechanics

def test_backward_sum_gives_ones():
    x = Tensor(rng().normal(size=(3, 2)), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(x)
    backward(loss, tape)
    assert np.array_equal(x.grad, np.ones((3, 2)))


def test_backward_power_rule():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(x, x))
    backward(loss, tape)
    assert np.allclose(x.grad, 2 * x.data)


def test_backward_accumulates_across_uses():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.add(x, x))
    backward(loss, tape)
    assert x.grad.tolist() == [2.0]


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.add(x, x)
    with pytest.raises(ContractError):
        backward(y, tape)


def test_backward_linearity():
    g = rng()
    x0 = g.normal(size=(4,))

    def run(a, b):
        x = Tensor(x0.copy(), requires_grad=True)
        with Tape() as tape:
            l1 = ad.sum_all(ad.mul(x, x))
            l2 = ad.sum_all(ad.tanh(x))
            loss = ad.add(ad.scale(l1, a), ad.scale(l2, b))
        backward(loss, tape)
        return x.grad

    ga = run(1.0, 0.0)
    gb = run(0.0, 1.0)
    gc = run(2.0, 3.0)
    assert np.abs(gc - (2.0 * ga + 3.0 * gb)).max() < 1e-9


def test_no_tape_means_no_grad_tracking():
    x = Tensor([1.0], requires_grad=True)
    y = ad.mul(x, x)
    assert not y.requires_grad


def squared_tanh_graph():
    """(tape, x, w, [m, h, hh, loss]) of sum(tanh(x @ w) ** 2), leaves x and w."""
    g = rng()
    x = Tensor(g.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(g.normal(size=(4, 5)), requires_grad=True)
    with Tape() as tape:
        m = ad.matmul(x, w)
        h = ad.tanh(m)
        hh = ad.mul(h, h)
        loss = ad.sum_all(hh)
    return tape, x, w, [m, h, hh, loss]


def retaining_backward(loss, tape):
    """The sweep without releasing anything: every node keeps its inputs,
    output and rule, and every intermediate tensor its gradient."""
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node.output.grad is None:
            continue
        for inp, g in zip(node.inputs, node.rule(node.output.grad)):
            if g is not None and inp.requires_grad:
                inp.grad = g if inp.grad is None else inp.grad + g


def test_backward_releases_the_tape_and_keeps_the_leaf_gradients():
    tape, x, w, intermediates = squared_tanh_graph()
    nodes = len(tape.nodes)
    activation = weakref.ref(intermediates[0].data)
    backward(intermediates[-1], tape)
    assert len(tape.nodes) == nodes
    assert all(t.grad is None for t in intermediates)
    del intermediates
    assert activation() is None, "the tape still holds matmul's output"

    want_tape, want_x, want_w, want_intermediates = squared_tanh_graph()
    retaining_backward(want_intermediates[-1], want_tape)
    assert x.grad.tobytes() == want_x.grad.tobytes()
    assert w.grad.tobytes() == want_w.grad.tobytes()


def test_second_backward_on_a_consumed_tape_raises():
    tape, x, w, intermediates = squared_tanh_graph()
    backward(intermediates[-1], tape)
    first = w.grad.copy()
    with pytest.raises(ContractError, match="consumed tape"):
        backward(intermediates[-1], tape)
    assert w.grad.tobytes() == first.tobytes()


# ---------------------------------------------------------------------------
# grad_check

def test_grad_check_sum_of_squares():
    x = Tensor(rng().normal(size=(3, 3)))
    err = grad_check(lambda t: ad.sum_all(ad.mul(t, t)), x)
    assert err < 1e-7


def test_grad_check_constant_function():
    x = Tensor(rng().normal(size=(4,)))
    c = Tensor(np.ones(4))
    err = grad_check(lambda t: ad.sum_all(c), x)
    assert err == 0.0


@pytest.mark.parametrize("build", [
    lambda t: ad.mean_all(ad.tanh(ad.matmul(t, transpose(t)))),
    lambda t: ad.kl_divergence(
        np.full((1, t.size), 1.0 / t.size),
        softmax(ad.reshape(t, (1, t.size)), axis=1),
    ),
    lambda t: ad.sum_all(ad.cross_entropy_rows(ad.reshape(ad.tanh(t), (1, t.size)), [1])),
    lambda t: squared_gap(ad.relu(ad.add(t, Tensor(np.full(t.shape, 0.7)))),
                          Tensor(np.ones((2, 3)))),
    lambda t: ad.sum_all(power(ad.add(ad.mul(t, t), Tensor(np.ones(t.shape))), -0.5)),
    lambda t: ad.sum_all(columns(ad.concat([t, t], axis=0), 1, 3)),
    lambda t: ad.sum_all(ad.gather_rows(t, [0, 1, 0])),
])
def test_grad_check_composites(build):
    x = Tensor(rng().normal(size=(2, 3)) * 0.5 + 0.1)
    assert grad_check(build, x) < 1e-6


def _grad_check_each_input(parts: dict, build) -> None:
    """grad_check the scalar build(**parts) in every input of `parts` in turn."""
    for name, t in parts.items():
        def f(v, _name=name):
            return build(**{k: (v if k == _name else p) for k, p in parts.items()})
        assert grad_check(f, t) < 1e-7, name


def test_grad_check_lstm_step():
    """One step of the cell: a one-step lstm_sequence reading row 1."""
    g = rng()
    H = 3
    parts = {
        "xs": Tensor(g.normal(size=(2, 4))),
        "h0": Tensor(g.normal(size=(1, H))),
        "wx": Tensor(g.normal(size=(4, 4 * H))),
        "wh": Tensor(g.normal(size=(H, 4 * H))),
        "b": Tensor(g.normal(size=(1, 4 * H))),
    }

    def build(xs, h0, wx, wh, b):
        return ad.sum_all(ad.tanh(ad.lstm_sequence(xs, [[1]], h0, wx, wh, b)))

    _grad_check_each_input(parts, build)


RAGGED_INDEX = np.array([[0, 1, 5],
                         [-1, 2, 6],
                         [-1, 3, -1],
                         [-1, 4, -1]])   # lengths 1, 4, 2 over the rows of a [7, d_in] xs


@pytest.mark.parametrize("index", [RAGGED_INDEX, RAGGED_INDEX[::-1]], ids=["forward", "reversed"])
def test_grad_check_lstm_sequence_ragged(index):
    g = rng()
    H, d_in = 3, 4
    T, B = index.shape
    parts = {
        "xs": Tensor(g.normal(size=(7, d_in))),
        "h0": Tensor(g.normal(size=(B, H))),
        "wx": Tensor(g.normal(size=(d_in, 4 * H)) * 0.5),
        "wh": Tensor(g.normal(size=(H, 4 * H)) * 0.5),
        "b": Tensor(g.normal(size=(1, 4 * H))),
    }
    weights = Tensor(g.normal(size=(T * B, H)))  # every step's h reaches the loss differently

    def build(xs, h0, wx, wh, b):
        out = ad.lstm_sequence(xs, index, h0, wx, wh, b)
        return ad.sum_all(ad.mul(ad.tanh(out), weights))

    _grad_check_each_input(parts, build)


def test_lstm_sequence_carries_state_through_minus_one():
    g = rng()
    H = 2
    xs = Tensor(g.normal(size=(3, 4)))
    h0 = Tensor(g.normal(size=(2, H)))
    w = [Tensor(g.normal(size=s)) for s in [(4, 4 * H), (H, 4 * H), (1, 4 * H)]]
    out = ad.lstm_sequence(xs, [[-1, 0], [1, -1], [-1, 2]], h0, *w).data.reshape(3, 2, H)
    assert np.array_equal(out[0, 0], h0.data[0])        # leading -1 keeps the initial state
    assert np.array_equal(out[2, 0], out[1, 0])
    assert np.array_equal(out[1, 1], out[0, 1])


def test_lstm_sequence_index_errors():
    H = 2
    xs = Tensor(np.zeros((3, 4)))
    w = [Tensor(np.zeros(s)) for s in [(4, 4 * H), (H, 4 * H), (1, 4 * H)]]
    with pytest.raises(IndexError):
        ad.lstm_sequence(xs, [[3]], Tensor(np.zeros((1, H))), *w)
    with pytest.raises(DimensionError):
        ad.lstm_sequence(xs, [[0, 1]], Tensor(np.zeros((1, H))), *w)
    with pytest.raises(DimensionError):                 # a packed [h, c] start
        ad.lstm_sequence(xs, [[0]], Tensor(np.zeros((1, 2 * H))), *w)


def _lstm_grads(loss_of, parts):
    """Gradients of the scalar loss_of(*parts) with respect to every part."""
    for t in parts:
        t.requires_grad, t.grad = True, None
    with Tape() as tape:
        loss = loss_of(*parts)
    backward(loss, tape)
    grads = [np.zeros_like(t.data) if t.grad is None else t.grad for t in parts]
    for t in parts:
        t.requires_grad, t.grad = False, None
    return grads


def assert_lstm_matches_stepping(xs, index, h0, w, weights):
    """States within 1e-12 and every gradient within 1e-12 of its tensor's
    largest entry (with an absolute floor of 1e-15) of stepping each
    sequence alone through `reference_lstm.lstm_step`."""
    H = h0.shape[1]
    got = ad.lstm_sequence(xs, index, h0, *w).data
    assert np.abs(got - step_sequence(xs, index, h0, *w)).max() <= 1e-12
    fused = _lstm_grads(lambda x, h, *ws: ad.sum_all(ad.mul(
        ad.lstm_sequence(x, index, h, *ws), Tensor(weights.reshape(-1, H)))), [xs, h0, *w])
    stepped = _lstm_grads(lambda x, h, *ws: step_sequence_loss(x, index, h, *ws, weights),
                          [xs, h0, *w])
    for name, a, b in zip(["table", "h0", "wx", "wh", "b"], fused, stepped):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max() + 1e-15, name


def test_lstm_sequence_reads_a_row_repeatedly_and_accumulates_its_gradient():
    """Rows read at several steps and by several sequences (an embedding
    read by token ids): states and gradients match stepping the reference,
    and a row's table gradient is the sum over its reads."""
    g = rng()
    H, d_in = 3, 4
    xs = Tensor(g.normal(size=(4, d_in)))
    h0 = Tensor(g.normal(size=(3, H)))
    w = [Tensor(g.normal(size=s)) for s in [(d_in, 4 * H), (H, 4 * H), (1, 4 * H)]]
    index = np.array([[1, 1, 3],
                      [1, 0, -1],
                      [-1, 1, -1]])    # row 1 read four times, row 2 never
    weights = g.normal(size=(3, 3, H))
    assert_lstm_matches_stepping(xs, index, h0, w, weights)
    assert_lstm_matches_stepping(xs, index[::-1], h0, w, weights)
    d_table = _lstm_grads(lambda x, h, *ws: ad.sum_all(ad.mul(
        ad.lstm_sequence(x, index, h, *ws), Tensor(weights.reshape(-1, H)))), [xs, h0, *w])[0]
    assert not d_table[2].any()
    assert np.abs(d_table[1]).min() > 0


def test_lstm_sequence_wide_batch_matches_narrow_batches():
    """A wide ragged batch: every sequence's states and every gradient match
    running the sequences a few at a time."""
    g = rng()
    H, d_in = 3, 4
    lengths = g.integers(1, 5, size=40)
    B, T = len(lengths), int(lengths.max())
    xs = Tensor(g.normal(size=(int(lengths.sum()), d_in)), requires_grad=True)
    h0 = Tensor(g.normal(size=(B, H)), requires_grad=True)
    w = [Tensor(g.normal(size=s), requires_grad=True)
         for s in [(d_in, 4 * H), (H, 4 * H), (1, 4 * H)]]
    index = np.full((T, B), -1)
    ends = np.cumsum(lengths)
    for col, n in enumerate(lengths):
        index[:n, col] = np.arange(ends[col] - n, ends[col])
    weights = g.normal(size=(T, B, H))
    index = index[::-1]

    def run(cols):
        with Tape() as tape:
            out = ad.lstm_sequence(xs, index[:, cols], ad.gather_rows(h0, cols), *w)
            loss = ad.sum_all(ad.mul(out, Tensor(weights[:, cols].reshape(-1, H))))
        backward(loss, tape)
        grads = [t.grad for t in (xs, h0, *w)]
        for t in (xs, h0, *w):
            t.grad = None
        return out.data.reshape(T, len(cols), H), grads

    wide, wide_grads = run(np.arange(B))
    narrow_grads = None
    for start in range(0, B, 7):
        cols = np.arange(start, min(start + 7, B))
        got, grads = run(cols)
        assert np.allclose(wide[:, cols], got, rtol=1e-12, atol=1e-14)
        narrow_grads = grads if narrow_grads is None else [a + b for a, b in zip(narrow_grads, grads)]
    for got, want in zip(wide_grads, narrow_grads):
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lstm_sequence_matches_stepping_the_reference(data):
    """Ragged batches reading any rows of a small table, repeats included:
    states and gradients match stepping each sequence alone."""
    lengths = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=5), label="lengths")
    n_rows = data.draw(st.integers(1, 8), label="table rows")
    reads = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=sum(lengths),
                               max_size=sum(lengths)), label="rows read")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    g = np.random.default_rng(seed)
    H, d_in = 3, 4
    B, T = len(lengths), max(lengths)
    xs = Tensor(g.normal(size=(n_rows, d_in)))
    h0 = Tensor(g.normal(size=(B, H)))
    w = [Tensor(g.normal(size=s)) for s in [(d_in, 4 * H), (H, 4 * H), (1, 4 * H)]]
    weights = g.normal(size=(T, B, H))
    index = np.full((T, B), -1)
    start = 0
    for col, n in enumerate(lengths):
        index[:n, col] = reads[start:start + n]
        start += n
    for idx in (index, index[::-1]):
        assert_lstm_matches_stepping(xs, idx, h0, w, weights)


def _free_and_recorded(op, parts, index, weights):
    """op's states from a call with no tape, its states from a recorded call
    and the gradients of sum(weights * states) in all five inputs."""
    free = op(parts[0], index, *parts[1:]).data
    recorded = []

    def loss(x, *rest):
        out = op(x, index, *rest)
        recorded.append(out.data)
        return ad.sum_all(ad.mul(out, Tensor(weights)))

    grads = _lstm_grads(loss, parts)
    return [free, recorded[0], *grads]


def lstm_sequence_rows_from_h0(table, index, h0, *w):
    """`reference_lstm.lstm_sequence_rows` from the packed state [h0, 0]."""
    return lstm_sequence_rows(table, index, ad.concat([h0, Tensor(np.zeros(h0.shape))], axis=1),
                              *w)


def assert_lstm_is_the_row_major_op(index, parts):
    """States and all five gradients equal `reference_lstm.lstm_sequence_rows`'
    from [h0, 0] bit for bit (-0.0 and 0.0 told apart)."""
    T, B = index.shape
    H = parts[3].shape[0]
    weights = np.random.default_rng(T * B * H).normal(size=(T * B, H))
    got = _free_and_recorded(ad.lstm_sequence, parts, index, weights)
    want = _free_and_recorded(lstm_sequence_rows_from_h0, parts, index, weights)
    for name, a, b in zip(["free states", "recorded states", "table", "h0", "wx", "wh", "b"],
                          got, want):
        assert a.tobytes() == b.tobytes(), name


def _lstm_parts(g, n_rows, d_in, B, H):
    """table, h0, wx, wh, b of the given sizes, random normal."""
    return [Tensor(g.normal(size=s)) for s in
            [(n_rows, d_in), (B, H), (d_in, 4 * H), (H, 4 * H), (1, 4 * H)]]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lstm_sequence_is_the_row_major_op_bit_for_bit(data):
    """Gate-major gates and workspace step buffers change no bit. Ragged
    batches in which a sequence may read nothing, reversed indices, rows
    read repeatedly, B = 1, and sizes that grow and shrink the workspace
    from one example to the next."""
    B = data.draw(st.integers(1, 6), label="B")
    T = data.draw(st.integers(1, 5), label="T")
    H = data.draw(st.integers(1, 9), label="H")
    n_rows = data.draw(st.integers(1, 6), label="table rows")
    lengths = data.draw(st.lists(st.integers(0, T), min_size=B, max_size=B), label="lengths")
    reads = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=sum(lengths),
                               max_size=sum(lengths)), label="rows read")
    reverse = data.draw(st.booleans(), label="reversed")
    g = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    index = np.full((T, B), -1)
    start = 0
    for col, n in enumerate(lengths):
        index[:n, col] = reads[start:start + n]
        start += n
    assert_lstm_is_the_row_major_op(index[::-1] if reverse else index,
                                    _lstm_parts(g, n_rows, 4, B, H))


def test_lstm_sequence_is_the_row_major_op_at_the_decoders_size():
    """The generative decoder's evaluation call: 64 units x 10 candidates of
    2-3 steps, H = 64, reading an embedding."""
    g = rng()
    B, H = 640, 64
    index = g.integers(0, 30, size=(3, B))
    index[2, g.random(B) < 0.5] = -1
    assert_lstm_is_the_row_major_op(index, _lstm_parts(g, 30, 32, B, H))


def test_lstm_sequence_workspace_is_never_in_a_result(monkeypatch):
    """The step buffers are reused, never returned or kept by the tape: the
    outputs of a call and of a shared (`start=`) call are unchanged by later
    calls of larger and smaller B and another H, a recorded call's gradients
    are unchanged by calls made between it and backward, and each workspace
    buffer is as large as the largest call needs, no larger. The no-tape
    steps keep four buffers: the gates, one h @ wh product per held state,
    the c pair and the held c of shared steps."""
    monkeypatch.setattr(ad, "_WORKSPACE", {})
    g = rng()

    def call(B, H):
        parts = _lstm_parts(g, 5, 4, B, H)
        return ad.lstm_sequence(parts[0], g.integers(-1, 5, size=(3, B)), *parts[1:])

    index = g.integers(-1, 5, size=(3, 6))
    parts = _lstm_parts(g, 5, 4, 6, 3)
    first = ad.lstm_sequence(parts[0], index, *parts[1:]).data
    # twelve sequences from two states; the second step holds 2 states and
    # steps 10 (state, row) keys
    shared_index = np.array([[0] * 12, [0, 1, 2, 3, 4, 0, 0, 1, 2, 3, 4, 1]])
    shared_parts = _lstm_parts(g, 5, 4, 2, 4)
    states, rows = ad.lstm_sequence(shared_parts[0], shared_index, *shared_parts[1:],
                                    start=np.repeat([0, 1], 6))
    results = [first, states.data, rows]
    kept = [a.copy() for a in results]
    others = [(9, 3), (2, 3), (6, 5), (1, 2), (6, 3)]
    for B, H in others:
        call(B, H)
    for a, b in zip(results, kept):
        assert a.tobytes() == b.tobytes()
    assert set(ad._WORKSPACE) == {"z", "zh", "c", "c_held"}
    assert ad._WORKSPACE["z"].size == 4 * 10 * 4
    assert ad._WORKSPACE["c_held"].size == 10 * 4

    weights = g.normal(size=(3 * 6, 3))

    def grads(calls_between):
        def loss(x, *rest):
            out = ad.sum_all(ad.mul(ad.lstm_sequence(x, index, *rest), Tensor(weights)))
            for B, H in calls_between:
                call(B, H)
            return out
        return _lstm_grads(loss, parts)

    alone = grads([])
    interleaved = grads(others)
    for name, a, b in zip(["table", "h0", "wx", "wh", "b"], interleaved, alone):
        assert a.tobytes() == b.tobytes(), name
    most = max(B * H for B, H in others + [(6, 3)])
    assert set(ad._WORKSPACE) == {"z", "zh", "c", "c_held"}     # recorded steps add none
    assert ad._WORKSPACE["zh"].size == 4 * most
    assert ad._WORKSPACE["c"].size == 2 * most


@st.composite
def shared_prefix_grids(draw):
    """An lstm_sequence index and starts whose columns share prefixes to
    every depth: each column cuts a few base sequences at any depth and may
    diverge at its last read. Ragged, reversed, with gaps that carry a
    state between reads, B of 1 to 9."""
    T = draw(st.integers(1, 5), label="T")
    n_rows = draw(st.integers(1, 3), label="table rows")
    row = st.integers(0, n_rows - 1)
    bases = draw(st.lists(st.lists(row, min_size=T, max_size=T), min_size=1, max_size=3),
                 label="bases")
    B = draw(st.integers(1, 9), label="B")
    n_starts = draw(st.integers(1, 3), label="h0 rows")
    index = np.full((T, B), -1)
    for b in range(B):
        reads = list(draw(st.sampled_from(bases)))[:draw(st.integers(0, T))]
        if reads and draw(st.booleans()):
            reads[-1] = draw(row)
        index[:len(reads), b] = reads
    for t, b in draw(st.lists(st.tuples(st.integers(0, T - 1), st.integers(0, B - 1)),
                              max_size=3), label="gaps"):
        index[t, b] = -1
    start = np.array(draw(st.lists(st.integers(0, n_starts - 1), min_size=B, max_size=B)))
    reverse = draw(st.booleans(), label="reversed")
    return (index[::-1] if reverse else index), start, n_rows, n_starts


def held_states(states, rows, h0, start):
    """[T, B, H]: the state each sequence holds after each step, read from
    the shared call's states through its grid, or h0's start row where
    the grid is -1."""
    table = np.concatenate([states.data, h0.data])
    return table[np.where(rows < 0, states.shape[0] + start, rows)]


@settings(max_examples=150, deadline=None)
@given(grid=shared_prefix_grids(), H=st.integers(1, 9), seed=st.integers(0, 2**16))
def test_lstm_sequence_shared_starts_give_each_column_its_state_bit_for_bit(grid, H, seed):
    """With `start`, each column's state read through the grid is byte-equal
    to the state of a call without `start` on h0[start], where every column
    is its own sequence. A step adds one row per distinct (start, index
    prefix) among the columns that read; a column that carries keeps its
    row, and one that has read nothing yet reads -1 (its h0 row)."""
    index, start, n_rows, n_starts = grid
    T, B = index.shape
    parts = _lstm_parts(np.random.default_rng(seed), n_rows, 4, n_starts, H)
    states, rows = ad.lstm_sequence(parts[0], index, *parts[1:], start=start)
    alone = ad.lstm_sequence(parts[0], index, Tensor(parts[1].data[start]), *parts[2:])
    assert rows.shape == (T, B)
    held = held_states(states, rows, parts[1], start)
    assert held.tobytes() == alone.data.reshape(T, B, H).tobytes()
    top = 0
    for t in range(T):
        prefix = [(start[b], *index[:t + 1, b]) for b in range(B)]
        key = np.array([sorted(set(prefix)).index(k) for k in prefix])
        state = np.where(rows[t] < 0, -1 - start, rows[t])
        assert np.array_equal(state[:, None] == state, key[:, None] == key)
        reads = index[t] >= 0
        new = len({prefix[b] for b in np.flatnonzero(reads)})
        assert sorted(set(rows[t, reads])) == list(range(top, top + new))
        if t:
            assert np.array_equal(rows[t, ~reads], rows[t - 1, ~reads])
        else:
            assert (rows[t, ~reads] == -1).all()
        top += new
    assert states.shape == (top, H)


@pytest.mark.parametrize("units", [1, 2, 64])
def test_lstm_sequence_shared_starts_at_the_decoders_size(units):
    """The generative decoder's ranking call, H = 64: ten candidates per unit
    read BOS and then one of a few tokens or nothing, so every step-0 state
    is shared (a one-unit batch has one state there, stepped as two rows)."""
    g = rng()
    B, H = 10 * units, 64
    index = np.stack([np.full(B, 2), g.integers(4, 12, size=B)])
    index[1, g.random(B) < 0.2] = -1
    start = np.repeat(np.arange(units), 10)
    parts = _lstm_parts(g, 30, 32, units, H)
    states, rows = ad.lstm_sequence(parts[0], index, *parts[1:], start=start)
    alone = ad.lstm_sequence(parts[0], index, Tensor(parts[1].data[start]), *parts[2:])
    assert held_states(states, rows, parts[1], start).tobytes() == \
        alone.data.reshape(2, B, H).tobytes()
    assert len(set(rows[0])) == units


def test_lstm_sequence_with_every_column_its_own_start_is_the_call_without():
    """Sequences that each start from their own h0 row and read at every
    step share nothing: the states are the call's without `start` byte for
    byte, and the grid is t*B + b."""
    g = rng()
    for B, H in ((1, 3), (5, 3), (7, 64)):
        index = g.integers(0, 4, size=(4, B))
        parts = _lstm_parts(g, 4, 6, B, H)
        plain = ad.lstm_sequence(parts[0], index, *parts[1:])
        states, rows = ad.lstm_sequence(parts[0], index, *parts[1:], start=np.arange(B))
        assert states.data.tobytes() == plain.data.tobytes()
        assert np.array_equal(rows, np.arange(4 * B).reshape(4, B))


def test_lstm_sequence_shared_starts_are_inference_only_and_checked():
    """`start` under a recording tape raises ContractError; a start of the
    wrong shape or outside h0's rows is rejected."""
    parts = _lstm_parts(rng(), 4, 6, 2, 3)
    index = np.array([[0, 1, 1], [2, -1, 3]])
    with Tape():
        ad.lstm_sequence(parts[0], index, *parts[1:], start=[0, 1, 1])     # nothing records
        parts[3].requires_grad = True
        with pytest.raises(ContractError):
            ad.lstm_sequence(parts[0], index, *parts[1:], start=[0, 1, 1])
    with pytest.raises(DimensionError):
        ad.lstm_sequence(parts[0], index, *parts[1:], start=[0, 1])
    with pytest.raises(IndexError):
        ad.lstm_sequence(parts[0], index, *parts[1:], start=[0, 2, 1])


def test_grad_check_cross_entropy_rows():
    g = rng()
    targets = [2, 0, 4, 2]
    weights = Tensor(g.normal(size=4))
    x = Tensor(g.normal(size=(4, 5)))
    assert grad_check(lambda t: ad.sum_all(ad.mul(ad.cross_entropy_rows(t, targets), weights)),
                      x) < 1e-7


def test_cross_entropy_rows_matches_per_row_cross_entropy():
    z = rng().normal(size=(3, 6))
    rows = ad.cross_entropy_rows(Tensor(z), [5, 0, 3]).data
    for m, target in enumerate([5, 0, 3]):
        assert rows[m] == cross_entropy(Tensor(z[m]), target).item()
    with pytest.raises(IndexError):
        ad.cross_entropy_rows(Tensor(z), [6, 0, 0])
    with pytest.raises(DimensionError):
        ad.cross_entropy_rows(Tensor(z), [0, 0])


def test_grad_check_random_points_under_tolerance():
    g = rng()
    w = Tensor(g.normal(size=(3, 3)))

    def f(t):
        h = ad.relu(ad.add(ad.matmul(t, w), Tensor(np.full((2, 3), 0.5))))
        q = softmax(ad.reshape(h, (1, h.size)), axis=1)
        return ad.kl_divergence(np.full((1, h.size), 1.0 / h.size), q)

    for seed in range(5):
        x = Tensor(np.random.default_rng(seed).normal(size=(2, 3)))
        assert grad_check(f, x) < 1e-4


# ---------------------------------------------------------------------------
# structural ops

def test_concat_and_split_gradients():
    a = Tensor(rng().normal(size=(2, 2)), requires_grad=True)
    b = Tensor(rng().normal(size=(1, 2)), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.scale(ad.concat([a, b], axis=0), 3.0))
    backward(loss, tape)
    assert np.allclose(a.grad, 3.0)
    assert np.allclose(b.grad, 3.0)


def test_gather_rows_duplicate_accumulation():
    a = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.gather_rows(a, [1, 1, 2]))
    backward(loss, tape)
    assert a.grad.tolist() == [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]]


def assert_gather_rows_gradient_is_add_at(indices, g):
    """A 1-D index gives [n, d] rows, whose gradient is np.add.at's."""
    a = Tensor(rng().normal(size=(6, 3)), requires_grad=True)
    with Tape() as tape:
        out = ad.gather_rows(a, indices)
        loss = ad.sum_all(ad.mul(out, Tensor(g)))
    assert out.shape == (len(indices), 3)
    backward(loss, tape)
    want = np.zeros((6, 3))
    np.add.at(want, np.asarray(indices, dtype=np.intp), g)
    assert a.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("indices", [[4, 0, 2, 5], [], [1, 4, 1, 0, 4, 4], [3] * 20 + [0, 3, 5, 3]],
                         ids=["distinct", "none", "repeated", "long_run"])
def test_gather_rows_gradient_is_the_add_at_scatter_bit_for_bit(indices):
    """A long run of one row too: pairwise summation (`np.add.reduceat`)
    would round it differently."""
    assert_gather_rows_gradient_is_add_at(indices, rng().normal(size=(len(indices), 3)))


@settings(max_examples=60, deadline=None)
@given(indices=st.lists(st.integers(0, 5), min_size=1, max_size=40),
       seed=st.integers(0, 2**16), zero_share=st.sampled_from([0.0, 0.3, 1.0]))
def test_gather_rows_gradient_of_repeated_reads_is_the_add_at_scatter_bit_for_bit(indices, seed,
                                                                                 zero_share):
    """Unsorted reads with a repeat, and gradients that hold -0.0: np.add.at
    sums from +0.0, so a row whose gradients are all -0.0 gets +0.0. (When
    no row repeats, each row is assigned its one gradient, -0.0 included.)"""
    indices = indices + indices[:1]
    g = np.random.default_rng(seed).normal(size=(len(indices), 3))
    g[np.random.default_rng(seed + 1).random(g.shape) < zero_share] = -0.0
    assert_gather_rows_gradient_is_add_at(indices, g)


@settings(max_examples=60, deadline=None)
@given(index=st.integers(1, 4).flatmap(lambda width: st.lists(
           st.lists(st.integers(0, 5), min_size=width, max_size=width), min_size=1, max_size=6)),
       seed=st.integers(0, 2**16), zero_share=st.sampled_from([0.0, 0.3, 1.0]))
@example(index=[[0, 5, 5]], seed=0, zero_share=1.0)
def test_gather_rows_is_the_padded_copy_bit_for_bit(index, seed, zero_share):
    """A grid of reads of a 5-row matrix, index 5 the zero pad row: the same
    rows and gradient as reading a padded copy in NumPy, from one tape node.
    That includes -0.0: a row read once gets its gradient
    assigned, unless some row is read twice, the pad row too, when every
    row's gradient is summed from +0.0."""
    index = np.array(index)
    draw = np.random.default_rng(seed)
    g = draw.normal(size=index.shape + (3,))
    g[draw.random(g.shape) < zero_share] = -0.0
    got = []
    for gather in (ad.gather_rows, gather_rows_padded_copy):
        a = Tensor(rng().normal(size=(5, 3)), requires_grad=True)
        with Tape() as tape:
            out = gather(a, index)
            nodes = len(tape.nodes)
            loss = ad.sum_all(ad.mul(out, Tensor(g)))
        backward(loss, tape)
        got.append((out.data.tobytes(), out.shape, a.grad.tobytes(), nodes))
    assert got[0][:3] == got[1][:3]
    assert got[0][3] == 1


def test_gather_rows_reads_the_pad_row():
    a = Tensor(np.arange(6, dtype=float).reshape(3, 2))
    assert ad.gather_rows(a, [[2, 3], [3, 0]]).data.tolist() == [[[4, 5], [0, 0]], [[0, 0], [0, 1]]]
    for bad in ([[4]], [[-1]]):
        with pytest.raises(IndexError, match="out of range"):
            ad.gather_rows(a, bad)


def test_affine_bias_gradient_counts_the_rows():
    row = Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
    with Tape() as tape:
        out = ad.affine(Tensor(rng().normal(size=(4, 2))), Tensor(np.zeros((2, 3))), row)
        loss = ad.sum_all(out)
    assert out.shape == (4, 3)
    assert np.array_equal(out.data, np.repeat(row.data, 4, axis=0))
    backward(loss, tape)
    assert row.grad.tolist() == [[4.0, 4.0, 4.0]]


def test_tape_does_not_nest():
    with Tape():
        with pytest.raises(ContractError):
            with Tape():
                pass
