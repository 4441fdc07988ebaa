import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treenlg import engine
from treenlg.engine import (
    Adam,
    Tape,
    add,
    clip_gradients,
    concat,
    dot,
    dropout,
    grad_check,
    log,
    matmul,
    mul,
    neg,
    pick,
    row,
    scatter,
    sigmoid,
    softmax,
    sum_all,
    tanh,
)
from treenlg.errors import ContractError, DimensionError, DomainError, ParameterError


def central_diff(f, x, h):
    """Independent finite-difference oracle used throughout this module."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0))


class TestMatmul:
    def test_identity(self):
        t = Tape()
        a = t.leaf([[1.0, 0.0], [0.0, 1.0]])
        b = t.leaf([[2.0], [3.0]])
        assert matmul(a, b).value.tolist() == [[2.0], [3.0]]

    def test_hand_product(self):
        t = Tape()
        out = matmul(t.leaf([[1.0, 2.0]]), t.leaf([[3.0], [4.0]]))
        assert out.value.tolist() == [[11.0]]

    def test_shape_mismatch_names_shapes(self):
        t = Tape()
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))

        t = Tape()
        an = t.leaf(a, param="a")
        loss = sum_all(matmul(an, t.leaf(b)))
        t.backward(loss)
        analytic = t.param_grads({"a": a})["a"]

        numeric = central_diff(lambda: np.sum(a @ b), a, h=1e-6)
        assert rel_err(analytic, numeric) <= 1e-6


class TestElementwise:
    def test_sigmoid_zero(self):
        t = Tape()
        assert sigmoid(t.leaf(0.0)).value == 0.5

    def test_tanh_zero(self):
        t = Tape()
        assert tanh(t.leaf(0.0)).value == 0.0

    def test_mul_hand(self):
        t = Tape()
        out = mul(t.leaf([2.0, 3.0]), t.leaf([4.0, 5.0]))
        assert out.value.tolist() == [8.0, 15.0]

    def test_add_shape_mismatch(self):
        t = Tape()
        with pytest.raises(DimensionError):
            add(t.leaf([1.0, 2.0]), t.leaf([1.0, 2.0, 3.0]))

    def test_scalar_broadcast(self):
        t = Tape()
        out = add(mul(t.leaf([1.0, 2.0]), -1.0), 1.0)
        assert out.value.tolist() == [0.0, -1.0]

    def test_log_rejects_nonpositive(self):
        t = Tape()
        with pytest.raises(DomainError):
            log(t.leaf([1.0, 0.0]))

    def test_concat_mixes_scalars_and_vectors(self):
        t = Tape()
        out = concat([t.leaf(1.0), t.leaf([2.0, 3.0])])
        assert out.value.tolist() == [1.0, 2.0, 3.0]

    def test_nonfinite_rejected(self):
        t = Tape()
        with pytest.raises(DomainError):
            t.leaf([1.0, np.inf])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_values_whose_sum_overflows_accepted(self):
        t = Tape()
        assert t.leaf([1e308, 1e308]).value.tolist() == [1e308, 1e308]
        with pytest.raises(DomainError):
            t.leaf([1e308, 1e308, np.nan])


class TestSoftmax:
    def test_symmetry(self):
        t = Tape()
        assert softmax(t.leaf([0.0, 0.0])).value.tolist() == [0.5, 0.5]

    def test_large_inputs_stable(self):
        t = Tape()
        out = softmax(t.leaf([1000.0, 0.0])).value
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_sums_to_one(self):
        t = Tape()
        out = softmax(t.leaf([1.0, 2.0, 3.0])).value
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_empty_rejected(self):
        t = Tape()
        with pytest.raises(DimensionError):
            softmax(t.leaf(np.zeros(0)))

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_probability_vector_property(self, xs):
        t = Tape()
        out = softmax(t.leaf(np.array(xs))).value
        assert np.all(out >= 0.0)
        assert abs(out.sum() - 1.0) <= 1e-12


class TestBackward:
    def test_square_gradient(self):
        t = Tape()
        x = np.array(3.0)
        xn = t.leaf(x, param="x")
        loss = mul(xn, xn)
        t.backward(loss)
        assert t.param_grads({"x": x})["x"] == pytest.approx(6.0)

    def test_sigmoid_chain_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 3))
        x = rng.normal(size=3)

        def build():
            t = Tape()
            wn = t.leaf(w, param="w")
            return t, sum_all(sigmoid(matmul(wn, t.leaf(x))))

        t, loss = build()
        t.backward(loss)
        analytic = t.param_grads({"w": w})["w"]
        numeric = central_diff(lambda: float(build()[1].value), w, h=1e-6)
        assert rel_err(analytic, numeric) <= 1e-6

    def test_disconnected_parameter_gets_zero(self):
        t = Tape()
        x = np.array([1.0, 2.0])
        unused = np.array([5.0])
        xn = t.leaf(x, param="x")
        t.leaf(unused, param="unused")
        t.backward(sum_all(xn))
        grads = t.param_grads({"x": x, "unused": unused})
        assert grads["unused"].tolist() == [0.0]

    def test_backward_deterministic(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(5, 5))
        t = Tape()
        wn = t.leaf(w, param="w")
        loss = sum_all(tanh(matmul(wn, t.leaf(rng.normal(size=5)))))
        t.backward(loss)
        first = t.param_grads({"w": w})["w"]
        t.backward(loss)
        second = t.param_grads({"w": w})["w"]
        assert np.array_equal(first, second)

    def test_nonscalar_loss_rejected(self):
        t = Tape()
        with pytest.raises(ContractError):
            t.backward(t.leaf([1.0, 2.0]))

    def test_indexing_ops_roundtrip_gradients(self):
        m = np.arange(6.0).reshape(2, 3)
        t = Tape()
        mn = t.leaf(m, param="m")
        r = row(mn, 1)
        s = scatter(r, [2, 0, 1], 4)
        loss = pick(s, 0)
        t.backward(loss)
        g = t.param_grads({"m": m})["m"]
        # pick(s, 0) reads scatter slot 0, which holds r[1] = m[1, 1]
        expected = np.zeros_like(m)
        expected[1, 1] = 1.0
        assert np.array_equal(g, expected)


class TestAdam:
    def test_first_step_matches_hand_formula(self):
        params = {"w": np.array([0.0])}
        opt = Adam(lr=0.001)
        opt.step(params, {"w": np.array([1.0])})
        expected = -0.001 * (1.0 / (1.0 + 1e-8))
        assert params["w"][0] == pytest.approx(expected, rel=1e-12)
        assert opt.step_count == 1

    def test_zero_gradient_leaves_params(self):
        params = {"w": np.array([1.0, -2.0])}
        opt = Adam(lr=0.01)
        opt.step(params, {"w": np.zeros(2)})
        assert params["w"].tolist() == [1.0, -2.0]

    def test_two_steps_on_scalar_quadratic(self):
        # Hand-iterated reference of the same update rule, for loss = theta^2.
        def reference(theta0, lr, n):
            b1, b2, eps = 0.9, 0.999, 1e-8
            m = v = 0.0
            theta = theta0
            deltas = []
            for t in range(1, n + 1):
                g = 2.0 * theta
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                mh = m / (1 - b1 ** t)
                vh = v / (1 - b2 ** t)
                delta = -lr * mh / (math.sqrt(vh) + eps)
                theta += delta
                deltas.append(delta)
            return theta, deltas

        params = {"w": np.array(1.0)}
        opt = Adam(lr=0.05)
        deltas = []
        for _ in range(2):
            before = params["w"].copy()
            opt.step(params, {"w": np.array(2.0 * params["w"])})
            deltas.append(float(params["w"] - before))

        ref_theta, ref_deltas = reference(1.0, 0.05, 2)
        assert params["w"] == pytest.approx(ref_theta, rel=1e-12)
        assert deltas == pytest.approx(ref_deltas, rel=1e-12)
        assert abs(deltas[1]) <= abs(deltas[0]) * (1 + 1e-6)

    def test_shape_mismatch(self):
        opt = Adam(lr=0.01)
        with pytest.raises(DimensionError):
            opt.step({"w": np.zeros(2)}, {"w": np.zeros(3)})


class TestDropout:
    def test_eval_mode_is_identity(self):
        t = Tape()
        x = t.leaf([1.0, 2.0, 3.0])
        assert dropout(x, 0.5, training=False) is x

    def test_rate_zero_is_identity(self):
        t = Tape()
        x = t.leaf([1.0, 2.0])
        assert dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_inverted_scaling_preserves_mean(self):
        t = Tape()
        x = t.leaf(np.ones(100_000))
        out = dropout(x, 0.25, training=True, rng=np.random.default_rng(7))
        assert abs(out.value.mean() - 1.0) <= 0.02

    def test_bad_rate_rejected(self):
        t = Tape()
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ParameterError):
                dropout(t.leaf([1.0]), rate, training=True, rng=np.random.default_rng(0))


class TestGradCheck:
    def test_linear_model_quadratic_loss(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 3))
        x = rng.normal(size=3)
        y = rng.normal(size=2)

        def loss_fn():
            t = Tape()
            wn = t.leaf(w, param="w")
            err = add(matmul(wn, t.leaf(x)), mul(t.leaf(y), -1.0))
            return t, sum_all(mul(err, err))

        report = grad_check(loss_fn, {"w": w}, h=1e-5)
        assert report.max_rel_err <= 1e-8
        assert report.passed(1e-8)

    def test_corrupted_adjoint_is_flagged(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(2, 2))
        x = rng.normal(size=2)

        def bad_tanh(a):
            out = np.tanh(a.value)

            def vjp(g):
                return (g * (1.0 - out * out) * 1.5,)  # deliberately wrong by 1.5x

            return a.tape.op(out, (a,), vjp)

        def loss_fn():
            t = Tape()
            wn = t.leaf(w, param="w")
            return t, sum_all(bad_tanh(matmul(wn, t.leaf(x))))

        report = grad_check(loss_fn, {"w": w}, h=1e-5)
        assert report.failing(1e-4) == ["w"]


class TestClip:
    def test_norm_reported_and_scaled(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
        norm = clip_gradients(grads, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total == pytest.approx(1.0)

    def test_below_threshold_untouched(self):
        grads = {"a": np.array([0.3])}
        clip_gradients(grads, max_norm=5.0)
        assert grads["a"][0] == pytest.approx(0.3)


class TestMisc:
    def test_dot_gradients(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        t = Tape()
        an = t.leaf(a, param="a")
        bn = t.leaf(b, param="b")
        out = dot(an, bn)
        assert out.value == pytest.approx(11.0)
        t.backward(out)
        grads = t.param_grads({"a": a, "b": b})
        assert grads["a"].tolist() == [3.0, 4.0]
        assert grads["b"].tolist() == [1.0, 2.0]

    def test_neg(self):
        t = Tape()
        assert neg(t.leaf([1.0, -2.0])).value.tolist() == [-1.0, 2.0]

    def test_non_recording_tape_same_values(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 3))
        x = rng.normal(size=3)

        def run(recording):
            t = Tape(recording=recording)
            return t, tanh(matmul(t.leaf(w), t.leaf(x))).value

        (recorded, value), (unrecorded, same) = run(True), run(False)
        assert np.array_equal(value, same)
        assert len(recorded.nodes) == 4
        assert unrecorded.nodes == []
