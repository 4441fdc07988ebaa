import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treenlg

from oracle.engine import (
    Tape as RefTape,
    add,
    concat,
    dot,
    dropout,
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
from treenlg.engine import (
    Adam,
    ParamBinding,
    Tape,
    clip_gradients,
    dropout_mask,
    global_norm,
    grad_check,
)
from treenlg.errors import ContractError, DimensionError, DomainError, ParameterError

# The fine-grained ops live on in the reference engine (tests/oracle), so
# their tests run there, on its tape.  Tests of the package's tape,
# parameter binding, optimizer and gradient checker build their graphs from
# the local ops below, registered through ``Tape.op`` like the kernels'.


def local_matmul(tape, a, b):
    """[m, n] @ [n]."""
    return tape.op(a.value @ b.value, (a, b),
                   lambda g: (np.outer(g, b.value), a.value.T @ g))


def local_mul(tape, a, b):
    return tape.op(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


def local_add(tape, a, b):
    return tape.op(a.value + b.value, (a, b), lambda g: (g, g))


def local_tanh(tape, a):
    out = np.tanh(a.value)
    return tape.op(out, (a,), lambda g: (g * (1.0 - out * out),))


def local_sigmoid(tape, a):
    out = 1.0 / (1.0 + np.exp(-a.value))
    return tape.op(out, (a,), lambda g: (g * out * (1.0 - out),))


def local_sum(tape, a):
    return tape.op(np.sum(a.value), (a,), lambda g: (np.full(a.shape, g),))


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
        t = RefTape()
        a = t.leaf([[1.0, 0.0], [0.0, 1.0]])
        b = t.leaf([[2.0], [3.0]])
        assert matmul(a, b).value.tolist() == [[2.0], [3.0]]

    def test_hand_product(self):
        t = RefTape()
        out = matmul(t.leaf([[1.0, 2.0]]), t.leaf([[3.0], [4.0]]))
        assert out.value.tolist() == [[11.0]]

    def test_shape_mismatch_names_shapes(self):
        t = RefTape()
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))

        t = RefTape()
        an = t.leaf(a, param="a")
        loss = sum_all(matmul(an, t.leaf(b)))
        t.backward(loss)
        analytic = t.param_grads({"a": a})["a"]

        numeric = central_diff(lambda: np.sum(a @ b), a, h=1e-6)
        assert rel_err(analytic, numeric) <= 1e-6


class TestElementwise:
    def test_sigmoid_zero(self):
        t = RefTape()
        assert sigmoid(t.leaf(0.0)).value == 0.5

    def test_tanh_zero(self):
        t = RefTape()
        assert tanh(t.leaf(0.0)).value == 0.0

    def test_mul_hand(self):
        t = RefTape()
        out = mul(t.leaf([2.0, 3.0]), t.leaf([4.0, 5.0]))
        assert out.value.tolist() == [8.0, 15.0]

    def test_add_shape_mismatch(self):
        t = RefTape()
        with pytest.raises(DimensionError):
            add(t.leaf([1.0, 2.0]), t.leaf([1.0, 2.0, 3.0]))

    def test_scalar_broadcast(self):
        t = RefTape()
        out = add(mul(t.leaf([1.0, 2.0]), -1.0), 1.0)
        assert out.value.tolist() == [0.0, -1.0]

    def test_log_rejects_nonpositive(self):
        t = RefTape()
        with pytest.raises(DomainError):
            log(t.leaf([1.0, 0.0]))

    def test_concat_mixes_scalars_and_vectors(self):
        t = RefTape()
        out = concat([t.leaf(1.0), t.leaf([2.0, 3.0])])
        assert out.value.tolist() == [1.0, 2.0, 3.0]

    def test_nonfinite_rejected(self):
        t = Tape()
        with pytest.raises(DomainError):
            t.leaf([1.0, np.inf])

    def test_finite_values_whose_sum_overflows_accepted(self):
        t = Tape()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert t.leaf([1e308, 1e308]).value.tolist() == [1e308, 1e308]
        with pytest.raises(DomainError):
            t.leaf([1e308, 1e308, np.nan])


class TestSoftmax:
    def test_symmetry(self):
        t = RefTape()
        assert softmax(t.leaf([0.0, 0.0])).value.tolist() == [0.5, 0.5]

    def test_large_inputs_stable(self):
        t = RefTape()
        out = softmax(t.leaf([1000.0, 0.0])).value
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_sums_to_one(self):
        t = RefTape()
        out = softmax(t.leaf([1.0, 2.0, 3.0])).value
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_empty_rejected(self):
        t = RefTape()
        with pytest.raises(DimensionError):
            softmax(t.leaf(np.zeros(0)))

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_probability_vector_property(self, xs):
        t = RefTape()
        out = softmax(t.leaf(np.array(xs))).value
        assert np.all(out >= 0.0)
        assert abs(out.sum() - 1.0) <= 1e-12


class TestBackward:
    def test_square_gradient(self):
        t = Tape()
        x = np.array(3.0)
        xn = t.leaf(x, param="x")
        loss = local_mul(t, xn, xn)
        t.backward(loss)
        assert t.param_grads({"x": x})["x"] == pytest.approx(6.0)

    def test_sigmoid_chain_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 3))
        x = rng.normal(size=3)

        def build():
            t = Tape()
            wn = t.leaf(w, param="w")
            return t, local_sum(t, local_sigmoid(t, local_matmul(t, wn, t.leaf(x))))

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
        t.backward(local_sum(t, xn))
        grads = t.param_grads({"x": x, "unused": unused})
        assert grads["unused"].tolist() == [0.0]

    def test_backward_deterministic(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(5, 5))
        t = Tape()
        wn = t.leaf(w, param="w")
        loss = local_sum(t, local_tanh(t, local_matmul(t, wn, t.leaf(rng.normal(size=5)))))
        t.backward(loss)
        first = t.param_grads({"w": w})["w"]
        t.backward(loss)
        second = t.param_grads({"w": w})["w"]
        assert np.array_equal(first, second)

    def test_nonscalar_loss_rejected(self):
        t = Tape()
        with pytest.raises(ContractError):
            t.backward(t.leaf([1.0, 2.0]))

    def test_loss_from_another_tape_rejected(self):
        other = Tape()
        loss = local_sum(other, other.leaf([1.0, 2.0]))
        with pytest.raises(ContractError, match="not on this tape"):
            Tape().backward(loss)

    def test_indexing_ops_roundtrip_gradients(self):
        m = np.arange(6.0).reshape(2, 3)
        t = RefTape()
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


class TestParamBinding:
    def test_one_leaf_per_name_collects_its_gradient(self):
        rng = np.random.default_rng(6)
        params = {"w": rng.normal(size=(3, 3)), "w.b": rng.normal(size=3),
                  "unused": rng.normal(size=2)}
        x = rng.normal(size=3)
        t = Tape()
        binding = ParamBinding(t, params)
        w, bias = binding["w"], binding["w.b"]
        assert binding["w"] is w and w.param == "w"
        assert w.value is params["w"]
        weights = rng.normal(size=3)
        z = local_add(t, local_matmul(t, w, t.leaf(x)), bias)
        t.backward(local_sum(t, local_mul(t, z, t.leaf(weights))))
        grads = t.param_grads(params)
        assert np.array_equal(grads["w"], np.outer(weights, x))
        assert grads["w.b"].tolist() == weights.tolist()
        assert grads["unused"].tolist() == [0.0, 0.0]

    def test_leaves_are_not_checked_again(self, monkeypatch):
        """Parameters are checked where they are written (``Model``,
        ``Adam.step``), so binding one to a tape makes no finiteness pass."""
        calls = []
        monkeypatch.setattr(treenlg.engine, "_as_f64", lambda value: calls.append(value))
        t = Tape()
        w = ParamBinding(t, {"w": np.ones(3)})["w"]
        assert t.nodes == [w] and w.param == "w" and calls == []

    def test_unknown_parameter_rejected(self):
        t = Tape()
        binding = ParamBinding(t, {"a": np.ones(2), "b": np.ones(2)})
        t.backward(local_sum(t, local_add(t, binding["a"], binding["b"])))
        with pytest.raises(ContractError, match="'b'"):
            t.param_grads({"a": np.ones(2)})


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

    def test_non_finite_update_rejected(self):
        """Parameters are checked where Adam writes them, not on every tape."""
        opt = Adam(lr=0.01)
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="'w'"):
            opt.step({"w": np.zeros(2)}, {"w": np.array([1.0, np.nan])})


class TestDropout:
    def test_eval_mode_is_identity(self):
        t = RefTape()
        x = t.leaf([1.0, 2.0, 3.0])
        assert dropout(x, 0.5, training=False) is x

    def test_rate_zero_is_identity(self):
        t = RefTape()
        x = t.leaf([1.0, 2.0])
        assert dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_inverted_scaling_preserves_mean(self):
        t = RefTape()
        x = t.leaf(np.ones(100_000))
        out = dropout(x, 0.25, training=True, rng=np.random.default_rng(7))
        assert abs(out.value.mean() - 1.0) <= 0.02

    def test_bad_rate_rejected(self):
        t = RefTape()
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ParameterError):
                dropout(t.leaf([1.0]), rate, training=True, rng=np.random.default_rng(0))


class TestDropoutMask:
    def test_eval_mode_and_rate_zero_draw_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert dropout_mask((3,), 0.5, training=False, rng=rng) is None
        assert dropout_mask((3,), 0.0, training=True, rng=rng) is None
        assert rng.bit_generator.state == state

    def test_mask_is_rescaled_keep_indicator(self):
        mask = dropout_mask((1000,), 0.25, training=True, rng=np.random.default_rng(7))
        assert set(np.unique(mask).tolist()) <= {0.0, 1.0 / 0.75}

    def test_bad_rate_or_missing_rng_rejected(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ParameterError):
                dropout_mask((1,), rate, training=True, rng=np.random.default_rng(0))
        with pytest.raises(ParameterError):
            dropout_mask((1,), 0.5, training=True)


class TestGradCheck:
    def test_linear_model_quadratic_loss(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 3))
        x = rng.normal(size=3)
        y = rng.normal(size=2)

        def loss_fn():
            t = Tape()
            wn = t.leaf(w, param="w")
            err = local_add(t, local_matmul(t, wn, t.leaf(x)), t.leaf(-y))
            return t, local_sum(t, local_mul(t, err, err))

        report = grad_check(loss_fn, {"w": w}, h=1e-5)
        assert report.max_rel_err <= 1e-8
        assert report.passed(1e-8)

    def test_corrupted_adjoint_is_flagged(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(2, 2))
        x = rng.normal(size=2)

        def bad_tanh(t, a):
            out = np.tanh(a.value)

            def vjp(g):
                return (g * (1.0 - out * out) * 1.5,)  # deliberately wrong by 1.5x

            return t.op(out, (a,), vjp)

        def loss_fn():
            t = Tape()
            wn = t.leaf(w, param="w")
            return t, local_sum(t, bad_tanh(t, local_matmul(t, wn, t.leaf(x))))

        report = grad_check(loss_fn, {"w": w}, h=1e-5)
        assert report.failing(1e-4) == ["w"]


class TestClip:
    def test_norm_reported_and_scaled(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
        norm = clip_gradients(grads, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total == pytest.approx(1.0)

    def test_global_norm(self):
        assert global_norm({"a": np.array([3.0, 0.0]), "b": np.array([[0.0], [4.0]])}) == 5.0

    def test_below_threshold_untouched(self):
        grads = {"a": np.array([0.3])}
        clip_gradients(grads, max_norm=5.0)
        assert grads["a"][0] == pytest.approx(0.3)

    @pytest.mark.parametrize("max_norm", [0.0, -1.0, float("nan")])
    def test_non_positive_max_norm_rejected(self, max_norm):
        with pytest.raises(ParameterError):
            clip_gradients({"a": np.array([3.0, 4.0])}, max_norm=max_norm)


class TestMisc:
    def test_dot_gradients(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        t = RefTape()
        an = t.leaf(a, param="a")
        bn = t.leaf(b, param="b")
        out = dot(an, bn)
        assert out.value == pytest.approx(11.0)
        t.backward(out)
        grads = t.param_grads({"a": a, "b": b})
        assert grads["a"].tolist() == [3.0, 4.0]
        assert grads["b"].tolist() == [1.0, 2.0]

    def test_neg(self):
        t = RefTape()
        assert neg(t.leaf([1.0, -2.0])).value.tolist() == [-1.0, 2.0]

    def test_non_recording_tape_same_values(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 3))
        x = rng.normal(size=3)

        def run(recording):
            t = Tape(recording=recording)
            return t, local_tanh(t, local_matmul(t, t.leaf(w), t.leaf(x))).value

        (recorded, value), (unrecorded, same) = run(True), run(False)
        assert np.array_equal(value, same)
        assert len(recorded.nodes) == 4
        assert unrecorded.nodes == []


class TestSurface:
    def test_every_public_engine_name_is_used_in_the_package(self):
        """Each public top-level function and class of ``treenlg.engine`` is
        imported from it, or read as ``engine.<name>``, by another module of
        the package (``__init__``'s exports included), so the engine carries
        no op that nothing calls."""
        package = Path(treenlg.__file__).parent
        engine_tree = ast.parse((package / "engine.py").read_text())
        public = {node.name for node in engine_tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")}
        used: set[str] = set()
        for path in package.glob("*.py"):
            if path.name == "engine.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("engine"):
                    used.update(alias.name for alias in node.names)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "engine"):
                    used.add(node.attr)
        assert public, "no public names found in engine.py"
        assert sorted(public - used) == []
