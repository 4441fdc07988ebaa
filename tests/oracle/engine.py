"""Reference copy of the engine as it was before the fused tree encoder and
loss: the fine-grained tape ops (``add``, ``mul``, ``matmul``, ``sigmoid``,
``pick``, ``vstack``, ...) live on only here, as the executable
specification that tests/test_oracle.py and tests/test_engine.py check.
Only the imports differ from the original.

Dense float64 arithmetic with a reverse-mode tape, Adam, dropout and a
finite-difference gradient checker.

Every tensor lives on a :class:`Tape` as a :class:`Node`.  Nodes are appended
in forward order, so the node list is already a topological order and
``backward`` is a single reverse sweep.  All data is 64-bit; results with
NaN/Inf are rejected at node creation so a blow-up is caught where it happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from treenlg.errors import ContractError, DimensionError, DomainError, ParameterError

Array = np.ndarray


def _as_f64(value) -> Array:
    arr = np.asarray(value, dtype=np.float64)
    # Element-wise, not a probe of the sum: a sum of finite values can
    # overflow (and warn), and this costs the same at the sizes used here.
    if not np.isfinite(arr).all():
        raise DomainError("non-finite values in tensor")
    return arr


class Node:
    """One entry on the tape: a cached forward value plus its adjoint hook."""

    __slots__ = ("tape", "value", "parents", "vjp", "param", "grad", "grad_owned")

    def __init__(self, tape: "Tape", value: Array,
                 parents: tuple["Node", ...], vjp, param: str | None):
        self.tape = tape
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.param = param
        self.grad: Array | None = None
        self.grad_owned = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover
        return f"Node(shape={self.value.shape}, param={self.param})"


class Tape:
    """Single-owner computation graph; rebuilt per example.

    With ``recording=False`` the same numeric path is executed but no
    nodes or adjoint closures are kept, which makes pure inference cheaper.
    """

    def __init__(self, recording: bool = True):
        self.recording = recording
        self.nodes: list[Node] = []

    def _append(self, value: Array, parents: tuple[Node, ...], vjp, param=None) -> Node:
        node = Node(self, value, parents, vjp, param)
        if self.recording:
            self.nodes.append(node)
        return node

    def leaf(self, value, param: str | None = None) -> Node:
        """Register an input tensor; ``param`` names it for gradient collection."""
        return self._append(_as_f64(value), (), None, param)

    def op(self, value, parents: tuple[Node, ...], vjp: Callable[[Array], tuple]) -> Node:
        """Register an op result. ``vjp`` maps the output adjoint to one
        adjoint per parent (None for a parent that gets no gradient)."""
        for p in parents:
            if p.tape is not self:
                raise ContractError("inputs live on a different tape")
        if not self.recording:
            return self._append(_as_f64(value), (), None)
        return self._append(_as_f64(value), parents, vjp)

    def backward(self, loss: Node) -> None:
        """Populate ``grad`` on every node reachable from the scalar ``loss``."""
        if loss.tape is not self:
            raise ContractError("loss node lives on a different tape")
        if loss.value.shape != ():
            raise ContractError(f"loss must be a scalar, got shape {loss.value.shape}")
        for node in self.nodes:
            node.grad = None
            node.grad_owned = False
        loss.grad = np.ones((), dtype=np.float64)
        for node in reversed(self.nodes):
            if node.grad is None or node.vjp is None:
                continue
            parent_grads = node.vjp(node.grad)
            for parent, pg in zip(node.parents, parent_grads):
                if pg is None:
                    continue
                # Copy-on-write accumulation: a first contribution may alias
                # another node's adjoint, so take ownership before mutating.
                if parent.grad is None:
                    parent.grad = pg
                elif parent.grad_owned:
                    parent.grad += pg
                else:
                    parent.grad = parent.grad + pg
                    parent.grad_owned = True

    def param_grads(self, params: Mapping[str, Array],
                    out: dict[str, Array] | None = None) -> dict[str, Array]:
        """Gradients per named parameter; zeros for parameters the loss never
        touched.  With ``out`` the gradients accumulate in place (batching)."""
        grads = out if out is not None else \
            {name: np.zeros_like(value) for name, value in params.items()}
        for node in self.nodes:
            if node.param is not None and node.grad is not None:
                if node.param not in grads:
                    raise ContractError(f"unknown parameter {node.param!r} on tape")
                grads[node.param] += node.grad
        return grads


class ParamBinding:
    """Binds a named-parameter dict to one tape, one leaf per name.

    ``stacked``/``joined`` cache row-stacked matrices and concatenated bias
    vectors so gate blocks can share one matmul per step."""

    def __init__(self, tape: Tape, params: Mapping[str, Array]):
        self.tape = tape
        self.params = params
        self._leaves: dict[str, Node] = {}
        self._stacks: dict[tuple[str, ...], Node] = {}

    def __getitem__(self, name: str) -> Node:
        node = self._leaves.get(name)
        if node is None:
            node = self.tape.leaf(self.params[name], param=name)
            self._leaves[name] = node
        return node

    def stacked(self, names: tuple[str, ...]) -> Node:
        node = self._stacks.get(names)
        if node is None:
            node = vstack([self[n] for n in names])
            self._stacks[names] = node
        return node

    def joined(self, names: tuple[str, ...]) -> Node:
        key = ("1d",) + names
        node = self._stacks.get(key)
        if node is None:
            node = concat([self[n] for n in names])
            self._stacks[key] = node
        return node


def _same_tape(*nodes: Node) -> Tape:
    tape = nodes[0].tape
    for n in nodes[1:]:
        if n.tape is not tape:
            raise ContractError("operands live on different tapes")
    return tape


def _coerce(a: Node, b) -> tuple[Node, Node]:
    """Allow python scalars as constant operands."""
    if isinstance(b, Node):
        return a, b
    return a, a.tape.leaf(np.float64(b))


def add(a: Node, b: Node | float) -> Node:
    a, b = _coerce(a, b)
    tape = _same_tape(a, b)
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise DimensionError(f"add shapes {a.shape} vs {b.shape}")
    value = a.value + b.value

    def vjp(g: Array):
        ga = g if a.shape == g.shape else np.sum(g)
        gb = g if b.shape == g.shape else np.sum(g)
        return ga, gb

    return tape.op(value, (a, b), vjp)


def mul(a: Node, b: Node | float) -> Node:
    a, b = _coerce(a, b)
    tape = _same_tape(a, b)
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise DimensionError(f"mul shapes {a.shape} vs {b.shape}")
    value = a.value * b.value

    def vjp(g: Array):
        ga = g * b.value
        gb = g * a.value
        if a.shape != ga.shape:
            ga = np.sum(ga)
        if b.shape != gb.shape:
            gb = np.sum(gb)
        return ga, gb

    return tape.op(value, (a, b), vjp)


def neg(a: Node) -> Node:
    return mul(a, -1.0)


def matmul(a: Node, b: Node) -> Node:
    tape = _same_tape(a, b)
    if a.value.ndim != 2 or b.value.ndim not in (1, 2):
        raise DimensionError(f"matmul expects 2-d x (1|2)-d, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    value = a.value @ b.value

    if b.value.ndim == 2:
        def vjp(g: Array):
            return g @ b.value.T, a.value.T @ g
    else:
        def vjp(g: Array):
            return g[:, None] * b.value[None, :], a.value.T @ g

    return tape.op(value, (a, b), vjp)


def dot(a: Node, b: Node) -> Node:
    """Inner product of two 1-d vectors; the attention similarity score."""
    tape = _same_tape(a, b)
    if a.value.ndim != 1 or a.shape != b.shape:
        raise DimensionError(f"dot expects equal 1-d shapes, got {a.shape} x {b.shape}")
    value = np.float64(a.value @ b.value)

    def vjp(g: Array):
        return g * b.value, g * a.value

    return tape.op(value, (a, b), vjp)


def logistic(x: Array) -> Array:
    """Element-wise sigmoid, stable for large |x|: both branches
    exponentiate -|x| only."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def softmax_last(x: Array) -> Array:
    """Softmax over the last axis, max-subtracted for stability."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def sigmoid(a: Node) -> Node:
    out = logistic(a.value)

    def vjp(g: Array):
        return (g * out * (1.0 - out),)

    return a.tape.op(out, (a,), vjp)


def tanh(a: Node) -> Node:
    out = np.tanh(a.value)

    def vjp(g: Array):
        return (g * (1.0 - out * out),)

    return a.tape.op(out, (a,), vjp)


def log(a: Node) -> Node:
    if np.any(a.value <= 0.0):
        raise DomainError("log of non-positive value")
    out = np.log(a.value)

    def vjp(g: Array):
        return (g / a.value,)

    return a.tape.op(out, (a,), vjp)


def sum_all(a: Node) -> Node:
    value = np.float64(np.sum(a.value))

    def vjp(g: Array):
        return (np.broadcast_to(g, a.shape).copy() if a.shape else g,)

    return a.tape.op(value, (a,), vjp)


def concat(parts: Sequence[Node]) -> Node:
    """Concatenate scalars and 1-d vectors into one 1-d vector."""
    if not parts:
        raise DimensionError("concat of zero parts")
    tape = _same_tape(*parts)
    flats = []
    for p in parts:
        if p.value.ndim > 1:
            raise DimensionError(f"concat expects scalars or 1-d parts, got {p.shape}")
        flats.append(np.atleast_1d(p.value))
    value = np.concatenate(flats)
    sizes = [f.size for f in flats]

    def vjp(g: Array):
        out = []
        offset = 0
        for p, size in zip(parts, sizes):
            piece = g[offset:offset + size]
            out.append(piece.reshape(p.shape))
            offset += size
        return tuple(out)

    return tape.op(value, tuple(parts), vjp)


def vstack(parts: Sequence[Node]) -> Node:
    """Stack 2-d blocks row-wise."""
    if not parts:
        raise DimensionError("vstack of zero parts")
    tape = _same_tape(*parts)
    cols = {p.shape[1] for p in parts if p.value.ndim == 2}
    if any(p.value.ndim != 2 for p in parts) or len(cols) != 1:
        raise DimensionError(f"vstack expects 2-d blocks of equal width, got "
                             f"{[p.shape for p in parts]}")
    value = np.concatenate([p.value for p in parts], axis=0)
    rows = [p.shape[0] for p in parts]

    def vjp(g: Array):
        out = []
        offset = 0
        for r in rows:
            out.append(g[offset:offset + r])
            offset += r
        return tuple(out)

    return tape.op(value, tuple(parts), vjp)


def slice_last(a: Node, start: int, stop: int) -> Node:
    """Contiguous segment along the last axis."""
    if a.value.ndim == 0 or not 0 <= start <= stop <= a.shape[-1]:
        raise DimensionError(f"bad slice [{start}:{stop}] of shape {a.shape}")
    value = a.value[..., start:stop]

    def vjp(g: Array):
        z = np.zeros_like(a.value)
        z[..., start:stop] = g
        return (z,)

    return a.tape.op(value, (a,), vjp)


def softmax(a: Node) -> Node:
    """Probability vector over a 1-d input, max-subtracted for stability."""
    if a.value.ndim != 1 or a.value.size == 0:
        raise DimensionError(f"softmax expects a non-empty vector, got shape {a.shape}")
    out = softmax_last(a.value)

    def vjp(g: Array):
        return (out * (g - np.dot(g, out)),)

    return a.tape.op(out, (a,), vjp)


def pick(a: Node, index: int) -> Node:
    """Select one element of a vector as a scalar node."""
    if a.value.ndim != 1:
        raise DimensionError(f"pick expects a vector, got shape {a.shape}")
    if not 0 <= index < a.value.size:
        raise ContractError(f"pick index {index} out of range for size {a.value.size}")
    value = np.float64(a.value[index])

    def vjp(g: Array):
        z = np.zeros_like(a.value)
        z[index] = g
        return (z,)

    return a.tape.op(value, (a,), vjp)


def row(m: Node, index: int) -> Node:
    """Select one matrix row; the embedding lookup."""
    if m.value.ndim != 2:
        raise DimensionError(f"row expects a matrix, got shape {m.shape}")
    if not 0 <= index < m.shape[0]:
        raise ContractError(f"row index {index} out of range for {m.shape}")
    value = m.value[index].copy()

    def vjp(g: Array):
        z = np.zeros_like(m.value)
        z[index] = g
        return (z,)

    return m.tape.op(value, (m,), vjp)


def scatter(a: Node, indices: Sequence[int], size: int) -> Node:
    """Place vector entries at ``indices`` of a zero vector of ``size``."""
    idx = np.asarray(indices, dtype=np.intp)
    if a.value.ndim != 1 or idx.size != a.value.size:
        raise DimensionError(f"scatter expects matching vector/indices, got {a.shape} vs {idx.size}")
    if idx.size != np.unique(idx).size:
        raise ContractError("scatter indices must be distinct")
    value = np.zeros(size, dtype=np.float64)
    value[idx] = a.value

    def vjp(g: Array):
        return (g[idx],)

    return a.tape.op(value, (a,), vjp)


def dropout_mask(shape: tuple[int, ...], rate: float, training: bool,
                 rng: np.random.Generator | None = None) -> Array | None:
    """Inverted-dropout mask, already rescaled by 1/(1-rate), drawn as one
    ``rng.random(shape)``; None (and no draw) in eval mode or at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ParameterError("training-mode dropout needs an rng")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def dropout(a: Node, rate: float, training: bool, rng: np.random.Generator | None = None) -> Node:
    """Inverted dropout: mask then rescale by 1/(1-rate); identity in eval mode."""
    mask = dropout_mask(a.shape, rate, training, rng)
    if mask is None:
        return a
    value = a.value * mask

    def vjp(g: Array):
        return (g * mask,)

    return a.tape.op(value, (a,), vjp)


def init_uniform(shapes: Mapping[str, tuple[int, ...]], rng: np.random.Generator,
                 scale: float = 0.1) -> dict[str, Array]:
    """Parameters drawn uniformly from [-scale, scale] in the order of
    ``shapes``; biases (names ending in ".b") start at zero and draw nothing."""
    return {name: np.zeros(shape) if name.endswith(".b")
            else rng.uniform(-scale, scale, size=shape)
            for name, shape in shapes.items()}


class Adam:
    """Adam with bias correction; moments keyed by parameter name."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: dict[str, Array] = {}
        self.v: dict[str, Array] = {}

    def step(self, params: dict[str, Array], grads: Mapping[str, Array]) -> None:
        """Update ``params`` in place from ``grads`` of identical shapes."""
        self.step_count += 1
        t = self.step_count
        for name, theta in params.items():
            g = grads[name]
            if g.shape != theta.shape:
                raise DimensionError(f"grad shape {g.shape} vs param shape {theta.shape} for {name!r}")
            m = self.m.setdefault(name, np.zeros_like(theta))
            v = self.v.setdefault(name, np.zeros_like(theta))
            if m.shape != theta.shape:
                raise DimensionError(f"moment shape {m.shape} vs param shape {theta.shape} for {name!r}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            theta -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_gradients(grads: dict[str, Array], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    if not max_norm > 0.0:  # also rejects NaN
        raise ParameterError(f"clip norm must be positive, got {max_norm}")
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


@dataclass
class GradCheckReport:
    """Per-parameter worst relative error between analytic and numeric gradients."""

    per_param: dict[str, float]
    h: float

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    def failing(self, tolerance: float) -> list[str]:
        return sorted(name for name, err in self.per_param.items() if err > tolerance)

    def passed(self, tolerance: float) -> bool:
        return not self.failing(tolerance)


def _rel_err(a: float, n: float) -> float:
    # Guarded denominator: absolute comparison for tiny gradients, relative otherwise.
    return abs(a - n) / max(abs(a), abs(n), 1.0)


def grad_check(loss_fn: Callable[[], tuple[Tape, Node]],
               params: dict[str, Array], h: float = 1e-5,
               value_fn: Callable[[], float] | None = None) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    ``loss_fn`` must rebuild the graph from the current parameter values and
    be deterministic (dropout disabled, fixed inputs).  ``value_fn``, when
    given, is a cheaper forward-only evaluation used for the difference
    quotients; it must compute the same number as ``loss_fn``.
    """
    tape, loss = loss_fn()
    tape.backward(loss)
    analytic = tape.param_grads(params)
    if value_fn is None:
        value_fn = lambda: float(loss_fn()[1].value)

    per_param: dict[str, float] = {}
    for name, theta in params.items():
        flat = theta.reshape(-1)
        if flat.base is not theta:
            raise ContractError(f"parameter {name!r} must be contiguous for in-place perturbation")
        a_flat = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = value_fn()
            flat[i] = orig - h
            f_minus = value_fn()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            worst = max(worst, _rel_err(float(a_flat[i]), numeric))
        per_param[name] = worst
    return GradCheckReport(per_param, h)
