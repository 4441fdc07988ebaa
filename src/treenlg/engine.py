"""Dense float64 arithmetic on a reverse-mode tape, Adam, dropout masks and a
finite-difference gradient checker.

A :class:`Tape` records one forward pass as :class:`Node` entries: parameter
and input leaves, and the results of the fused ops that the encoder and
the teacher-forced decoder register through ``Tape.op``, each with a
closed-form adjoint.  Nodes are appended in forward order, so the node list is already
a topological order and ``backward`` is a single reverse sweep.  Nodes do
not refer to their tape: kernels take it from their ``ParamBinding``, and a
finished tape is freed by reference counting.  All data is 64-bit.

Finiteness is checked where values are made or written: an input leaf or
op value with NaN/Inf is rejected when it is registered, and parameters
when a ``Model`` is built and after each ``Adam.step``, not again in their
``ParamBinding`` leaves.  The decoder kernels check their own outputs.

An op's inputs may be one row ([n]) or a stack of K rows ([K, n]): one
tape holds a whole minibatch, as a chain of ops whose length does not
depend on the sentences' lengths.  The adjoint of a weight shared by the
rows is the sum of the per-row adjoints, formed as one matrix product
(Δᵀ·X) over the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ContractError, DimensionError, DomainError, ParameterError

Array = np.ndarray


def check_finite(value: Array, what: str = "tensor") -> Array:
    """``value`` itself, or ``DomainError`` if it holds NaN or Inf."""
    # Element-wise, not a probe of the sum: a sum of finite values can
    # overflow (and warn), and this costs the same at the sizes used here.
    if not np.isfinite(value).all():
        raise DomainError(f"non-finite values in {what}")
    return value


def _as_f64(value) -> Array:
    return check_finite(np.asarray(value, dtype=np.float64))


class Node:
    """One entry on the tape: a cached forward value plus its adjoint hook.

    ``param`` names the parameter a leaf holds.  A node does not refer to
    its tape, so nothing keeps a finished tape alive but its users; a node
    built directly (``Node(value)``) is on no tape and is not checked."""

    __slots__ = ("value", "parents", "vjp", "param", "grad", "grad_owned", "__weakref__")

    def __init__(self, value: Array, parents: tuple["Node", ...] = (), vjp=None,
                 param: str | None = None):
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
    """Single-owner computation graph; rebuilt per minibatch.

    With ``recording=False`` the same numeric path is executed but no
    nodes or adjoint closures are kept, which makes pure inference cheaper.
    """

    def __init__(self, recording: bool = True):
        self.recording = recording
        self.nodes: list[Node] = []

    def _append(self, node: Node) -> Node:
        if self.recording:
            self.nodes.append(node)
        return node

    def leaf(self, value, param: str | None = None) -> Node:
        """Register an input tensor; ``param`` names it for gradient collection."""
        return self._append(Node(_as_f64(value), param=param))

    def op(self, value, parents: tuple[Node, ...], vjp: Callable[[Array], tuple]) -> Node:
        """Register an op result.  ``parents`` must be nodes of this tape;
        ``vjp`` maps the output adjoint to one adjoint per parent (None for
        a parent that gets no gradient)."""
        value = _as_f64(value)
        return self._append(Node(value, parents, vjp) if self.recording else Node(value))

    def backward(self, loss: Node) -> None:
        """Populate ``grad`` on every leaf reachable from the scalar ``loss``.
        An op's adjoint is dropped once its parents have theirs, so a
        minibatch's intermediate adjoints are not all held at once."""
        if loss.value.shape != ():
            raise ContractError(f"loss must be a scalar, got shape {loss.value.shape}")
        if loss not in self.nodes:
            raise ContractError("loss node is not on this tape")
        for node in self.nodes:
            node.grad = None
            node.grad_owned = False
        loss.grad = np.ones((), dtype=np.float64)
        for node in reversed(self.nodes):
            if node.grad is None or node.vjp is None:
                continue
            parent_grads = node.vjp(node.grad)
            node.grad = None
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

    def param_grads(self, params: Mapping[str, Array]) -> dict[str, Array]:
        """Gradients per named parameter; zeros for parameters the loss never
        touched."""
        grads = {name: np.zeros_like(value) for name, value in params.items()}
        for node in self.nodes:
            if node.param is None or node.grad is None:
                continue
            if node.param not in grads:
                raise ContractError(f"unknown parameter {node.param!r} on tape")
            grads[node.param] += node.grad
        return grads


class ParamBinding:
    """Binds a named-parameter dict to one tape, one leaf per name; a leaf
    holds the parameter array itself, unchecked."""

    def __init__(self, tape: Tape, params: Mapping[str, Array]):
        self.tape = tape
        self.params = params
        self._leaves: dict[str, Node] = {}

    def __getitem__(self, name: str) -> Node:
        node = self._leaves.get(name)
        if node is None:
            node = self._leaves[name] = self.tape._append(Node(self.params[name], param=name))
        return node


def logistic(x: Array) -> Array:
    """Element-wise sigmoid, stable for large |x|: both branches
    exponentiate -|x| only."""
    ex = np.exp(-np.abs(x))
    d = 1.0 + ex
    return np.where(x >= 0, 1.0 / d, ex / d)


def softmax_last(x: Array) -> Array:
    """Softmax over the last axis, max-subtracted for stability."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def slice_last(tape: Tape, a: Node, start: int, stop: int) -> Node:
    """Contiguous segment of a tape node along the last axis: the view that
    exposes one part of a fused op's packed output."""
    if a.value.ndim == 0 or not 0 <= start <= stop <= a.shape[-1]:
        raise DimensionError(f"bad slice [{start}:{stop}] of shape {a.shape}")
    value = a.value[..., start:stop]

    def vjp(g: Array):
        z = np.zeros_like(a.value)
        z[..., start:stop] = g
        return (z,)

    return tape.op(value, (a,), vjp)


def take_rows(tape: Tape, a: Node, rows) -> Node:
    """Rows of a stack ([K, n]; a single row [n] counts as a stack of one):
    ``rows`` is an int (giving one [n] row), a slice or an index array,
    whose entries must be distinct on a recording tape."""
    if a.value.ndim not in (1, 2):
        raise DimensionError(f"take_rows needs a stack of rows, got shape {a.shape}")
    stack = a.value.reshape(-1, a.shape[-1])
    value = stack[rows]
    if tape.recording and np.ndim(rows) == 1 and len(np.unique(rows)) != len(rows):
        raise ContractError("take_rows on a recording tape needs distinct rows")

    def vjp(g: Array):
        z = np.zeros_like(stack)
        z[rows] = g
        return (z.reshape(a.shape),)

    return tape.op(value, (a,), vjp)


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


def init_uniform(blocks: list[tuple[str, tuple[int, ...]]], rng: np.random.Generator,
                 scale: float = 0.1) -> dict[str, Array]:
    """Parameters drawn uniformly from [-scale, scale], one (name, shape)
    block at a time in list order; the blocks of one name are joined by
    rows in that order (a gate stack has one block per gate)."""
    drawn: dict[str, list[Array]] = {}
    for name, shape in blocks:
        drawn.setdefault(name, []).append(rng.uniform(-scale, scale, size=shape))
    return {name: np.concatenate(parts) for name, parts in drawn.items()}


class Adam:
    """Adam with bias correction; moments keyed by parameter name.  A step
    that leaves a non-finite parameter value raises ``DomainError``."""

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
            check_finite(theta, f"parameter {name!r} after an Adam step")


def global_norm(grads: Mapping[str, Array]) -> float:
    """L2 norm of all gradients taken together."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def clip_gradients(grads: dict[str, Array], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    if not max_norm > 0.0:  # also rejects NaN
        raise ParameterError(f"clip norm must be positive, got {max_norm}")
    norm = global_norm(grads)
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
