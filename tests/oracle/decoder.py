"""Reference copy of the decoder as it was before the fused kernels: the
executable specification that tests/test_oracle.py checks the package
against, on the reference engine and encoders in this package.  Only the
imports differ from the original; ``ParamBinding`` keeps
the ``zeros`` leaf cache the original relied on.

LSTM decoder with a gated semantic state and layer-wise attention.

Besides the usual input/forget/output gates, the decoder keeps a semantic
state vector, initialised from the encoder embedding, that a reading gate
carries forward and a writing gate amends at every step.  The hidden state
mixes the memory cell and the semantic state through the output gate, and a
softmax over the vocabulary produces the word distribution.

When the model emits the placeholder word "@", the semantic state queries the
encoded tree: per layer (domains, acts, slots), dot-product scores against
the activated node states are softmax-normalised into a distribution.  The
argmax triple names the placeholder, and the three distributions are fed
into the next step's input as a record of what was just generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from treenlg.errors import ContractError
from treenlg.semantics import Ontology

from . import engine
from .engine import (
    Node,
    add,
    concat,
    dot,
    dropout,
    matmul,
    mul,
    neg,
    row,
    scatter,
    sigmoid,
    slice_last as slice_1d,
    softmax,
    tanh,
)
from .tree import EncodedTree


class ParamBinding(engine.ParamBinding):
    def zeros(self, size: int) -> Node:
        key = ("zeros", str(size))
        node = self._stacks.get(key)
        if node is None:
            node = self.tape.leaf(np.zeros(size))
            self._stacks[key] = node
        return node

CELL_GATES = ("i", "f", "o", "g")
STATE_GATES = ("r", "w", "d")

PLACEHOLDER = "@"


def init_decoder_params(vocab_size: int, hidden: int, feedback_size: int,
                        rng: np.random.Generator, scale: float = 0.1) -> dict[str, np.ndarray]:
    x_dim = hidden + feedback_size
    params = {"dec.emb": rng.uniform(-scale, scale, size=(vocab_size, hidden))}
    for gate in CELL_GATES:
        params[f"dec.{gate}.x"] = rng.uniform(-scale, scale, size=(hidden, x_dim))
        params[f"dec.{gate}.h"] = rng.uniform(-scale, scale, size=(hidden, hidden))
        params[f"dec.{gate}.b"] = np.zeros(hidden)
    for gate in STATE_GATES:
        params[f"dec.{gate}.x"] = rng.uniform(-scale, scale, size=(hidden, x_dim))
        params[f"dec.{gate}.h"] = rng.uniform(-scale, scale, size=(hidden, hidden))
        params[f"dec.{gate}.s"] = rng.uniform(-scale, scale, size=(hidden, hidden))
        params[f"dec.{gate}.b"] = np.zeros(hidden)
    params["dec.out.w"] = rng.uniform(-scale, scale, size=(vocab_size, hidden))
    return params


@dataclass
class DecoderState:
    """Hidden state, memory cell and semantic state, all hidden-width."""

    h: Node
    c: Node
    s: Node


def initial_state(encoded: EncodedTree, hidden: int, binding: ParamBinding) -> DecoderState:
    zeros = binding.tape.leaf(np.zeros(hidden))
    return DecoderState(h=zeros, c=zeros, s=encoded.embedding)


_ALL_GATES = CELL_GATES + STATE_GATES
_X_STACK = tuple(f"dec.{g}.x" for g in _ALL_GATES)
_H_STACK = tuple(f"dec.{g}.h" for g in _ALL_GATES)
_S_STACK = tuple(f"dec.{g}.s" for g in STATE_GATES)
_B_JOIN = tuple(f"dec.{g}.b" for g in _ALL_GATES)


def step(binding: ParamBinding, x: Node, state: DecoderState,
         dropout_rate: float = 0.0, training: bool = False,
         rng: np.random.Generator | None = None) -> tuple[DecoderState, Node]:
    """One decoder step: returns the new state and the word distribution.

    The seven gate pre-activations share two stacked matmuls (input and
    hidden paths); the three semantic-state gates add a third against the
    previous semantic state."""
    hidden = state.h.shape[0]
    z = add(add(matmul(binding.stacked(_X_STACK), x),
                matmul(binding.stacked(_H_STACK), state.h)),
            binding.joined(_B_JOIN))
    zs = matmul(binding.stacked(_S_STACK), state.s)

    i = sigmoid(slice_1d(z, 0, hidden))
    f = sigmoid(slice_1d(z, hidden, 2 * hidden))
    o = sigmoid(slice_1d(z, 2 * hidden, 3 * hidden))
    g = tanh(slice_1d(z, 3 * hidden, 4 * hidden))
    c = add(mul(i, g), mul(f, state.c))

    z_state = add(slice_1d(z, 4 * hidden, 7 * hidden), zs)
    r = sigmoid(slice_1d(z_state, 0, hidden))
    w = sigmoid(slice_1d(z_state, hidden, 2 * hidden))
    d = tanh(slice_1d(z_state, 2 * hidden, 3 * hidden))
    s = add(mul(w, d), mul(r, state.s))

    one_minus_o = add(neg(o), 1.0)
    h = add(mul(o, tanh(c)), mul(one_minus_o, tanh(s)))

    h_out = dropout(h, dropout_rate, training=training, rng=rng)
    probs = softmax(matmul(binding["dec.out.w"], h_out))
    return DecoderState(h=h, c=c, s=s), probs


@dataclass
class AttentionDists:
    """Distributions over the full canonical label sets; labels the SR did
    not activate hold probability zero."""

    domain: Node
    act: Node
    slot: Node

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.domain.value.copy(), self.act.value.copy(), self.slot.value.copy())


_LAYER_INDEX = {"domain": "domain_index", "act": "act_index", "slot": "slot_index"}
_LAYER_SIZE = {"domain": "domains", "act": "acts", "slot": "slots"}


def attend(s: Node, encoded: EncodedTree, ontology: Ontology) -> AttentionDists:
    """Score the semantic state against each layer's activated node states
    and normalise per layer."""
    out = {}
    for layer in ("domain", "act", "slot"):
        states = encoded.layer_states[layer]
        if not states:
            raise ContractError(f"no activated {layer} nodes to attend over")
        labels = sorted(states)
        scores = concat([dot(s, states[label]) for label in labels])
        probs = softmax(scores)
        index_of = getattr(ontology, _LAYER_INDEX[layer])
        size = len(getattr(ontology, _LAYER_SIZE[layer]))
        out[layer] = scatter(probs, [index_of(label) for label in labels], size)
    return AttentionDists(out["domain"], out["act"], out["slot"])


@dataclass
class TraceEntry:
    """Attention record for one placeholder emission."""

    step: int
    domain_dist: np.ndarray
    act_dist: np.ndarray
    slot_dist: np.ndarray
    domain: str
    act: str
    slot: str


@dataclass
class AttentionTrace:
    entries: list[TraceEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def matrix(self, layer: str) -> np.ndarray:
        attr = f"{layer}_dist"
        if not self.entries:
            return np.zeros((0, 0))
        return np.stack([getattr(e, attr) for e in self.entries])

    def to_json(self, ontology: Ontology) -> dict:
        return {
            "labels": {"domain": list(ontology.domains),
                       "act": list(ontology.acts),
                       "slot": list(ontology.slots)},
            "steps": [{
                "step": e.step,
                "chosen": {"domain": e.domain, "act": e.act, "slot": e.slot},
                "domain_dist": e.domain_dist.tolist(),
                "act_dist": e.act_dist.tolist(),
                "slot_dist": e.slot_dist.tolist(),
            } for e in self.entries],
        }

    def to_csv(self, layer: str, ontology: Ontology) -> str:
        labels = list(getattr(ontology, _LAYER_SIZE[layer]))
        lines = ["step," + ",".join(labels)]
        for e in self.entries:
            dist = getattr(e, f"{layer}_dist")
            lines.append(str(e.step) + "," + ",".join(repr(float(v)) for v in dist))
        return "\n".join(lines) + "\n"


def assemble_token(dists: AttentionDists, ontology: Ontology,
                   step_index: int) -> tuple[tuple[str, str, str], TraceEntry]:
    """Argmax each distribution; ties fall to the canonically first label."""
    d_arr, a_arr, s_arr = dists.as_arrays()
    domain = ontology.domains[int(np.argmax(d_arr))]
    act = ontology.acts[int(np.argmax(a_arr))]
    slot = ontology.slots[int(np.argmax(s_arr))]
    entry = TraceEntry(step_index, d_arr, a_arr, s_arr, domain, act, slot)
    return (domain, act, slot), entry


def make_feedback_input(word_id: int, dists: AttentionDists | None,
                        binding: ParamBinding, feedback_size: int,
                        dropout_rate: float = 0.0, training: bool = False,
                        rng: np.random.Generator | None = None) -> Node:
    """Decoder input: word embedding plus the feedback block, which holds the
    previous step's three attention distributions right after a placeholder
    was emitted and zeros at every other step."""
    word = dropout(row(binding["dec.emb"], word_id), dropout_rate,
                   training=training, rng=rng)
    if dists is None:
        feedback = binding.zeros(feedback_size)
    else:
        feedback = concat([dists.domain, dists.act, dists.slot])
    return concat([word, feedback])
