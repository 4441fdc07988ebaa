"""Tree construction and bottom-up encoding of semantic representations.

An SR maps one-to-one onto a rooted tree with five layers: root, domain,
dialogue act, slot and slot property.  Only the structure activated by the SR
is built.  Encoding runs child-sum LSTM transitions bottom-up: each node sums
its children's hidden states and memory cells, gates them together with the
node's token embedding, and passes the result upward.  The root hidden state
is the semantic embedding that conditions the decoder.

Each node's transition is one fused op on the tape with a closed-form
adjoint, and so is the flat baseline's affine map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import Node, ParamBinding, Tape, init_uniform, logistic, slice_last
from .errors import ContractError
from .semantics import (
    NO_SLOT_PROPERTY,
    NO_SLOT_TOKEN,
    ROOT_TOKEN,
    Ontology,
    SemanticRepresentation,
)

LAYERS = ("root", "domain", "act", "slot", "property")

GATES = ("i", "f", "o", "g")


@dataclass
class TreeNode:
    layer: str
    token: str
    label: str | None
    parent: int | None
    children: list[int] = field(default_factory=list)


class SemTree:
    """Activated tree for one SR; node 0 is the root, children are in
    canonical (sorted) order so traversal order never depends on SR entry
    order."""

    def __init__(self, nodes: list[TreeNode]):
        self.nodes = nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def post_order(self) -> list[int]:
        order: list[int] = []

        def walk(i: int) -> None:
            for child in self.nodes[i].children:
                walk(child)
            order.append(i)

        walk(0)
        return order

    def depth(self, i: int) -> int:
        d = 0
        while self.nodes[i].parent is not None:
            i = self.nodes[i].parent
            d += 1
        return d

    def path(self, i: int) -> tuple[str, ...]:
        """Token path from the root down to node ``i``."""
        toks = []
        node: int | None = i
        while node is not None:
            toks.append(self.nodes[node].token)
            node = self.nodes[node].parent
        return tuple(reversed(toks))

    def leaves(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if not n.children]

    def check_depths(self) -> None:
        """Every activated leaf must sit at depth 4 (root, domain, act, slot, property)."""
        for i in self.leaves():
            if self.depth(i) != 4:
                raise ContractError(f"leaf {i} at depth {self.depth(i)}, expected 4")

    def to_entries(self) -> set[tuple[str, str, str | None]]:
        """Reconstruct the SR's (domain, act, slot) structure from the tree."""
        out = set()
        for i in self.leaves():
            slot_node = self.nodes[self.nodes[i].parent]
            act_node = self.nodes[slot_node.parent]
            domain_node = self.nodes[act_node.parent]
            slot = None if slot_node.token == NO_SLOT_TOKEN else slot_node.token
            out.add((domain_node.token, act_node.token, slot))
        return out


def build_tree(sr: SemanticRepresentation, ontology: Ontology) -> SemTree:
    """Build the activated tree: one path per distinct (domain, act, slot),
    a synthetic no-slot path for bare acts, property leaves throughout."""
    structure: dict[str, dict[str, set[str]]] = {}
    for e in sr:
        acts = structure.setdefault(e.domain, {})
        slots = acts.setdefault(e.act, set())
        if not e.is_bare_act:
            slots.add(e.slot)

    nodes = [TreeNode("root", ROOT_TOKEN, None, None)]

    def add_node(layer: str, token: str, label: str | None, parent: int) -> int:
        nodes.append(TreeNode(layer, token, label, parent))
        idx = len(nodes) - 1
        nodes[parent].children.append(idx)
        return idx

    for domain in sorted(structure):
        d_id = add_node("domain", domain, domain, 0)
        for act in sorted(structure[domain]):
            a_id = add_node("act", act, act, d_id)
            slots = sorted(structure[domain][act])
            if not slots:
                s_id = add_node("slot", NO_SLOT_TOKEN, None, a_id)
                add_node("property", NO_SLOT_PROPERTY, None, s_id)
                continue
            for slot in slots:
                s_id = add_node("slot", slot, slot, a_id)
                prop = ontology.property_of(domain, act, slot)
                add_node("property", prop, None, s_id)
    return SemTree(nodes)


def encoder_shapes(ontology: Ontology, hidden: int) -> dict[str, tuple[int, ...]]:
    shapes = {"enc.emb": (len(ontology.embedding_tokens()), hidden)}
    for gate in GATES:
        shapes[f"enc.{gate}.e"] = (hidden, hidden)
        shapes[f"enc.{gate}.h"] = (hidden, hidden)
        shapes[f"enc.{gate}.b"] = (hidden,)
    return shapes


def init_encoder_params(ontology: Ontology, hidden: int,
                        rng: np.random.Generator, scale: float = 0.1) -> dict[str, np.ndarray]:
    return init_uniform(encoder_shapes(ontology, hidden), rng, scale)


class EncodedTree:
    """Forward-pass products the decoder consumes: the semantic embedding and
    per-label hidden states for layer-wise attention, all nodes of ``tape``."""

    def __init__(self, embedding: Node, layer_states: dict[str, dict[str, Node]],
                 node_states: dict[int, tuple[Node, Node]], tape: Tape):
        self.embedding = embedding
        self.layer_states = layer_states
        self.node_states = node_states
        self.tape = tape


_E_STACK = tuple(f"enc.{g}.e" for g in GATES)
_H_STACK = tuple(f"enc.{g}.h" for g in GATES)
_B_STACK = tuple(f"enc.{g}.b" for g in GATES)


def encode(tree: SemTree, binding: ParamBinding,
           token_index: dict[str, int]) -> EncodedTree:
    """Child-sum bottom-up pass.  Leaves see zero child sums, so their gates
    reduce to functions of the token embedding alone.

    One fused op per tree node (``_transition``) holds its [h | c];
    ``node_states`` exposes h and c through two ``slice_last`` views, which
    the parent's op reads."""
    tape = binding.tape
    hidden = binding.params["enc.emb"].shape[1]
    states: dict[int, tuple[Node, Node]] = {}
    for i in tree.post_order():
        node = tree.nodes[i]
        packed = _transition(binding, token_index[node.token],
                             [states[child] for child in node.children])
        states[i] = (slice_last(tape, packed, 0, hidden),
                     slice_last(tape, packed, hidden, 2 * hidden))

    by_label: dict[str, dict[str, list[Node]]] = {"domain": {}, "act": {}, "slot": {}}
    for i, node in enumerate(tree.nodes):
        if node.layer in by_label and node.label is not None:
            by_label[node.layer].setdefault(node.label, []).append(states[i][0])
    # One label can own several activated nodes (same act under two
    # domains); their states are summed before scoring.
    layer_states = {layer: {label: _summed(tape, hs) for label, hs in labels.items()}
                    for layer, labels in by_label.items()}
    return EncodedTree(states[0][0], layer_states, states, tape)


def _transition(binding: ParamBinding, index: int, children: list[tuple[Node, Node]]) -> Node:
    """One child-sum LSTM transition: the embedding row e of the token at
    ``index`` and the children's summed (h, c) give z = E·e + b (+ H·Σh),
    the gates i, f, o, g, then c = i·g (+ f·Σc) and h = o·tanh(c).  The
    four gate pre-activations share one stacked matmul per input path; the
    adjoint is closed-form."""
    emb, w_e, b = binding["enc.emb"], binding.stacked(_E_STACK), binding.stacked(_B_STACK)
    w_h = binding.stacked(_H_STACK) if children else None
    H = emb.shape[1]
    e = emb.value[index]
    z = w_e.value @ e + b.value
    h_sum = c_sum = None
    if children:
        h_sum, c_sum = children[0][0].value, children[0][1].value
        for ch, cc in children[1:]:
            h_sum, c_sum = h_sum + ch.value, c_sum + cc.value
        z = z + w_h.value @ h_sum
    i, o, g = logistic(z[:H]), logistic(z[2 * H:3 * H]), np.tanh(z[3 * H:])
    c = i * g
    if children:
        f = logistic(z[H:2 * H])
        c = c + f * c_sum
    tc = np.tanh(c)

    def vjp(grad: np.ndarray):
        gh, gc = grad[:H], grad[H:]
        dc = gc + gh * o * (1.0 - tc * tc)
        dz_f = dc * c_sum * f * (1.0 - f) if children else np.zeros(H)
        dz = np.concatenate([dc * g * i * (1.0 - i), dz_f,
                             gh * tc * o * (1.0 - o), dc * i * (1.0 - g * g)])
        d_emb = np.zeros_like(emb.value)
        d_emb[index] = w_e.value.T @ dz
        grads = [d_emb, dz[:, None] * e[None, :], dz]
        if children:
            grads.append(dz[:, None] * h_sum[None, :])
            d_child = (w_h.value.T @ dz, dc * f)
            grads.extend(d_child * len(children))
        return tuple(grads)

    parents = (emb, w_e, b) + ((w_h,) if children else ()) + \
        tuple(n for state in children for n in state)
    return binding.tape.op(np.concatenate([o * tc, c]), parents, vjp)


def _summed(tape: Tape, states: list[Node]) -> Node:
    """The sum of one label's node states, in tree order."""
    if len(states) == 1:
        return states[0]
    total = states[0].value
    for n in states[1:]:
        total = total + n.value
    return tape.op(total, tuple(states), lambda g: (g,) * len(states))


def flat_shapes(ontology: Ontology, hidden: int) -> dict[str, tuple[int, ...]]:
    return {"flat.w": (hidden, len(ontology.triples)), "flat.b": (hidden,)}


def init_flat_params(ontology: Ontology, hidden: int,
                     rng: np.random.Generator, scale: float = 0.1) -> dict[str, np.ndarray]:
    return init_uniform(flat_shapes(ontology, hidden), rng, scale)


def triple_indicator(sr: SemanticRepresentation, ontology: Ontology) -> np.ndarray:
    """Binary presence vector over every (domain, act, slot) triple the
    ontology declares.  Bare acts have no triple and leave no mark."""
    x = np.zeros(len(ontology.triples))
    for e in sr:
        if not e.is_bare_act:
            x[ontology.triple_index((e.domain, e.act, e.slot))] = 1.0
    return x


def encode_flat(sr: SemanticRepresentation, ontology: Ontology,
                binding: ParamBinding) -> EncodedTree:
    """Flat baseline: indicator vector through a trained affine map and tanh,
    one fused op.  No per-label states, so attention is unavailable in this
    mode."""
    x = triple_indicator(sr, ontology)
    w, b = binding["flat.w"], binding["flat.b"]
    y = np.tanh(w.value @ x + b.value)

    def vjp(grad: np.ndarray):
        d = grad * (1.0 - y * y)
        return d[:, None] * x[None, :], d

    embedding = binding.tape.op(y, (w, b), vjp)
    return EncodedTree(embedding, {"domain": {}, "act": {}, "slot": {}}, {}, binding.tape)
