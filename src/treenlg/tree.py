"""Tree construction and bottom-up encoding of semantic representations.

An SR maps one-to-one onto a rooted tree with five layers: root, domain,
dialogue act, slot and slot property.  Only the structure activated by the SR
is built.  Encoding runs child-sum LSTM transitions bottom-up: each node sums
its children's hidden states and memory cells, gates them together with the
node's token embedding, and passes the result upward.  The root hidden state
is the semantic embedding that conditions the decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import (
    Node,
    ParamBinding,
    add,
    init_uniform,
    matmul,
    mul,
    row,
    sigmoid,
    slice_last,
    tanh,
)
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
    per-label hidden states for layer-wise attention."""

    def __init__(self, embedding: Node, layer_states: dict[str, dict[str, Node]],
                 node_states: dict[int, tuple[Node, Node]]):
        self.embedding = embedding
        self.layer_states = layer_states
        self.node_states = node_states


_E_STACK = tuple(f"enc.{g}.e" for g in GATES)
_H_STACK = tuple(f"enc.{g}.h" for g in GATES)
_B_JOIN = tuple(f"enc.{g}.b" for g in GATES)


def encode(tree: SemTree, binding: ParamBinding,
           token_index: dict[str, int]) -> EncodedTree:
    """Child-sum bottom-up pass.  Leaves see zero child sums, so their gates
    reduce to functions of the token embedding alone.

    The four gate pre-activations share one stacked matmul per input path."""
    emb = binding["enc.emb"]
    states: dict[int, tuple[Node, Node]] = {}
    for i in tree.post_order():
        node = tree.nodes[i]
        e = row(emb, token_index[node.token])
        h_sum: Node | None = None
        c_sum: Node | None = None
        for child in node.children:
            ch, cc = states[child]
            h_sum = ch if h_sum is None else add(h_sum, ch)
            c_sum = cc if c_sum is None else add(c_sum, cc)

        z = add(matmul(binding.stacked(_E_STACK), e), binding.joined(_B_JOIN))
        if h_sum is not None:
            z = add(z, matmul(binding.stacked(_H_STACK), h_sum))
        hidden = e.shape[0]
        i_gate = sigmoid(slice_last(z, 0, hidden))
        o_gate = sigmoid(slice_last(z, 2 * hidden, 3 * hidden))
        g_gate = tanh(slice_last(z, 3 * hidden, 4 * hidden))
        c = mul(i_gate, g_gate)
        if c_sum is not None:
            f_gate = sigmoid(slice_last(z, hidden, 2 * hidden))
            c = add(c, mul(f_gate, c_sum))
        h = mul(o_gate, tanh(c))
        states[i] = (h, c)

    layer_states: dict[str, dict[str, Node]] = {"domain": {}, "act": {}, "slot": {}}
    for i, node in enumerate(tree.nodes):
        if node.layer in layer_states and node.label is not None:
            bucket = layer_states[node.layer]
            h = states[i][0]
            # One label can own several activated nodes (same act under two
            # domains); their states are summed before scoring.
            bucket[node.label] = h if node.label not in bucket else add(bucket[node.label], h)
    return EncodedTree(states[0][0], layer_states, states)


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
    """Flat baseline: indicator vector through a trained affine map and tanh.
    No per-label states, so attention is unavailable in this mode."""
    x = binding.tape.leaf(triple_indicator(sr, ontology))
    embedding = tanh(add(matmul(binding["flat.w"], x), binding["flat.b"]))
    return EncodedTree(embedding, {"domain": {}, "act": {}, "slot": {}}, {})
