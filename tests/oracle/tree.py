"""Reference copy of the tree and flat encoders as they were before the fused
per-node op, on the reference engine in this package; only the imports
and ``post_order``, a method of the tree there, differ from the original.
``encode_sr`` stands in for ``Model.encode_sr``.

Encoding runs child-sum LSTM transitions bottom-up: each node sums its
children's hidden states and memory cells, gates them together with the
node's token embedding, and passes the result upward.  The root hidden state
is the semantic embedding that conditions the decoder.
"""

from __future__ import annotations

from treenlg.model import Model
from treenlg.semantics import Ontology, SemanticRepresentation
from treenlg.tree import GATES, SemTree, build_tree, triple_indicator

from .engine import (
    Node,
    ParamBinding,
    add,
    matmul,
    mul,
    row,
    sigmoid,
    slice_last,
    tanh,
)


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


def post_order(tree: SemTree) -> list[int]:
    """Node indices of ``tree``, each child before its parent, children in
    canonical order."""
    order: list[int] = []

    def walk(i: int) -> None:
        for child in tree.nodes[i].children:
            walk(child)
        order.append(i)

    walk(0)
    return order


def encode(tree: SemTree, binding: ParamBinding,
           token_index: dict[str, int]) -> EncodedTree:
    """Child-sum bottom-up pass.  Leaves see zero child sums, so their gates
    reduce to functions of the token embedding alone.

    The four gate pre-activations share one stacked matmul per input path."""
    emb = binding["enc.emb"]
    states: dict[int, tuple[Node, Node]] = {}
    for i in post_order(tree):
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


def encode_flat(sr: SemanticRepresentation, ontology: Ontology,
                binding: ParamBinding) -> EncodedTree:
    """Flat baseline: indicator vector through a trained affine map and tanh.
    No per-label states, so attention is unavailable in this mode."""
    x = binding.tape.leaf(triple_indicator(sr, ontology))
    embedding = tanh(add(matmul(binding["flat.w"], x), binding["flat.b"]))
    return EncodedTree(embedding, {"domain": {}, "act": {}, "slot": {}}, {})


def encode_sr(model: Model, sr: SemanticRepresentation, binding: ParamBinding) -> EncodedTree:
    """``Model.encode_sr`` on the reference encoders."""
    if model.uses_tree:
        return encode(build_tree(sr, model.ontology), binding, model.token_index)
    return encode_flat(sr, model.ontology, binding)
