"""Tree construction and bottom-up encoding of semantic representations.

An SR maps one-to-one onto a rooted tree with five layers: root, domain,
dialogue act, slot and slot property.  Only the structure activated by the SR
is built.  Encoding runs child-sum LSTM transitions bottom-up: each node sums
its children's hidden states and memory cells, gates them together with the
node's token embedding, and passes the result upward.  The root hidden state
is the semantic embedding that conditions the decoder.

Encoding runs level by level over a whole minibatch of trees: every tree
has five levels, and all nodes of one level, across the trees, share one
fused op with a closed-form adjoint.  Each row's products are taken one row
at a time (``np.matmul`` over a stack of vectors), so a node's state is
bitwise the same whatever else shares its level.  The flat baseline's
affine map is one fused op per minibatch as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .engine import Node, ParamBinding, Tape, init_uniform, logistic, slice_last, take_rows
from .semantics import (
    NO_SLOT_PROPERTY,
    NO_SLOT_TOKEN,
    ROOT_TOKEN,
    Ontology,
    SemanticRepresentation,
)

LAYERS = ("root", "domain", "act", "slot", "property")

# The layers whose labels the decoder attends over.
ATTENDED = ("domain", "act", "slot")

GATES = ("i", "f", "o", "g")


@dataclass
class TreeNode:
    layer: str
    token: str
    label: str | None
    parent: int | None
    children: list[int] = field(default_factory=list)
    # Position of ``label`` among the ontology's labels of this layer.
    label_index: int | None = None


class SemTree:
    """Activated tree for one SR; node 0 is the root, children are in
    canonical (sorted) order so traversal order never depends on SR entry
    order."""

    def __init__(self, nodes: list[TreeNode]):
        self.nodes = nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def path(self, i: int) -> tuple[str, ...]:
        """Token path from the root down to node ``i``."""
        toks = []
        node: int | None = i
        while node is not None:
            toks.append(self.nodes[node].token)
            node = self.nodes[node].parent
        return tuple(reversed(toks))


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

    def add_node(layer: str, token: str, label: str | None, parent: int,
                 label_index: int | None = None) -> int:
        nodes.append(TreeNode(layer, token, label, parent, label_index=label_index))
        idx = len(nodes) - 1
        nodes[parent].children.append(idx)
        return idx

    for domain in sorted(structure):
        d_id = add_node("domain", domain, domain, 0, ontology.domain_index(domain))
        for act in sorted(structure[domain]):
            a_id = add_node("act", act, act, d_id, ontology.act_index(act))
            slots = sorted(structure[domain][act])
            if not slots:
                s_id = add_node("slot", NO_SLOT_TOKEN, None, a_id)
                add_node("property", NO_SLOT_PROPERTY, None, s_id)
                continue
            for slot in slots:
                s_id = add_node("slot", slot, slot, a_id, ontology.slot_index(slot))
                prop = ontology.property_of(domain, act, slot)
                add_node("property", prop, None, s_id)
    return SemTree(nodes)


def encoder_shapes(ontology: Ontology, hidden: int) -> dict[str, tuple[int, ...]]:
    """The token embedding and the gate stacks, rows in ``GATES`` order."""
    n = len(GATES)
    return {"enc.emb": (len(ontology.embedding_tokens()), hidden),
            "enc.e": (n * hidden, hidden),
            "enc.h": (n * hidden, hidden),
            "enc.b": (n * hidden,)}


def init_encoder_params(ontology: Ontology, hidden: int,
                        rng: np.random.Generator, scale: float = 0.1) -> dict[str, np.ndarray]:
    """Drawn in order: the embedding, then each gate's embedding and hidden
    blocks, gate by gate.  The biases start at zero and draw nothing."""
    blocks = [("enc.emb", (len(ontology.embedding_tokens()), hidden))]
    blocks += [(name, (hidden, hidden)) for _ in GATES for name in ("enc.e", "enc.h")]
    params = init_uniform(blocks, rng, scale)
    params["enc.b"] = np.zeros(len(GATES) * hidden)
    return params


@dataclass
class LabelStates:
    """One attended layer's activated labels over the trees of an encoding.

    Row j of ``matrix`` ([labels, H]) is the hidden state of label
    ``labels[j]`` in its tree, summed over that label's nodes in tree order
    (one act can sit under two domains).  Each tree's rows are consecutive
    and in sorted, that is canonical, label order; ``counts[b]`` is how many
    rows tree b has, and ``index[j]`` is row j's position among the
    ontology's labels of the layer."""

    matrix: Node
    labels: list[str]
    index: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.owner = np.repeat(np.arange(len(self.counts)), self.counts)


class EncodedTree:
    """Forward-pass products the decoder consumes, for one tree or for a
    minibatch of B trees, all nodes of ``tape``: the semantic embedding ([H]
    for one tree, [B, H] for a batch) and, per attended layer, the label
    states for layer-wise attention (none in flat mode).

    ``levels[d]`` packs [h | c] of every depth-d node as one [n, 2H] node,
    and ``positions[b][i]`` is the (depth, row) of node i of tree b;
    ``node_states`` and ``layer_states`` read them for a one-tree encoding
    as one view per node and per label."""

    def __init__(self, embedding: Node, labels: dict[str, LabelStates], tape: Tape,
                 levels: list[Node] | None = None,
                 positions: list[dict[int, tuple[int, int]]] | None = None):
        self.embedding = embedding
        self.labels = labels
        self.tape = tape
        self.levels = levels or []
        self.positions = positions or [{}]

    @cached_property
    def node_states(self) -> dict[int, tuple[Node, Node]]:
        hidden = self.embedding.shape[-1]
        out = {}
        for i, (depth, row) in self.positions[0].items():
            packed = take_rows(self.tape, self.levels[depth], row)
            out[i] = (slice_last(self.tape, packed, 0, hidden),
                      slice_last(self.tape, packed, hidden, 2 * hidden))
        return out

    @cached_property
    def layer_states(self) -> dict[str, dict[str, Node]]:
        return {layer: {label: take_rows(self.tape, self.labels[layer].matrix, j)
                        for j, label in enumerate(self.labels[layer].labels)}
                if layer in self.labels else {} for layer in ATTENDED}


_DEPTH = {layer: d for d, layer in enumerate(LAYERS)}


def encode(tree: SemTree, binding: ParamBinding,
           token_index: dict[str, int]) -> EncodedTree:
    """The batch-of-one :func:`encode_batch`, with an [H] embedding."""
    encoded = encode_batch([tree], binding, token_index)
    encoded.embedding = take_rows(binding.tape, encoded.embedding, 0)
    return encoded


def encode_batch(trees: list[SemTree], binding: ParamBinding,
                 token_index: dict[str, int]) -> EncodedTree:
    """Child-sum bottom-up pass over a minibatch of trees, one fused op per
    level (``_level``), deepest first.  Level d holds the depth-d nodes of
    every tree, tree after tree, each tree's in node order.  Leaves see zero
    child sums, so their gates reduce to functions of the token embedding
    alone.  Then one op per attended layer gathers its label
    states (``_label_states``)."""
    tape = binding.tape
    hidden = binding.params["enc.emb"].shape[1]
    members: list[list[tuple[int, TreeNode]]] = [[] for _ in LAYERS]
    positions: list[dict[int, tuple[int, int]]] = []
    groups = {layer: [] for layer in ATTENDED}   # (tree, label, label index, rows)
    for b, tree in enumerate(trees):
        where = {}
        by_label: dict[tuple[str, str], tuple[int, list[int]]] = {}
        for i, node in enumerate(tree.nodes):
            depth = _DEPTH[node.layer]
            where[i] = (depth, len(members[depth]))
            members[depth].append((b, node))
            if node.label is not None:
                by_label.setdefault((node.layer, node.label),
                                    (node.label_index, []))[1].append(where[i][1])
        positions.append(where)
        for (layer, label), (index, rows) in sorted(by_label.items()):
            groups[layer].append((b, label, index, rows))

    levels: list[Node] = [None] * len(LAYERS)
    below = None
    for depth in reversed(range(len(LAYERS))):
        tokens = np.array([token_index[n.token] for _, n in members[depth]], dtype=np.intp)
        children = [[positions[b][c][1] for c in n.children] for b, n in members[depth]]
        below = levels[depth] = _level(binding, tokens, below, children)

    labels = {}
    for layer in ATTENDED:
        rows = [g[3] for g in groups[layer]]
        counts = np.bincount([g[0] for g in groups[layer]], minlength=len(trees))
        labels[layer] = LabelStates(_label_states(tape, levels[_DEPTH[layer]], rows, hidden),
                                    [g[1] for g in groups[layer]],
                                    np.array([g[2] for g in groups[layer]], dtype=np.intp),
                                    counts)
    embedding = slice_last(tape, levels[0], 0, hidden)
    return EncodedTree(embedding, labels, tape, levels, positions)


def _rowwise(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w @ x[k]`` for every row k, one row at a time: unlike ``x @ w.T``,
    a row's bits do not depend on how many rows the stack has."""
    return np.matmul(w, x[:, :, None])[:, :, 0]


def _padded(groups: list[list[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ragged row groups as a zero-padded [groups, longest] index matrix, the
    group sizes, and the mask of the entries that are not padding."""
    counts = np.array([len(g) for g in groups], dtype=np.intp)
    idx = np.zeros((len(groups), max(counts, default=0)), dtype=np.intp)
    valid = np.arange(idx.shape[1]) < counts[:, None]
    idx[valid] = [r for g in groups for r in g]
    return idx, counts, valid


def _ordered_sum(x: np.ndarray, idx: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per group k, the rows ``x[idx[k, :counts[k]]]`` summed left to right
    (zeros for an empty group)."""
    total = x[idx[:, 0]]
    total[counts == 0] = 0.0
    for r in range(1, idx.shape[1]):
        more = counts > r
        total[more] += x[idx[more, r]]
    return total


def _level(binding: ParamBinding, tokens: np.ndarray, below: Node | None,
           children: list[list[int]]) -> Node:
    """One tree level's child-sum LSTM transitions as one op.  Row k is the
    node whose token has embedding row ``tokens[k]`` and whose children are
    rows ``children[k]`` of the level ``below`` (packed [h | c]): the
    children's h and c are summed in order, then z = E·e + b (+ H·Σh), the
    gates i, f, o, g, c = i·g (+ f·Σc) and h = o·tanh(c).  The level holds
    [h | c] per row; the weight adjoints are one Δᵀ·X product each.  A row
    without children (a leaf, or the root of an empty SR) sees zero sums."""
    emb, w_e, b = binding["enc.emb"], binding["enc.e"], binding["enc.b"]
    H = emb.shape[1]
    e = emb.value[tokens]
    z = _rowwise(w_e.value, e) + b.value
    inner = below is not None and below.shape[0] > 0
    if inner:
        w_h = binding["enc.h"]
        idx, counts, valid = _padded(children)
        sums = _ordered_sum(below.value, idx, counts)
        h_sum, c_sum = np.ascontiguousarray(sums[:, :H]), sums[:, H:]
        z = z + _rowwise(w_h.value, h_sum)
        # Every row below has exactly one parent here.
        parent_of = np.empty(below.shape[0], dtype=np.intp)
        parent_of[idx[valid]] = np.nonzero(valid)[0]
    ifo = logistic(z[:, :3 * H])
    i, f, o = ifo[:, :H], ifo[:, H:2 * H], ifo[:, 2 * H:]
    g = np.tanh(z[:, 3 * H:])
    c = i * g
    if inner:
        c = c + f * c_sum
    tc = np.tanh(c)

    def vjp(grad: np.ndarray):
        gh, gc = grad[:, :H], grad[:, H:]
        dc = gc + gh * o * (1.0 - tc * tc)
        dz_f = dc * c_sum * f * (1.0 - f) if inner else np.zeros_like(dc)
        dz = np.concatenate([dc * g * i * (1.0 - i), dz_f,
                             gh * tc * o * (1.0 - o), dc * i * (1.0 - g * g)], axis=1)
        d_emb = np.zeros_like(emb.value)
        np.add.at(d_emb, tokens, dz @ w_e.value)
        grads = [d_emb, dz.T @ e, dz.sum(axis=0)]
        if inner:
            d_sums = np.concatenate([dz @ w_h.value, dc * f], axis=1)
            grads += [dz.T @ h_sum, d_sums[parent_of]]
        return tuple(grads)

    parents = (emb, w_e, b) + ((w_h, below) if inner else ())
    return binding.tape.op(np.concatenate([o * tc, c], axis=1), parents, vjp)


def _label_states(tape: Tape, level: Node, groups: list[list[int]], hidden: int) -> Node:
    """[labels, H]: row j sums the h of the level rows ``groups[j]``, in
    order."""
    if not groups:
        return tape.leaf(np.zeros((0, hidden)))
    idx, counts, valid = _padded(groups)
    rows, label_of = idx[valid], np.nonzero(valid)[0]

    def vjp(grad: np.ndarray):
        d = np.zeros_like(level.value)
        d[rows, :hidden] = grad[label_of]
        return (d,)

    return tape.op(_ordered_sum(level.value[:, :hidden], idx, counts), (level,), vjp)


def flat_shapes(ontology: Ontology, hidden: int) -> dict[str, tuple[int, ...]]:
    return {"flat.w": (hidden, len(ontology.triples)), "flat.b": (hidden,)}


def init_flat_params(ontology: Ontology, hidden: int,
                     rng: np.random.Generator, scale: float = 0.1) -> dict[str, np.ndarray]:
    return {**init_uniform([("flat.w", (hidden, len(ontology.triples)))], rng, scale),
            "flat.b": np.zeros(hidden)}


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
    """The batch-of-one :func:`encode_flat_batch`, with an [H] embedding."""
    encoded = encode_flat_batch([sr], ontology, binding)
    encoded.embedding = take_rows(binding.tape, encoded.embedding, 0)
    return encoded


def encode_flat_batch(srs: list[SemanticRepresentation], ontology: Ontology,
                      binding: ParamBinding) -> EncodedTree:
    """Flat baseline: each SR's indicator vector through a trained affine map
    and tanh, one fused op for the minibatch.  No per-label states, so
    attention is unavailable in this mode."""
    x = np.stack([triple_indicator(sr, ontology) for sr in srs])
    w, b = binding["flat.w"], binding["flat.b"]
    y = np.tanh(x @ w.value.T + b.value)

    def vjp(grad: np.ndarray):
        d = grad * (1.0 - y * y)
        return d.T @ x, d.sum(axis=0)

    return EncodedTree(binding.tape.op(y, (w, b), vjp), {}, binding.tape)
