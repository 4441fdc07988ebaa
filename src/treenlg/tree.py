"""Tree construction and bottom-up encoding of semantic representations.

An SR maps one-to-one onto a rooted tree with five layers: root, domain,
dialogue act, slot and slot property.  Only the structure activated by the SR
is built.  Encoding runs child-sum LSTM transitions bottom-up: each node sums
its children's hidden states and memory cells, gates them together with the
node's token embedding, and passes the result upward.  The root hidden state
is the semantic embedding that conditions the decoder.

A whole minibatch of trees is encoded as one fused op with a closed-form
adjoint.  Every tree has five levels, and the nodes of one level, across
the trees, are computed together; the adjoint runs the levels top-down.
Each row's products are taken one row at a time (``np.matmul`` over a stack
of vectors), so a node's state is bitwise the same whatever else shares its
level.  The flat baseline's affine map is one fused op per minibatch as
well.  The decoder reads the encoding as arrays: the label-state matrices
it attends over are plain views of the op's value, and its initial
semantic state is the embedding's value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .engine import Node, ParamBinding, init_uniform, logistic
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

    matrix: np.ndarray
    labels: list[str]
    index: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.owner = np.repeat(np.arange(len(self.counts)), self.counts)


@dataclass
class EncodedTree:
    """Forward-pass products the decoder consumes, for one tree or for a
    minibatch of B trees: the semantic embedding ([H] for one tree, [B, H]
    for a batch) and, per attended layer, the label states for layer-wise
    attention (none in flat mode).

    ``output`` is the encoder's one op.  Its value stacks the B root
    embeddings, then each attended layer's label rows; ``embedding`` and the
    label matrices are views of it, so an op reading them takes ``output``
    as its parent.  The label matrices are plain arrays; ``embedding`` and
    ``node_states`` are unrecorded ``Node`` views, because the acceptance
    suite reads them as ``.value``.  ``levels[d]`` is [h | c] of every
    depth-d node ([n, 2H]), and ``positions[b][i]`` is the (depth, row) of
    node i of tree b; ``node_states`` reads them for a one-tree encoding."""

    embedding: Node
    labels: dict[str, LabelStates]
    output: Node | None = None
    levels: list[np.ndarray] = field(default_factory=list)
    positions: list[dict[int, tuple[int, int]]] = field(default_factory=lambda: [{}])

    @cached_property
    def node_states(self) -> dict[int, tuple[Node, Node]]:
        hidden = self.embedding.shape[-1]
        return {i: (Node(self.levels[depth][row, :hidden]), Node(self.levels[depth][row, hidden:]))
                for i, (depth, row) in self.positions[0].items()}


_DEPTH = {layer: d for d, layer in enumerate(LAYERS)}


def encode(tree: SemTree, binding: ParamBinding,
           token_index: dict[str, int]) -> EncodedTree:
    """The batch-of-one :func:`encode_batch`, with an [H] embedding."""
    encoded = encode_batch([tree], binding, token_index)
    encoded.embedding = Node(encoded.embedding.value[0])
    return encoded


def encode_batch(trees: list[SemTree], binding: ParamBinding,
                 token_index: dict[str, int]) -> EncodedTree:
    """Child-sum bottom-up pass over a minibatch of trees as one fused op.
    Level d holds the depth-d nodes of every tree, tree after tree, each
    tree's in node order, and the levels run deepest first (``_level``);
    leaves see zero child sums, so their gates reduce to functions of the
    token embedding alone.  A label's state sums the h of its nodes.

    The op's adjoint runs the levels top-down.  A level's [h | c] adjoint is
    its own share of the output adjoint (the root's embedding rows, or its
    layer's label rows) plus what the level above hands down, and the
    levels' parameter adjoints are summed root first."""
    params = binding.params
    hidden = params["enc.emb"].shape[1]
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

    levels, adjoints = [None] * len(LAYERS), [None] * len(LAYERS)
    below = None
    for depth in reversed(range(len(LAYERS))):
        tokens = np.array([token_index[n.token] for _, n in members[depth]], dtype=np.intp)
        children = [[positions[b][c][1] for c in n.children] for b, n in members[depth]]
        below, adjoints[depth] = _level(params, tokens, below, children)
        levels[depth] = below

    # The output rows: the embeddings, then each attended layer's labels.
    # picks[d]: the level-d rows that feed the output, and the rows they feed.
    stops = np.cumsum([len(trees)] + [len(groups[layer]) for layer in ATTENDED])
    value = np.empty((stops[-1], hidden))
    value[:len(trees)] = levels[0][:, :hidden]
    picks = {0: (np.arange(len(trees)),) * 2}
    labels = {}
    for layer, start, stop in zip(ATTENDED, stops, stops[1:]):
        group = groups[layer]
        idx, counts, valid = _padded([g[3] for g in group])
        value[start:stop] = _ordered_sum(levels[_DEPTH[layer]][:, :hidden], idx, counts)
        picks[_DEPTH[layer]] = (idx[valid], start + np.nonzero(valid)[0])
        labels[layer] = LabelStates(value[start:stop], [g[1] for g in group],
                                    np.array([g[2] for g in group], dtype=np.intp),
                                    np.bincount([g[0] for g in group], minlength=len(trees)))

    def vjp(grad: np.ndarray):
        totals = above = None
        for depth, (level, adjoint) in enumerate(zip(levels, adjoints)):
            d = np.zeros_like(level) if above is None else above
            if depth in picks:
                rows, out_rows = picks[depth]
                d[rows, :hidden] += grad[out_rows]
            *weights, above = adjoint(d)
            if totals is None:
                totals = weights   # the root level's, all fresh arrays
            else:
                for total, w in zip(totals, weights):
                    if w is not None:
                        total += w
        return tuple(totals)

    parents = tuple(binding[name] for name in ("enc.emb", "enc.e", "enc.h", "enc.b"))
    output = binding.tape.op(value, parents, vjp)
    return EncodedTree(Node(value[:len(trees)]), labels, output, levels, positions)


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
    total = x[idx[:, 0]] if idx.shape[1] else np.zeros((len(idx), x.shape[1]))
    total[counts == 0] = 0.0
    for r in range(1, idx.shape[1]):
        more = counts > r
        total[more] += x[idx[more, r]]
    return total


def _level(params: dict[str, np.ndarray], tokens: np.ndarray, below: np.ndarray | None,
           children: list[list[int]]):
    """One tree level's child-sum LSTM transitions.  Row k is the node whose
    token has embedding row ``tokens[k]`` and whose children are rows
    ``children[k]`` of the level ``below`` ([h | c] per row; None under the
    leaves): the children's h and c are summed in order, then
    z = E·e + b (+ H·Σh), the gates i, f, o, g, c = i·g (+ f·Σc) and
    h = o·tanh(c).

    Returns the level's [h | c] and its adjoint, which maps the [h | c]
    adjoint to those of ``enc.emb``, ``enc.e``, ``enc.h`` (None under the
    leaves) and ``enc.b``, each weight's as one Δᵀ·X product, and of the
    level below (None under the leaves)."""
    emb, w_e, w_h, b = (params[name] for name in ("enc.emb", "enc.e", "enc.h", "enc.b"))
    H = emb.shape[1]
    e = emb[tokens]
    z = _rowwise(w_e, e) + b
    if below is not None:
        idx, counts, valid = _padded(children)
        sums = _ordered_sum(below, idx, counts)
        h_sum, c_sum = np.ascontiguousarray(sums[:, :H]), sums[:, H:]
        z = z + _rowwise(w_h, h_sum)
        # Every row below has exactly one parent here.
        parent_of = np.empty(len(below), dtype=np.intp)
        parent_of[idx[valid]] = np.nonzero(valid)[0]
    ifo = logistic(z[:, :3 * H])
    i, f, o = ifo[:, :H], ifo[:, H:2 * H], ifo[:, 2 * H:]
    g = np.tanh(z[:, 3 * H:])
    c = i * g
    if below is not None:
        c = c + f * c_sum
    tc = np.tanh(c)

    def adjoint(grad: np.ndarray):
        gh, gc = grad[:, :H], grad[:, H:]
        dc = gc + gh * o * (1.0 - tc * tc)
        dz_f = dc * c_sum * f * (1.0 - f) if below is not None else np.zeros_like(dc)
        dz = np.concatenate([dc * g * i * (1.0 - i), dz_f,
                             gh * tc * o * (1.0 - o), dc * i * (1.0 - g * g)], axis=1)
        d_emb = np.zeros_like(emb)
        np.add.at(d_emb, tokens, dz @ w_e)
        if below is None:
            return d_emb, dz.T @ e, None, dz.sum(axis=0), None
        d_sums = np.concatenate([dz @ w_h, dc * f], axis=1)
        return d_emb, dz.T @ e, dz.T @ h_sum, dz.sum(axis=0), d_sums[parent_of]

    return np.concatenate([o * tc, c], axis=1), adjoint


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
    encoded.embedding = Node(encoded.embedding.value[0])
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

    output = binding.tape.op(y, (w, b), vjp)
    return EncodedTree(Node(output.value), {}, output)
