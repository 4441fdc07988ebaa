"""LSTM decoder with a gated semantic state and layer-wise attention.

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

``make_feedback_input``, ``step`` and ``attend`` are the only definition of
this math, for training and decoding alike.  Each computes its forward pass
in numpy over one row ([n] inputs) or a stack of K rows ([K, n]): the
hypotheses of a beam, or the live sentences of a training minibatch.  They
are forward-only and pass plain arrays among themselves: the decoder state,
the input row, the attention distributions.  ``step`` and
``make_feedback_input`` read the weights from ``binding.params`` and refuse
a recording tape; ``attend`` touches no tape.  Once per call, ``step``
checks its word distributions and ``attend`` its attention distributions
for NaN/Inf (``DomainError``).  Their one adjoint is the teacher-forced
decoder op in ``training``, which runs them over a whole minibatch and
back-propagates through time in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import (
    Node,
    ParamBinding,
    Tape,
    check_finite,
    init_uniform,
    logistic,
    softmax_last,
)
from .errors import ContractError, DimensionError
from .semantics import Ontology
from .tree import ATTENDED, EncodedTree, LabelStates

CELL_GATES = ("i", "f", "o", "g")
STATE_GATES = ("r", "w", "d")
GATES = CELL_GATES + STATE_GATES

PLACEHOLDER = "@"


def decoder_shapes(vocab_size: int, hidden: int,
                   feedback_size: int) -> dict[str, tuple[int, ...]]:
    """The word embedding, the gate stacks (rows in ``GATES`` order; the
    semantic-state stack has the last three gates only) and the output
    projection."""
    n = len(GATES)
    return {"dec.emb": (vocab_size, hidden),
            "dec.x": (n * hidden, hidden + feedback_size),
            "dec.h": (n * hidden, hidden),
            "dec.s": (len(STATE_GATES) * hidden, hidden),
            "dec.b": (n * hidden,),
            "dec.out.w": (vocab_size, hidden)}


def init_decoder_params(vocab_size: int, hidden: int, feedback_size: int,
                        rng: np.random.Generator, scale: float = 0.1) -> dict[str, np.ndarray]:
    """Drawn in order: the embedding, each gate's input, hidden and (for the
    state gates) semantic-state blocks, gate by gate, and the output
    projection.  The biases start at zero and draw nothing."""
    blocks = [("dec.emb", (vocab_size, hidden))]
    for gate in GATES:
        blocks += [("dec.x", (hidden, hidden + feedback_size)), ("dec.h", (hidden, hidden))]
        blocks += [("dec.s", (hidden, hidden))] if gate in STATE_GATES else []
    params = init_uniform(blocks + [("dec.out.w", (vocab_size, hidden))], rng, scale)
    params["dec.b"] = np.zeros(len(GATES) * hidden)
    return params


@dataclass
class DecoderState:
    """Hidden state, memory cell and semantic state, all hidden-width: [H]
    for one hypothesis, [K, H] for a stack of K.  A state that ``step`` made
    also holds that step's activations (i, f, o, g, r, w, d, tanh c, tanh s),
    which the teacher-forced decoder's adjoint reads."""

    h: np.ndarray
    c: np.ndarray
    s: np.ndarray
    acts: tuple[np.ndarray, ...] | None = None

    def take(self, rows) -> "DecoderState":
        """The given rows of the state, as one stack; a one-hypothesis state
        counts as a stack of one, and a row may repeat (a beam keeps several
        children of one parent)."""
        return DecoderState(*(v.reshape(-1, v.shape[-1])[rows] for v in (self.h, self.c, self.s)))


def initial_state(encoded: EncodedTree, hidden: int, binding: ParamBinding) -> DecoderState:
    """Zero hidden state and memory cell, and the semantic embedding as the
    semantic state.  ``binding`` is unused; the acceptance suite passes it."""
    s = encoded.embedding.value
    zeros = np.zeros(s.shape[:-1] + (hidden,))
    return DecoderState(h=zeros, c=zeros, s=s)


def _forward_only(tape: Tape) -> None:
    """The kernels register no op, so on a recording tape their gradients
    would go missing without a trace; the teacher-forced decoder op in
    ``training`` holds their adjoint."""
    if tape.recording:
        raise ContractError("decoder kernels run forward only, on a non-recording tape")


def _check_stack(*values: np.ndarray) -> None:
    """Inputs are one row ([n]) or a stack of them ([K, n])."""
    for v in values:
        if v.ndim not in (1, 2) or v.shape[:-1] != values[0].shape[:-1]:
            raise DimensionError(f"decoder inputs must share a leading axis, got "
                                 f"{[u.shape for u in values]}")


def step(binding: ParamBinding, x: np.ndarray, state: DecoderState,
         mask: np.ndarray | None = None) -> tuple[DecoderState, Node]:
    """One decoder step for one row ([H] inputs) or for a stack of them
    ([K, H]): returns the new state and the word distribution(s).  ``mask``
    is the step output's inverted-dropout mask, if any.  The distributions
    come as an unrecorded ``Node``, because the acceptance suite reads them
    as ``.value``.

    All seven gates come from one product with each gate stack for the input
    and hidden paths, and a third against the previous semantic state for
    the reading, writing and semantic-update gates.  Then the memory cell,
    the semantic state, the hidden state, dropout, the vocabulary projection
    and the softmax."""
    _forward_only(binding.tape)
    wx, wh, ws, b = (binding.params[name] for name in ("dec.x", "dec.h", "dec.s", "dec.b"))
    H = wh.shape[1]
    h_v, c_v, s_v = state.h, state.c, state.s
    _check_stack(x, h_v, c_v, s_v)
    if x.shape[-1] != wx.shape[1] or any(v.shape[-1] != H for v in (h_v, c_v, s_v)):
        raise DimensionError(f"decoder step expects input width {wx.shape[1]} and state "
                             f"width {H}, got {x.shape} and {h_v.shape}")
    z = x @ wx.T + h_v @ wh.T + b
    ifo = logistic(z[..., :3 * H])
    i, f, o = ifo[..., :H], ifo[..., H:2 * H], ifo[..., 2 * H:]
    g = np.tanh(z[..., 3 * H:4 * H])
    c = i * g + f * c_v
    z_state = z[..., 4 * H:] + s_v @ ws.T
    rw = logistic(z_state[..., :2 * H])
    r, w = rw[..., :H], rw[..., H:]
    d = np.tanh(z_state[..., 2 * H:])
    s = w * d + r * s_v
    tc, ts = np.tanh(c), np.tanh(s)
    h = o * tc + (1.0 - o) * ts
    h_out = h if mask is None else h * mask
    probs = check_finite(softmax_last(h_out @ binding.params["dec.out.w"].T),
                         "word distributions")
    return DecoderState(h, c, s, (i, f, o, g, r, w, d, tc, ts)), Node(probs)


@dataclass
class AttentionDists:
    """Distributions over the full canonical label sets; labels the SR did
    not activate hold probability zero."""

    domain: np.ndarray
    act: np.ndarray
    slot: np.ndarray


_LAYER_SIZE = {"domain": "domains", "act": "acts", "slot": "slots"}


def attend(s: np.ndarray, encoded: EncodedTree, ontology: Ontology,
           trees=None) -> AttentionDists:
    """Score semantic states against their trees' activated label states and
    normalise per layer.

    ``s`` is one state ([H]) or a stack ([K, H]); row k attends to tree
    ``trees[k]`` of ``encoded``, or, with ``trees`` None, to its only tree.
    Per layer, the scores are one product with the layer's [labels, H]
    label states, and each row's softmax over its tree's labels is
    scattered to the layer's canonical label positions."""
    _check_stack(s)
    n_rows = 1 if s.ndim == 1 else s.shape[0]
    which = np.zeros(n_rows, dtype=np.intp) if trees is None else np.asarray(trees, np.intp)
    if which.shape != (n_rows,):
        raise DimensionError(f"{which.size} trees for {n_rows} attending rows")
    out = {}
    for layer in ATTENDED:
        states = encoded.labels.get(layer)
        if states is None or not np.all(states.counts[which]):
            raise ContractError(f"no activated {layer} nodes to attend over")
        size = len(getattr(ontology, _LAYER_SIZE[layer]))
        out[layer] = check_finite(_layer_attention(s, states, which, size),
                                  "attention distributions")
    return AttentionDists(out["domain"], out["act"], out["slot"])


def _layer_attention(s: np.ndarray, states: LabelStates, which: np.ndarray,
                     size: int) -> np.ndarray:
    m = states.matrix
    if m.shape[1:] != s.shape[-1:]:
        raise DimensionError(f"attention state width {s.shape} vs label states {m.shape}")
    # Each row scores every label row and masks out other trees' labels.
    scores = np.where(states.owner == which[:, None], s.reshape(-1, s.shape[-1]) @ m.T, -np.inf)
    probs = softmax_last(scores)
    # Scatter to canonical positions; a row's masked-out labels hold exact
    # zeros, so each output is one probability plus zeros.
    onehot = np.zeros((len(m), size))
    onehot[np.arange(len(m)), states.index] = 1.0
    return (probs @ onehot).reshape(s.shape[:-1] + (size,))


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

    @property
    def triple(self) -> tuple[str, str, str]:
        return (self.domain, self.act, self.slot)


@dataclass
class AttentionTrace:
    entries: list[TraceEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

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


def resolve_placeholder(step_index: int, domain_dist: np.ndarray, act_dist: np.ndarray,
                        slot_dist: np.ndarray, ontology: Ontology) -> TraceEntry:
    """Name a placeholder by the argmax of each distribution; ties fall to
    the canonically first label."""
    return TraceEntry(step_index, domain_dist, act_dist, slot_dist,
                      ontology.domains[int(np.argmax(domain_dist))],
                      ontology.acts[int(np.argmax(act_dist))],
                      ontology.slots[int(np.argmax(slot_dist))])


def make_feedback_input(word_id, dists: AttentionDists | None,
                        binding: ParamBinding, feedback_size: int,
                        mask: np.ndarray | None = None, rows=None) -> np.ndarray:
    """Decoder input: word embedding plus the feedback block, which holds the
    previous step's three attention distributions right after a placeholder
    was emitted and zeros at every other step.

    ``word_id`` is one id, or an array of K ids for a stack of rows; then
    ``dists`` holds the distributions of the rows listed in ``rows`` (all
    rows if None), and the other rows get zeros.  ``mask`` is the word
    embedding's inverted-dropout mask, if any."""
    _forward_only(binding.tape)
    emb = binding.params["dec.emb"]
    ids = np.asarray(word_id, dtype=np.intp)
    if ids.size and not (0 <= ids.min() and ids.max() < emb.shape[0]):
        raise ContractError(f"word id out of range for a vocabulary of {emb.shape[0]}")
    word = emb[ids]
    if mask is not None:
        word = word * mask
    feedback = np.zeros(word.shape[:-1] + (feedback_size,))
    if dists is not None:
        parts = [dists.domain, dists.act, dists.slot]
        _check_stack(*parts)
        block = np.concatenate(parts, axis=-1)
        at = Ellipsis if rows is None else rows
        if block.shape != feedback[at].shape:
            raise DimensionError(f"feedback block of shape {block.shape} for rows of "
                                 f"shape {feedback[at].shape}")
        feedback[at] = block
    return np.concatenate([word, feedback], axis=-1)
