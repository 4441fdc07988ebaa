"""Reference copy of the teacher-forced objective as it was before the fused
decoder kernels and the fused loss, driving the reference engine, encoders and
decoder in this package; only the imports and the encoder call differ from
the original."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from treenlg.errors import ContractError
from treenlg.model import Model, PreparedExample
from treenlg.training import TrainConfig

from .decoder import (
    AttentionDists,
    PLACEHOLDER,
    ParamBinding,
    attend,
    initial_state,
    make_feedback_input,
    step,
)
from .engine import Node, Tape, add, log, neg, pick
from .tree import encode_sr


def nll_loss(dists: list[Node], targets: list[int]) -> Node:
    """Summed negative log-likelihood of the target ids, one distribution per token."""
    if len(dists) != len(targets):
        raise ContractError(f"{len(dists)} distributions for {len(targets)} targets")
    if not dists:
        raise ContractError("empty sentence")
    total = None
    for dist, target in zip(dists, targets):
        term = log(pick(dist, target))
        total = term if total is None else add(total, term)
    return neg(total)


def att_loss(nll: Node,
             supervised_steps: list[tuple[AttentionDists, tuple[int, int, int]]]) -> Node:
    """Plain objective plus the placeholder-step label penalties: the negative
    log probability of the true domain, act and slot under each distribution."""
    total = nll
    for dists, (d_idx, a_idx, s_idx) in supervised_steps:
        for dist, idx in ((dists.domain, d_idx), (dists.act, a_idx), (dists.slot, s_idx)):
            total = add(total, neg(log(pick(dist, idx))))
    return total


@dataclass
class SentenceForward:
    tape: Tape
    loss: Node
    nll: Node
    n_tokens: int


def teacher_forced(model: Model, prep: PreparedExample, config: TrainConfig,
                   training: bool, rng: np.random.Generator | None = None,
                   recording: bool = True) -> SentenceForward:
    """Build the full training graph for one sentence."""
    tape = Tape(recording=recording)
    binding = ParamBinding(tape, model.params)
    encoded = encode_sr(model, prep.example.sr, binding)
    state = initial_state(encoded, model.hidden, binding)
    vocab = model.vocab
    targets = vocab.encode(prep.tokens) + [vocab.eos_id]
    inputs = [vocab.sos_id] + targets[:-1]

    rate = config.dropout if training else 0.0
    ontology = model.ontology
    dists: list[Node] = []
    supervised: list[tuple[AttentionDists, tuple[int, int, int]]] = []
    pending: AttentionDists | None = None
    for t, (inp, _target) in enumerate(zip(inputs, targets)):
        x = make_feedback_input(inp, pending, binding, ontology.feedback_size,
                                dropout_rate=rate, training=training, rng=rng)
        state, probs = step(binding, x, state, dropout_rate=rate,
                            training=training, rng=rng)
        dists.append(probs)
        pending = None
        is_placeholder = (model.uses_attention and t < len(prep.tokens)
                          and prep.tokens[t] == PLACEHOLDER)
        if is_placeholder:
            attention = attend(state.s, encoded, ontology)
            pending = attention
            if prep.attention_usable and t in prep.labels:
                domain, act, slot = prep.labels[t]
                supervised.append((attention, (ontology.domain_index(domain),
                                               ontology.act_index(act),
                                               ontology.slot_index(slot))))

    nll = nll_loss(dists, targets)
    loss = att_loss(nll, supervised) if model.uses_attention else nll
    return SentenceForward(tape, loss, nll, len(targets))
