"""Beam-search and greedy decoding with placeholder resolution.

The search rule:

* Every live hypothesis is advanced by one decoder step; all of them share
  one ``step`` call over their stack per time step, and the children that emit the
  placeholder share one ``attend`` call.
* Per parent, the ``beam_size`` best next tokens are taken by a stable sort
  of the log probabilities, so ties go to the lowest token id.  An end token
  among them finishes that child at once instead of competing for a live
  slot.
* In attention mode, when the SR's tree has no label in some attended
  layer (a bare act has no slot, an empty SR not even a domain), there is
  nothing to attend over, and the search never extends a hypothesis with
  the placeholder: a placeholder among a parent's best tokens is dropped.
  At beam size 1 the best other token takes its place, so greedy decoding
  is the argmax over the tokens it may emit.
* The other children are ordered globally by score (descending), then
  parent position, then token id, and the first ``beam_size`` stay live.
* The search stops when no hypothesis is live, when ``max_length`` steps
  have run, or when ``beam_size`` hypotheses have finished and no live one
  scores above the worst of them.  If none finished, the live ones are
  returned, flagged as truncated.

Greedy decoding is the same search at beam size 1.  In attention mode the
emitted word is the bare placeholder "@"; the step's semantic state
immediately queries the encoded tree, the argmax triple names the token,
and the three distributions ride along as the next step's input.  Scores
are plain sums of chosen-token log probabilities, unnormalised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decoder import (
    AttentionDists,
    AttentionTrace,
    PLACEHOLDER,
    TraceEntry,
    attend,
    initial_state,
    make_feedback_input,
    resolve_placeholder,
    step,
)
from .engine import ParamBinding, Tape
from .errors import ContractError
from .model import Model
from .semantics import Ontology, SemanticRepresentation, lexicalize, token_surface

DEFAULT_BEAM_SIZE = 10
DEFAULT_MAX_LENGTH = 80


@dataclass
class Hypothesis:
    """One partial or finished decode; extension copies, never mutates.
    ``trace`` holds one entry per emitted placeholder."""

    token_ids: tuple[int, ...]
    score: float
    trace: tuple[TraceEntry, ...] = ()
    finished: bool = False
    truncated: bool = False


@dataclass
class RankedHypothesis:
    delex_text: str
    surface_text: str
    score: float
    trace: AttentionTrace
    flags: list[str] = field(default_factory=list)
    truncated: bool = False


@dataclass
class GenerationResult:
    """Hypotheses sorted by score, best first; at most beam-size entries."""

    hypotheses: list[RankedHypothesis]

    @property
    def top(self) -> RankedHypothesis:
        return self.hypotheses[0]

    def to_json(self, sr: SemanticRepresentation, ontology) -> dict:
        return {
            "sr": sr.to_json(),
            "hyps": [{"delex": h.delex_text, "text": h.surface_text,
                      "score": h.score, "flags": h.flags, "truncated": h.truncated}
                     for h in self.hypotheses],
            "trace": AttentionTrace(list(self.top.trace.entries)).to_json(ontology)
            if self.top.trace.entries else None,
        }


def _delex_text(model: Model, sr: SemanticRepresentation, hyp: Hypothesis) -> str:
    """Turn token ids into delexicalized text; in attention mode each "@"
    becomes the composite surface of its resolved triple, occurrence-indexed
    consistently with the reference delexicalization."""
    words = model.vocab.decode(list(hyp.token_ids))
    if not model.uses_attention:
        return " ".join(words)
    sr_counts = sr.triple_counts()
    emitted_iter = (entry.triple for entry in hyp.trace)
    seen: dict[tuple[str, str, str], int] = {}
    out = []
    for w in words:
        if w == PLACEHOLDER:
            triple = next(emitted_iter, None)
            if triple is None:
                out.append(w)
                continue
            seen[triple] = seen.get(triple, 0) + 1
            repeated = sr_counts.get(triple, 0) > 1
            out.append(token_surface(*triple, seen[triple], repeated))
        else:
            out.append(w)
    return " ".join(out)


def _rank(model: Model, sr: SemanticRepresentation, hyps: list[Hypothesis],
          beam_size: int) -> GenerationResult:
    hyps = sorted(hyps, key=lambda h: -h.score)[:beam_size]
    ranked = []
    for h in hyps:
        delex = _delex_text(model, sr, h)
        surface, flags = lexicalize(sr, delex, strict=False)
        ranked.append(RankedHypothesis(delex, surface, h.score,
                                       AttentionTrace(list(h.trace)), flags, h.truncated))
    return GenerationResult(ranked)


def _feedback(live: list[Hypothesis], placeholder_id: int | None, ontology: Ontology,
              tape: Tape) -> AttentionDists | None:
    """The feedback block of the stack: the attention distributions of the last
    word for hypotheses that just emitted a placeholder, zeros elsewhere."""
    rows = [k for k, h in enumerate(live)
            if h.token_ids and h.token_ids[-1] == placeholder_id]
    if not rows:
        return None
    blocks = [np.zeros((len(live), len(labels)))
              for labels in (ontology.domains, ontology.acts, ontology.slots)]
    for k in rows:
        entry = live[k].trace[-1]
        for block, dist in zip(blocks, (entry.domain_dist, entry.act_dist, entry.slot_dist)):
            block[k] = dist
    return AttentionDists(*(tape.leaf(block) for block in blocks))


def _search(model: Model, sr: SemanticRepresentation, beam_size: int,
            max_length: int) -> GenerationResult:
    if beam_size < 1 or max_length < 1:
        raise ContractError("beam size and max length must be at least 1")
    tape = Tape(recording=False)
    binding = ParamBinding(tape, model.params)
    encoded = model.encode_sr(sr, binding)
    vocab, ontology = model.vocab, model.ontology
    placeholder_id = vocab.index.get(PLACEHOLDER) if model.uses_attention else None
    # The token no child may emit, if any (-1: none).
    banned = -1
    if placeholder_id is not None and not all(states.counts.all()
                                              for states in encoded.labels.values()):
        banned = placeholder_id
    state = initial_state(encoded, model.hidden, binding).take(tape, [0])
    live = [Hypothesis((), 0.0)]
    finished: list[Hypothesis] = []

    for t in range(max_length):
        words = [h.token_ids[-1] if h.token_ids else vocab.sos_id for h in live]
        x = make_feedback_input(words, _feedback(live, placeholder_id, ontology, tape),
                                binding, ontology.feedback_size)
        state, probs = step(binding, x, state)
        logp = np.log(np.maximum(probs.value, 1e-300))
        scores = np.array([h.score for h in live])[:, None] + logp
        # Stable sort so ties go to the lowest token id, like argmax.
        top = np.argsort(-logp, axis=1, kind="stable")
        if beam_size == 1 and banned >= 0:
            top = top[top != banned].reshape(len(live), -1)
        top = top[:, :beam_size]
        ends = top == vocab.eos_id
        for parent in np.nonzero(ends.any(axis=1))[0]:
            hyp = live[parent]
            finished.append(Hypothesis(hyp.token_ids, float(scores[parent, vocab.eos_id]),
                                       hyp.trace, finished=True))
        parents, cols = np.nonzero(~ends & (top != banned))
        tokens = top[parents, cols]
        child_scores = scores[parents, tokens]
        chosen = np.lexsort((tokens, parents, -child_scores))[:beam_size]
        parents, tokens, child_scores = parents[chosen], tokens[chosen], child_scores[chosen]

        state = state.take(tape, parents)
        emitted = [k for k, tok in enumerate(tokens) if tok == placeholder_id]
        resolved: dict[int, tuple[TraceEntry]] = {}
        if emitted:
            dists = attend(tape.leaf(state.s.value[emitted]), encoded, ontology)
            for j, k in enumerate(emitted):
                resolved[k] = (resolve_placeholder(t, dists.domain.value[j].copy(),
                                                   dists.act.value[j].copy(),
                                                   dists.slot.value[j].copy(), ontology),)
        live = [Hypothesis(live[p].token_ids + (int(tok),), float(score),
                           live[p].trace + resolved.get(k, ()))
                for k, (p, tok, score) in enumerate(zip(parents, tokens, child_scores))]

        # Keeping the best beam_size after each step selects the same set as
        # re-ranking on every end token; the stop test reads the worst of them.
        finished.sort(key=lambda h: -h.score)
        del finished[beam_size:]
        if not live:
            break
        if len(finished) >= beam_size and max(h.score for h in live) <= finished[-1].score:
            break

    if not finished:
        # Nothing completed within the length budget: return the best
        # unfinished hypotheses, flagged.
        for h in live:
            h.truncated = True
        return _rank(model, sr, live, beam_size)
    return _rank(model, sr, finished, beam_size)


def beam_decode(model: Model, sr: SemanticRepresentation,
                beam_size: int = DEFAULT_BEAM_SIZE,
                max_length: int = DEFAULT_MAX_LENGTH) -> GenerationResult:
    return _search(model, sr, beam_size, max_length)


def greedy_decode(model: Model, sr: SemanticRepresentation,
                  max_length: int = DEFAULT_MAX_LENGTH) -> GenerationResult:
    """Argmax token per step: the search at beam size 1."""
    return _search(model, sr, 1, max_length)
