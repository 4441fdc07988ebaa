"""Reference copy of greedy and beam-search decoding as they were before
the stacked search, on the reference engine and encoders in this package;
only the imports and the encoder call differ from the original.

Greedy and beam-search decoding with placeholder resolution.

Beam search keeps the ``beam_size`` best unfinished continuations, taking the
top ``beam_size`` next tokens per live hypothesis; a hypothesis finishes when
it selects the end token.  With beam size 1 this is greedy decoding by
construction, and ``greedy_decode`` is a separate straight-line loop so the
two can be checked against each other.

In attention mode the emitted word is the bare placeholder "@"; the step's
semantic state immediately queries the encoded tree, the argmax triple names
the token, and the three distributions ride along as the next step's input.
Scores are plain sums of chosen-token log probabilities, unnormalised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decoder import (
    AttentionDists,
    ParamBinding,
    AttentionTrace,
    PLACEHOLDER,
    TraceEntry,
    assemble_token,
    attend,
    initial_state,
    make_feedback_input,
    step,
)
from .engine import Tape
from .tree import encode_sr
from treenlg.errors import ContractError
from treenlg.model import Model
from treenlg.semantics import SemanticRepresentation, lexicalize, token_surface

DEFAULT_BEAM_SIZE = 10
DEFAULT_MAX_LENGTH = 80


@dataclass
class Hypothesis:
    """One partial or finished decode; extension copies, never mutates."""

    token_ids: tuple[int, ...]
    score: float
    state: object
    pending: AttentionDists | None
    trace: tuple[TraceEntry, ...] = ()
    emitted: tuple[tuple[str, str, str], ...] = ()
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
    emitted_iter = iter(hyp.emitted)
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


def _advance(model: Model, binding: ParamBinding, hyp: Hypothesis) -> tuple[object, np.ndarray]:
    """Run one decoder step for a hypothesis; returns (state, log-probs)."""
    vocab = model.vocab
    word_id = hyp.token_ids[-1] if hyp.token_ids else vocab.sos_id
    x = make_feedback_input(word_id, hyp.pending, binding,
                            model.ontology.feedback_size)
    new_state, probs = step(binding, x, hyp.state)
    logp = np.log(np.maximum(probs.value, 1e-300))
    return new_state, logp


def _extend(model: Model, binding: ParamBinding, encoded, hyp: Hypothesis,
            new_state, token_id: int, token_score: float,
            step_index: int) -> Hypothesis:
    vocab = model.vocab
    if token_id == vocab.eos_id:
        return Hypothesis(hyp.token_ids, hyp.score + token_score, new_state, None,
                          hyp.trace, hyp.emitted, finished=True)
    pending = None
    trace = hyp.trace
    emitted = hyp.emitted
    if model.uses_attention and vocab.tokens[token_id] == PLACEHOLDER:
        dists = attend(new_state.s, encoded, model.ontology)
        triple, entry = assemble_token(dists, model.ontology, step_index)
        pending = dists
        trace = trace + (entry,)
        emitted = emitted + (triple,)
    return Hypothesis(hyp.token_ids + (token_id,), hyp.score + token_score,
                      new_state, pending, trace, emitted)


def beam_decode(model: Model, sr: SemanticRepresentation,
                beam_size: int = DEFAULT_BEAM_SIZE,
                max_length: int = DEFAULT_MAX_LENGTH) -> GenerationResult:
    if beam_size < 1 or max_length < 1:
        raise ContractError("beam size and max length must be at least 1")
    tape = Tape(recording=False)
    binding = ParamBinding(tape, model.params)
    encoded = encode_sr(model, sr, binding)
    live = [Hypothesis((), 0.0, initial_state(encoded, model.hidden, binding), None)]
    finished: list[Hypothesis] = []

    for t in range(max_length):
        candidates: list[tuple[float, int, int, Hypothesis, object]] = []
        for parent_idx, hyp in enumerate(live):
            new_state, logp = _advance(model, binding, hyp)
            take = min(beam_size, logp.size)
            # Stable sort so ties go to the lowest token id, like argmax.
            top = np.argsort(-logp, kind="stable")[:take]
            for token_id in top:
                if token_id == model.vocab.eos_id:
                    # An end token inside a parent's top choices finishes
                    # immediately instead of competing for a live slot.
                    child = _extend(model, binding, encoded, hyp, new_state,
                                    int(token_id), float(logp[token_id]), t)
                    finished.append(child)
                    finished = sorted(finished, key=lambda h: -h.score)[:beam_size]
                else:
                    candidates.append((hyp.score + logp[token_id], parent_idx,
                                       int(token_id), hyp, new_state))
        # Deterministic global order: score desc, then parent, then token id.
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        live = [_extend(model, binding, encoded, hyp, new_state, token_id,
                        score - hyp.score, t)
                for score, parent_idx, token_id, hyp, new_state in candidates[:beam_size]]
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


def greedy_decode(model: Model, sr: SemanticRepresentation,
                  max_length: int = DEFAULT_MAX_LENGTH) -> GenerationResult:
    """Argmax token per step; placeholder resolution identical to beam search."""
    if max_length < 1:
        raise ContractError("max length must be at least 1")
    tape = Tape(recording=False)
    binding = ParamBinding(tape, model.params)
    encoded = encode_sr(model, sr, binding)
    hyp = Hypothesis((), 0.0, initial_state(encoded, model.hidden, binding), None)
    for t in range(max_length):
        new_state, logp = _advance(model, binding, hyp)
        token_id = int(np.argmax(logp))
        hyp = _extend(model, binding, encoded, hyp, new_state, token_id,
                      float(logp[token_id]), t)
        if hyp.finished:
            break
    if not hyp.finished:
        hyp.truncated = True
    return _rank(model, sr, [hyp], beam_size=1)
