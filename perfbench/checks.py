"""Correctness checks the benchmark applies to the program's outputs.

Every check is a plain function of values the benchmark collected, so its
tests can feed it a corrupted value and watch it fail.  A check raises
:class:`CheckFailed` with a one-line reason; the runner records the reason
and reports ``"correct": false``.

The slot counting here is written apart from ``treenlg.metrics`` and
``treenlg.semantics`` on purpose: it is the independent recount that the
program's SER is compared against.
"""

from __future__ import annotations

import math
import re
from collections import Counter


class CheckFailed(Exception):
    pass


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def directional_gradient(analytic: float, numeric: float,
                         rel_tol: float = 1e-6, abs_tol: float = 1e-8) -> None:
    """The tape gradient projected on a direction must equal the central
    difference of the loss along that direction."""
    err = abs(analytic - numeric)
    require(err <= abs_tol + rel_tol * max(abs(analytic), abs(numeric)),
            f"directional derivative {analytic!r} vs central difference {numeric!r}")


def loss_decreases(epoch_losses: list[float]) -> None:
    require(len(epoch_losses) >= 2 and epoch_losses[-1] < epoch_losses[0],
            f"mean train loss did not fall: {epoch_losses}")


def beam_scores_match(scores: list[float], rescored: list[float], tol: float = 1e-9) -> None:
    """Each hypothesis score is the log probability of its own tokens."""
    require(len(scores) == len(rescored), "rescored a different number of hypotheses")
    for rank, (score, logp) in enumerate(zip(scores, rescored)):
        require(abs(score - logp) <= tol,
                f"hypothesis {rank}: score {score!r} but its tokens rescore to {logp!r}")


def ranked(scores: list[float], beam_size: int) -> None:
    require(1 <= len(scores) <= beam_size,
            f"{len(scores)} hypotheses for beam size {beam_size}")
    require(all(a >= b for a, b in zip(scores, scores[1:])),
            f"hypotheses not sorted by score: {scores}")


def same_outputs(first: list[tuple[str, float]], second: list[tuple[str, float]],
                 what: str) -> None:
    """Two decodes of the same inputs agree on text and score bitwise."""
    require(len(first) == len(second), f"{what}: {len(first)} vs {len(second)} outputs")
    for i, (a, b) in enumerate(zip(first, second)):
        require(a == b, f"{what}: sentence {i} decodes to {a!r} vs {b!r}")


def ends_early(lengths: list[int], truncated: list[bool], max_length: int) -> None:
    """Every output stopped on the end token well before the length budget."""
    require(not any(truncated), "an output hit the length budget without an end token")
    require(max(lengths) <= max_length // 2,
            f"longest output has {max(lengths)} tokens, budget {max_length}")


def sample_size(n_sample: int, fraction: float, n_single_domain: int) -> None:
    expected = math.ceil(fraction * n_single_domain)
    require(n_sample == expected,
            f"sampled {n_sample} sentences, expected ceil({fraction} x {n_single_domain})"
            f" = {expected}")


def vocab_covers(tokens: list[str], vocabulary: set[str]) -> None:
    missing = sorted(set(tokens) - vocabulary)
    require(not missing, f"sampled tokens missing from the vocabulary: {missing[:5]}")


_PUNCT = re.compile(r"([,.?!])")


def _words(text: str) -> list[str]:
    return _PUNCT.sub(r" \1 ", text.lower()).split()


def slot_counts(entries, text: str, schema: dict) -> tuple[int, int, int]:
    """(missing, redundant, required) placeholder tokens of one hypothesis.

    ``entries`` are the SR's entries (objects with domain, act, slot); an
    entry is required once when the schema marks its slot informable.  A
    token ``@domain-act-slot`` optionally ends in an occurrence number."""
    required = Counter((e.domain, e.act, e.slot) for e in entries
                       if e.slot is not None
                       and schema.get(e.domain, {}).get(e.act, {}).get(e.slot) == "informable")
    produced: Counter = Counter()
    for word in _words(text):
        if not word.startswith("@"):
            continue
        parts = word[1:].split("-", 2)
        if len(parts) < 3:
            continue
        domain, act, slot = parts
        slots = schema.get(domain, {}).get(act, {})
        if slot not in slots:
            stem = slot.rstrip("0123456789")
            if stem != slot and stem in slots:
                slot = stem
        produced[(domain, act, slot)] += 1
    missing = sum((required - produced).values())
    redundant = sum((produced - required).values())
    return missing, redundant, sum(required.values())


def slot_rate(counts: list[tuple[int, int, int]]) -> float:
    missing = sum(c[0] for c in counts)
    redundant = sum(c[1] for c in counts)
    required = sum(c[2] for c in counts)
    return (missing + redundant) / required if required else float(redundant)


def ser_matches(own: tuple[int, int, int], program: tuple[int, int, int], what: str) -> None:
    require(tuple(own) == tuple(program),
            f"{what}: recount (missing, redundant, required) {own} vs treenlg.metrics {program}")


def corpus_ser_matches(returned: float, own_rate: float) -> None:
    require(returned == own_rate,
            f"evaluate_examples SER {returned!r} vs recount {own_rate!r}")
