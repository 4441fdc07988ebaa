"""Slot error rate and corpus BLEU over delexicalized text, plus multi-seed
aggregation and the seen/unseen test split.

SER counts placeholder tokens: the SR licenses one token per informable
entry (occurrence-counted); a hypothesis token is correct only when domain,
act and slot all match.  Requestable and binary entries produce no tokens
and are excluded from the reference multiset.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import ContractError
from .semantics import Example, Ontology, SemanticRepresentation, parse_token, tokenize


@dataclass
class SerCounts:
    """p missing, q redundant, N required. The rate (p+q)/N can exceed 1."""

    missing: int
    redundant: int
    required: int

    @property
    def rate(self) -> float:
        if self.required == 0:
            # Nothing was required: clean output scores 0, each stray token
            # counts as a whole unit of error.
            return float(self.redundant)
        return (self.missing + self.redundant) / self.required

    def __add__(self, other: "SerCounts") -> "SerCounts":
        return SerCounts(self.missing + other.missing,
                         self.redundant + other.redundant,
                         self.required + other.required)


def hypothesis_tokens(text: str, ontology: Ontology) -> Counter:
    """Multiset of placeholder triples found in a delexicalized hypothesis."""
    found: Counter = Counter()
    for tok in tokenize(text):
        if not tok.startswith("@"):
            continue
        parsed = parse_token(tok, ontology)
        if parsed is not None:
            domain, act, slot, _ = parsed
            found[(domain, act, slot)] += 1
    return found


def ser(sr: SemanticRepresentation, hypothesis: str) -> SerCounts:
    reference = Counter(sr.licensed_tokens())
    produced = hypothesis_tokens(hypothesis, sr.ontology)
    missing = sum((reference - produced).values())
    redundant = sum((produced - reference).values())
    return SerCounts(missing, redundant, sum(reference.values()))


def corpus_ser(counts: list[SerCounts]) -> SerCounts:
    total = SerCounts(0, 0, 0)
    for c in counts:
        total = total + c
    return total


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


@dataclass
class BleuReport:
    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float


def bleu(hypotheses: list[str], references: list[str]) -> BleuReport:
    """Corpus BLEU-4, uniform weights, single reference per hypothesis.

    Smoothing: a zero match count becomes 1e-9; an order with no n-grams at
    all (every sentence shorter than n) contributes precision 1.  Both sides
    run through the shared lowercase tokenizer.
    """
    if not hypotheses or len(hypotheses) != len(references):
        raise ContractError(
            f"need equal non-empty lists, got {len(hypotheses)} vs {len(references)}")
    matches = [0] * 4
    guesses = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        h = tokenize(hyp)
        r = tokenize(ref)
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, 5):
            hc = _ngrams(h, n)
            rc = _ngrams(r, n)
            guesses[n - 1] += sum(hc.values())
            matches[n - 1] += sum(min(count, rc[gram]) for gram, count in hc.items())
    precisions = []
    for m, g in zip(matches, guesses):
        if g == 0:
            precisions.append(1.0)
        else:
            precisions.append((m if m > 0 else 1e-9) / g)
    if hyp_len == 0:
        return BleuReport(0.0, tuple(precisions), 0.0)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    score = bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)
    return BleuReport(score, tuple(precisions), bp)


def aggregate(rows: list[dict]) -> list[dict]:
    """Mean and population standard deviation of SER and BLEU per (mode,
    fraction), in stable order."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["mode"], row["fraction"]), []).append(row)
    out = []
    for (mode, fraction), members in sorted(groups.items()):
        summary = {"mode": mode, "fraction": fraction, "n": len(members)}
        for vk in ("ser", "bleu"):
            values = [float(m[vk]) for m in members]
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            summary[f"{vk}_mean"] = mean
            summary[f"{vk}_sd"] = math.sqrt(var)
        out.append(summary)
    return out


def seen_unseen_split(test_examples: list[Example], train_examples: list[Example],
                      include_values: bool = True) -> tuple[list[Example], list[Example]]:
    """Partition test examples by whether their SR occurs in the training
    split.  By default informable values participate in the identity; pass
    ``include_values=False`` for triple-only matching."""
    train_keys = {e.sr.key(include_values) for e in train_examples}
    seen = [e for e in test_examples if e.sr.key(include_values) in train_keys]
    unseen = [e for e in test_examples if e.sr.key(include_values) not in train_keys]
    return seen, unseen
