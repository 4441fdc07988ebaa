"""Seeded synthetic corpus generation.

Produces a small multi-domain corpus of templated sentences paired with
semantic representations.  Domains share act/slot vocabulary and most
sentence patterns, so models can transfer structure between them; a few
patterns are domain-specific so a freshly adapted domain is never trivial.
Every generated sentence delexicalizes cleanly by construction.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .semantics import Corpus, Example, Ontology, SemanticRepresentation, SrEntry, REQUEST

_SHARED_VALUES = {
    "area": ["north", "south", "east", "west", "centre"],
    "price": ["cheap", "moderate", "expensive"],
    "options": ["two", "three", "four", "five", "six"],
}

DEFAULT_SPEC = {
    "srs_per_domain": 50,
    "domains": {
        "restaurant": {
            **_SHARED_VALUES,
            "type": ["bistro", "cafe", "tavern", "diner"],
            "name": ["golden house", "silver spoon", "red lion", "blue anchor"],
            "food": ["italian", "indian", "thai", "seafood"],
        },
        "hotel": {
            **_SHARED_VALUES,
            "type": ["guesthouse", "hostel", "motel", "resort"],
            "name": ["ocean view", "maple lodge", "sunny court", "iron gate"],
            "stars": ["two", "three", "four", "five"],
        },
    },
    "acts": {"inform": "informable", "select": "informable",
             "request": "requestable", "thanks": None},
    "patterns": [
        {"entries": [["inform", "options"], ["inform", "type"], ["inform", "area"]],
         "text": "there are {options} {type} places in the {area} ."},
        {"entries": [["inform", "options"], ["inform", "type"], ["inform", "area"],
                     ["request", "price"]],
         "text": "there are {options} {type} places in the {area} , "
                 "do you have a price range in mind ?"},
        {"entries": [["inform", "name"], ["inform", "area"]],
         "text": "{name} is located in the {area} ."},
        {"entries": [["inform", "name"], ["inform", "price"]],
         "text": "{name} is in the {price} price range ."},
        {"entries": [["inform", "name"], ["inform", "area"], ["inform", "price"]],
         "text": "{name} is a {price} place in the {area} ."},
        {"entries": [["select", "type"], ["select", "type"]],
         "text": "would you prefer a {type} or a {type_2} ?"},
        {"entries": [["inform", "options"], ["select", "type"], ["select", "type"]],
         "text": "i have {options} options , would you prefer a {type} or a {type_2} ?"},
        {"entries": [["request", "area"]],
         "text": "which area are you looking for ?"},
        {"entries": [["thanks", None]],
         "text": "you are welcome , goodbye !"},
        {"entries": [["inform", "name"], ["inform", "food"]],
         "text": "{name} serves {food} food ."},
        {"entries": [["inform", "type"], ["inform", "area"], ["inform", "food"]],
         "text": "there is a {food} {type} in the {area} ."},
        {"entries": [["inform", "name"], ["inform", "stars"]],
         "text": "{name} has a {stars} star rating ."},
        {"entries": [["inform", "type"], ["inform", "area"], ["inform", "stars"]],
         "text": "the {area} has a {stars} star {type} ."},
    ],
}


@dataclass
class SynthSpec:
    """Declarative description of a synthetic corpus."""

    domains: dict[str, dict[str, list[str]]]
    acts: dict[str, str | None]
    patterns: list[dict]
    srs_per_domain: int

    @staticmethod
    def from_json(raw: dict) -> "SynthSpec":
        try:
            spec = SynthSpec(
                domains={d: dict(v) for d, v in raw["domains"].items()},
                acts=dict(raw["acts"]),
                patterns=list(raw["patterns"]),
                srs_per_domain=int(raw.get("srs_per_domain", 50)),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"malformed synthetic spec: {exc}") from exc
        spec.validate()
        return spec

    @staticmethod
    def default() -> "SynthSpec":
        return SynthSpec.from_json(DEFAULT_SPEC)

    @staticmethod
    def from_file(path: str | Path) -> "SynthSpec":
        return SynthSpec.from_json(json.loads(Path(path).read_text()))

    def validate(self) -> None:
        if len(self.domains) < 2:
            raise ConfigError("synthetic spec needs at least 2 domains")
        if self.srs_per_domain < 1:
            raise ConfigError("srs_per_domain must be positive")
        declared = {s for values in self.domains.values() for s in values}
        for p, pattern in enumerate(self.patterns):
            if "entries" not in pattern or "text" not in pattern:
                raise ConfigError(f"pattern {p} needs 'entries' and 'text'")
            slots_in_order: list[str] = []
            for act, slot in pattern["entries"]:
                if act not in self.acts:
                    raise ConfigError(f"pattern {p} references undeclared act {act!r}")
                if slot is None:
                    if self.acts[act] is not None:
                        raise ConfigError(f"pattern {p}: act {act!r} requires a slot")
                    continue
                if slot not in declared:
                    raise ConfigError(f"pattern {p} references undeclared slot {slot!r}")
                if self.acts[act] == "informable":
                    slots_in_order.append(slot)
            fields = set(re.findall(r"{(\w+)}", pattern["text"]))
            allowed = set()
            seen: dict[str, int] = {}
            for slot in slots_in_order:
                seen[slot] = seen.get(slot, 0) + 1
                allowed.add(slot if seen[slot] == 1 else f"{slot}_{seen[slot]}")
            if fields - allowed:
                raise ConfigError(
                    f"pattern {p} text references unknown fields {sorted(fields - allowed)}")

    def build_ontology(self) -> Ontology:
        schema: dict[str, dict[str, dict[str, str]]] = {}
        for domain, values in self.domains.items():
            schema[domain] = {}
            for act, prop in self.acts.items():
                if prop is None:
                    if any(a == act for pattern in self.patterns
                           for a, _ in pattern["entries"]):
                        schema[domain][act] = {}
                    continue
                slots = {}
                for pattern in self.patterns:
                    for a, slot in pattern["entries"]:
                        if a == act and slot in values:
                            slots[slot] = prop
                if slots:
                    schema[domain][act] = slots
        return Ontology(schema)

    def _pattern_available(self, pattern: dict, domain: str) -> bool:
        values = self.domains[domain]
        return all(slot is None or slot in values for _, slot in pattern["entries"])

    def _expand(self, pattern: dict, domain: str) -> list[tuple[list[SrEntry], str]]:
        """All (entries, text) instantiations of one pattern in one domain."""
        values = self.domains[domain]
        informable_positions = [i for i, (act, slot) in enumerate(pattern["entries"])
                                if slot is not None and self.acts[act] == "informable"]
        pools = [values[pattern["entries"][i][1]] for i in informable_positions]
        out = []
        for combo in itertools.product(*pools) if pools else [()]:
            entries: list[SrEntry] = []
            fill: dict[str, str] = {}
            seen: dict[str, int] = {}
            chosen = dict(zip(informable_positions, combo))
            for i, (act, slot) in enumerate(pattern["entries"]):
                if slot is None:
                    entries.append(SrEntry(domain, act, None, None))
                elif i in chosen:
                    value = chosen[i]
                    seen[slot] = seen.get(slot, 0) + 1
                    field = slot if seen[slot] == 1 else f"{slot}_{seen[slot]}"
                    fill[field] = value
                    entries.append(SrEntry(domain, act, slot, value))
                else:
                    entries.append(SrEntry(domain, act, slot, REQUEST))
            # Repeated triples need distinct values ("prefer a motel or a motel"
            # is also no sentence anyone would write).
            full = [(e.domain, e.act, e.slot, e.value) for e in entries]
            if len(set(full)) == len(full):
                out.append((entries, pattern["text"].format(**fill)))
        return out


def synth_corpus(spec: SynthSpec, seed: int) -> tuple[Corpus, Ontology]:
    """Deterministic corpus with ``spec.srs_per_domain`` distinct SRs per domain,
    one reference sentence per SR, split 3:1:1 within each domain."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    ontology = spec.build_ontology()
    rng = np.random.default_rng(seed)
    examples: list[Example] = []
    for domain in sorted(spec.domains):
        candidates: list[tuple[list[SrEntry], str]] = []
        for pattern in spec.patterns:
            if spec._pattern_available(pattern, domain):
                candidates.extend(spec._expand(pattern, domain))
        order = rng.permutation(len(candidates))
        chosen: list[tuple[SemanticRepresentation, str]] = []
        seen_keys = set()
        for idx in order:
            entries, text = candidates[idx]
            sr = SemanticRepresentation(entries, ontology)
            key = sr.key()
            if key in seen_keys:
                continue
            seen_keys.add(key)
            chosen.append((sr, text))
            if len(chosen) == spec.srs_per_domain:
                break
        if len(chosen) < spec.srs_per_domain:
            raise ConfigError(
                f"domain {domain!r} yields only {len(chosen)} distinct SRs, "
                f"{spec.srs_per_domain} requested")
        n = len(chosen)
        n_train = (3 * n) // 5
        n_dev = n // 5
        split_order = rng.permutation(n)
        tags = [""] * n
        for rank, idx in enumerate(split_order):
            if rank < n_train:
                tags[idx] = "train"
            elif rank < n_train + n_dev:
                tags[idx] = "dev"
            else:
                tags[idx] = "test"
        for (sr, text), tag in zip(chosen, tags):
            examples.append(Example(sr, text, tag))
    return Corpus(examples, ontology), ontology
