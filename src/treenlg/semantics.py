"""Ontology schema, semantic representations, delexicalization and corpus I/O.

An ontology declares domains, dialogue acts per domain, slots per act and a
property per slot (requestable, informable or binary).  A semantic
representation (SR) is an ordered list of (domain, act, slot, value) entries
licensed by the ontology.  Informable values are swapped with placeholder
tokens of the form ``@domain-act-slot`` during delexicalization; the inverse
substitution is lexicalization.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import LexicalizationError, ParseError, ValidationError

REQUEST = "?"

PROPERTIES = ("requestable", "informable", "binary")

# Embedding tokens that are not ontology names.
ROOT_TOKEN = "<root>"
NO_SLOT_TOKEN = "<noslot>"
NO_SLOT_PROPERTY = "none"

_NAME_RE = re.compile(r"^[a-z0-9_]+$")


def _check_name(name: str, kind: str, where: str) -> None:
    if not isinstance(name, str) or not name:
        raise ParseError(f"{where}: empty {kind} name")
    if name != name.lower() or any(ch.isspace() for ch in name):
        raise ParseError(f"{where}: {kind} name {name!r} must be lowercase without whitespace")
    if kind in ("domain", "act") and "-" in name:
        # Hyphens are reserved as the separator inside placeholder tokens.
        raise ParseError(f"{where}: {kind} name {name!r} may not contain '-'")


class Ontology:
    """Domain/act/slot schema with one property per (domain, act, slot)."""

    def __init__(self, schema: dict[str, dict[str, dict[str, str]]]):
        self.schema = schema
        self._validate()
        self.domains: tuple[str, ...] = tuple(sorted(schema))
        self.acts: tuple[str, ...] = tuple(sorted({a for d in schema.values() for a in d}))
        self.slots: tuple[str, ...] = tuple(sorted({
            s for d in schema.values() for a in d.values() for s in a}))
        self._domain_index = {name: i for i, name in enumerate(self.domains)}
        self._act_index = {name: i for i, name in enumerate(self.acts)}
        self._slot_index = {name: i for i, name in enumerate(self.slots)}
        self.triples: tuple[tuple[str, str, str], ...] = tuple(sorted(
            (d, a, s)
            for d, acts in schema.items()
            for a, slots in acts.items()
            for s in slots))
        self._triple_index = {t: i for i, t in enumerate(self.triples)}

    def _validate(self) -> None:
        if not self.schema:
            raise ParseError("ontology declares no domains")
        for d, acts in self.schema.items():
            _check_name(d, "domain", f"domain {d!r}")
            if not isinstance(acts, dict):
                raise ParseError(f"domain {d!r}: acts must be an object")
            for a, slots in acts.items():
                _check_name(a, "act", f"domain {d!r}, act {a!r}")
                if not isinstance(slots, dict):
                    raise ParseError(f"domain {d!r}, act {a!r}: slots must be an object")
                for s, prop in slots.items():
                    _check_name(s, "slot", f"({d}, {a}, {s})")
                    if prop not in PROPERTIES:
                        raise ParseError(
                            f"({d}, {a}, {s}): unknown property {prop!r}, "
                            f"expected one of {', '.join(PROPERTIES)}")

    def has_triple(self, domain: str, act: str, slot: str) -> bool:
        return (domain, act, slot) in self._triple_index

    def property_of(self, domain: str, act: str, slot: str) -> str:
        try:
            return self.schema[domain][act][slot]
        except KeyError:
            raise ValidationError(f"({domain}, {act}, {slot}) not in ontology") from None

    def domain_index(self, name: str) -> int:
        return self._domain_index[name]

    def act_index(self, name: str) -> int:
        return self._act_index[name]

    def slot_index(self, name: str) -> int:
        return self._slot_index[name]

    def triple_index(self, triple: tuple[str, str, str]) -> int:
        return self._triple_index[triple]

    @property
    def feedback_size(self) -> int:
        """Width of the concatenated domain/act/slot distribution block."""
        return len(self.domains) + len(self.acts) + len(self.slots)

    def embedding_tokens(self) -> tuple[str, ...]:
        """All node tokens the tree encoder may embed, in canonical order."""
        names = set(self.domains) | set(self.acts) | set(self.slots)
        names |= set(PROPERTIES) | {ROOT_TOKEN, NO_SLOT_TOKEN, NO_SLOT_PROPERTY}
        return tuple(sorted(names))

    def canonical_json(self) -> str:
        return json.dumps(self.schema, sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        import hashlib

        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.schema, sort_keys=True, indent=2) + "\n")


def load_ontology(path: str | Path) -> Ontology:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ParseError(f"ontology file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object of domains")
    return Ontology(raw)


@dataclass(frozen=True)
class SrEntry:
    """One (domain, act, slot, value) item of a semantic representation.

    ``slot`` is None for an act carried without slots; ``value`` is None for
    such acts, ``"?"`` for requested slots and a string otherwise.
    """

    domain: str
    act: str
    slot: str | None
    value: str | None

    @property
    def is_bare_act(self) -> bool:
        return self.slot is None


class SemanticRepresentation:
    """Ordered SR entries validated against an ontology."""

    def __init__(self, entries: list[SrEntry], ontology: Ontology, where: str = "sr"):
        self.entries = list(entries)
        self.ontology = ontology
        seen: set[tuple] = set()
        for e in self.entries:
            full = (e.domain, e.act, e.slot, e.value)
            if full in seen:
                raise ValidationError(
                    f"{where}: duplicate entry {full}; repeated triples need distinct values")
            seen.add(full)
        for e in self.entries:
            if e.is_bare_act:
                if e.domain not in ontology.schema or e.act not in ontology.schema[e.domain]:
                    raise ValidationError(f"{where}: ({e.domain}, {e.act}) not in ontology")
                if e.value is not None:
                    raise ValidationError(f"{where}: bare act ({e.domain}, {e.act}) must carry a null value")
                continue
            if not ontology.has_triple(e.domain, e.act, e.slot):
                raise ValidationError(f"{where}: ({e.domain}, {e.act}, {e.slot}) not in ontology")
            prop = ontology.property_of(e.domain, e.act, e.slot)
            if prop == "requestable" and e.value != REQUEST:
                raise ValidationError(
                    f"{where}: requestable ({e.domain}, {e.act}, {e.slot}) must carry {REQUEST!r}")
            if prop != "requestable" and (e.value is None or e.value == REQUEST):
                raise ValidationError(
                    f"{where}: {prop} ({e.domain}, {e.act}, {e.slot}) needs a string value")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def domains(self) -> frozenset[str]:
        return frozenset(e.domain for e in self.entries)

    @property
    def is_multi_domain(self) -> bool:
        return len(self.domains) > 1

    def informable_entries(self) -> list[SrEntry]:
        return [e for e in self.entries
                if not e.is_bare_act
                and self.ontology.property_of(e.domain, e.act, e.slot) == "informable"]

    def triple_counts(self) -> dict[tuple[str, str, str], int]:
        """Occurrence count per informable (domain, act, slot) triple."""
        counts: dict[tuple[str, str, str], int] = {}
        for e in self.informable_entries():
            key = (e.domain, e.act, e.slot)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def licensed_tokens(self) -> list[tuple[str, str, str]]:
        """Placeholder triples this SR requires, one per informable entry."""
        return [(e.domain, e.act, e.slot) for e in self.informable_entries()]

    def key(self, include_values: bool = True) -> frozenset:
        """Canonical identity of the SR, for distinct counts and seen/unseen splits.

        Values participate for informable entries only; requestable and
        binary entries are keyed by their triple alone unless
        ``include_values`` selects triple-only matching everywhere.
        """
        items = []
        for e in self.entries:
            if e.is_bare_act:
                items.append((e.domain, e.act, None, None))
                continue
            prop = self.ontology.property_of(e.domain, e.act, e.slot)
            keep = include_values and prop == "informable"
            items.append((e.domain, e.act, e.slot, e.value if keep else None))
        counted: dict[tuple, int] = {}
        for item in items:
            counted[item] = counted.get(item, 0) + 1
        return frozenset(counted.items())

    def to_json(self) -> list[dict]:
        return [{"domain": e.domain, "act": e.act, "slot": e.slot, "value": e.value}
                for e in self.entries]

    @staticmethod
    def from_json(raw: list, ontology: Ontology, where: str = "sr") -> "SemanticRepresentation":
        entries = []
        for i, item in enumerate(raw):
            if not isinstance(item, dict):
                raise ParseError(f"{where}: entry {i} must be an object")
            try:
                entries.append(SrEntry(item["domain"], item["act"],
                                       item.get("slot"), item.get("value")))
            except KeyError as exc:
                raise ParseError(f"{where}: entry {i} missing field {exc}") from None
        return SemanticRepresentation(entries, ontology, where)


def token_surface(domain: str, act: str, slot: str, occurrence: int, repeated: bool) -> str:
    """Placeholder surface form; the occurrence index is appended only for
    triples that occur more than once within one SR."""
    base = f"@{domain}-{act}-{slot}"
    return f"{base}{occurrence}" if repeated or occurrence > 1 else base


def parse_token(token: str, ontology: Ontology) -> tuple[str, str, str, int] | None:
    """Parse a placeholder token into (domain, act, slot, occurrence).

    Returns None when the token does not look like a placeholder.  Unknown
    triples are still returned (occurrence 1) so the metrics can count them
    as redundant.
    """
    if not token.startswith("@") or len(token) < 2:
        return None
    parts = token[1:].split("-")
    if len(parts) < 3:
        return None
    domain, act = parts[0], parts[1]
    slot = "-".join(parts[2:])
    if ontology.has_triple(domain, act, slot):
        return domain, act, slot, 1
    m = re.match(r"^(.*?)(\d+)$", slot)
    if m and ontology.has_triple(domain, act, m.group(1)):
        return domain, act, m.group(1), int(m.group(2))
    return domain, act, slot, 1


_PUNCT_RE = re.compile(r"([,.?!])")


def tokenize(text: str) -> list[str]:
    """Lowercase, split punctuation (, . ? !) into their own tokens, then split on whitespace."""
    return _PUNCT_RE.sub(r" \1 ", text.lower()).split()


@dataclass
class DelexResult:
    text: str
    unmatched: list[SrEntry] = field(default_factory=list)


def delexicalize(sr: SemanticRepresentation, text: str) -> DelexResult:
    """Replace informable values in ``text`` with placeholder tokens.

    Matching is case-insensitive, longest-value-first, leftmost occurrence,
    on word boundaries.  Each informable entry claims at most one occurrence;
    values that never match are reported, not fatal.
    """
    counts = sr.triple_counts()
    occurrence: dict[tuple[str, str, str], int] = {}
    jobs = []
    for pos, e in enumerate(sr.informable_entries()):
        key = (e.domain, e.act, e.slot)
        occurrence[key] = occurrence.get(key, 0) + 1
        surface = token_surface(e.domain, e.act, e.slot, occurrence[key], counts[key] > 1)
        jobs.append((pos, e, surface))

    # Longest value first so "price range" wins over "price"; the stable sort
    # keeps SR order among equal lengths.
    jobs.sort(key=lambda job: -len(job[1].value))

    working = text
    placeholders: dict[str, str] = {}
    unmatched: list[tuple[int, SrEntry]] = []
    for i, (pos, entry, surface) in enumerate(jobs):
        pattern = re.compile(r"(?<!\w)" + re.escape(entry.value) + r"(?!\w)", re.IGNORECASE)
        match = pattern.search(working)
        if match is None:
            unmatched.append((pos, entry))
            continue
        sentinel = f"\x00{i}\x00"
        placeholders[sentinel] = surface
        working = working[:match.start()] + sentinel + working[match.end():]
    for sentinel, surface in placeholders.items():
        working = working.replace(sentinel, surface)
    return DelexResult(working, [e for _, e in sorted(unmatched, key=lambda u: u[0])])


def lexicalize(sr: SemanticRepresentation, text: str, strict: bool = True) -> tuple[str, list[str]]:
    """Substitute placeholder tokens with the SR's values.

    Repeated triples are consumed in occurrence order.  With ``strict`` a
    token that has no SR entry raises; otherwise it is left verbatim and
    returned in the flag list.
    """
    values: dict[tuple[str, str, str], list[str]] = {}
    for e in sr.informable_entries():
        values.setdefault((e.domain, e.act, e.slot), []).append(e.value)
    consumed: dict[tuple[str, str, str], set[int]] = {k: set() for k in values}

    out_tokens = []
    flagged = []
    for raw in text.split():
        # Trailing punctuation stays attached to the word in raw text.
        core = raw.rstrip(",.?!")
        suffix = raw[len(core):]
        parsed = parse_token(core, sr.ontology) if core else None
        if parsed is None:
            out_tokens.append(raw)
            continue
        domain, act, slot, occ = parsed
        key = (domain, act, slot)
        available = values.get(key, [])
        index = occ - 1
        if core == f"@{domain}-{act}-{slot}":
            # Unindexed token: take the next unconsumed occurrence.
            index = next((i for i in range(len(available))
                          if i not in consumed.get(key, set())), -1)
        ok = 0 <= index < len(available) and index not in consumed.get(key, set())
        if not ok:
            if strict:
                raise LexicalizationError(f"no SR entry for token {core!r}")
            flagged.append(core)
            out_tokens.append(raw)
            continue
        consumed[key].add(index)
        out_tokens.append(available[index] + suffix)
    return " ".join(out_tokens), flagged


@dataclass
class Example:
    sr: SemanticRepresentation
    text: str
    split: str

    @property
    def is_multi_domain(self) -> bool:
        return self.sr.is_multi_domain


SPLITS = ("train", "dev", "test")


class Corpus:
    """Examples with train/dev/test split tags."""

    def __init__(self, examples: list[Example], ontology: Ontology):
        self.examples = examples
        self.ontology = ontology

    def __len__(self) -> int:
        return len(self.examples)

    def split(self, name: str) -> list[Example]:
        return [e for e in self.examples if e.split == name]

    def filter_domain(self, domain: str) -> "Corpus":
        """The single-domain examples of ``domain``."""
        kept = [e for e in self.examples
                if domain in e.sr.domains and not e.is_multi_domain]
        return Corpus(kept, self.ontology)

    def distinct_sr_counts(self) -> dict[str, int]:
        """Distinct SRs per domain (multi-domain examples count under each)."""
        seen: dict[str, set] = {}
        for e in self.examples:
            for d in e.sr.domains:
                seen.setdefault(d, set()).add(e.sr.key())
        return {d: len(keys) for d, keys in sorted(seen.items())}

    def to_file(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for e in self.examples:
                fh.write(json.dumps({"sr": e.sr.to_json(), "text": e.text,
                                     "split": e.split}) + "\n")


def load_corpus(path: str | Path, ontology: Ontology) -> Corpus:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError:
        raise ParseError(f"corpus file not found: {path}") from None
    examples = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path.name}:{lineno}"
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{where}: invalid JSON: {exc.msg}") from None
        for key in ("sr", "text", "split"):
            if key not in raw:
                raise ParseError(f"{where}: missing field {key!r}")
        if raw["split"] not in SPLITS:
            raise ParseError(f"{where}: split must be one of {SPLITS}, got {raw['split']!r}")
        if not isinstance(raw["text"], str) or not raw["text"].strip():
            raise ValidationError(f"{where}: reference text must be non-empty")
        sr = SemanticRepresentation.from_json(raw["sr"], ontology, where)
        examples.append(Example(sr, raw["text"], raw["split"]))
    return Corpus(examples, ontology)
