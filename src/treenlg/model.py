"""Model assembly: vocabulary, parameter initialisation per mode, example
preparation for teacher forcing, and the checkpoint container.

Three modes share the same decoder:

* ``tree+att``   tree encoder, "@" placeholders resolved by attention;
* ``tree``       tree encoder, composite placeholder tokens in the vocabulary;
* ``flat-baseline``  binary-indicator encoder, composite tokens in the vocabulary.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import decoder as dec
from . import tree as enc
from .decoder import PLACEHOLDER
from .engine import ParamBinding, check_finite
from .errors import CompatibilityError, ConfigError, ContractError, ParseError
from .semantics import (
    Example,
    Ontology,
    SemanticRepresentation,
    delexicalize,
    parse_token,
    tokenize,
)

MODES = ("tree+att", "tree", "flat-baseline")

SOS, EOS, UNK = "<sos>", "<eos>", "<unk>"

# Named rng streams so training, dropout and sampling never share state.
STREAM_INIT, STREAM_DROPOUT, STREAM_SHUFFLE, STREAM_SAMPLE, STREAM_EXTEND = range(5)


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


class Vocabulary:
    """Token table with fixed specials; unknown words map to ``<unk>``."""

    def __init__(self, tokens: list[str]):
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ContractError("duplicate tokens in vocabulary")
        for special in (SOS, EOS, UNK):
            if special not in self.index:
                raise ContractError(f"vocabulary missing special token {special!r}")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def sos_id(self) -> int:
        return self.index[SOS]

    @property
    def eos_id(self) -> int:
        return self.index[EOS]

    def id_of(self, token: str) -> int:
        return self.index.get(token, self.index[UNK])

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.id_of(t) for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    @staticmethod
    def build(token_lists: list[list[str]], placeholder_only: bool) -> "Vocabulary":
        words = sorted({tok for toks in token_lists for tok in toks})
        if placeholder_only:
            bad = [w for w in words if w.startswith("@") and w != PLACEHOLDER]
            if bad:
                raise ContractError(f"composite tokens in placeholder vocabulary: {bad[:3]}")
            if PLACEHOLDER not in words:
                words.append(PLACEHOLDER)
                words.sort()
        return Vocabulary([SOS, EOS, UNK] + words)


@dataclass
class PreparedExample:
    """A delexicalized, tokenized training sentence.

    ``labels`` maps placeholder positions to true (domain, act, slot)
    triples.  A sentence whose reference carries a placeholder the SR does
    not license gets ``attention_usable=False`` and contributes no attention
    loss terms.
    """

    example: Example
    tokens: list[str]
    labels: dict[int, tuple[str, str, str]] = field(default_factory=dict)
    attention_usable: bool = True


def prepare_example(example: Example, mode: str, ontology: Ontology) -> PreparedExample:
    delexed = delexicalize(example.sr, example.text).text
    tokens = tokenize(delexed)
    if mode != "tree+att":
        return PreparedExample(example, tokens)
    licensed = {(e.domain, e.act, e.slot) for e in example.sr.informable_entries()}
    out_tokens: list[str] = []
    labels: dict[int, tuple[str, str, str]] = {}
    usable = True
    for tok in tokens:
        parsed = parse_token(tok, ontology) if tok.startswith("@") else None
        if parsed is None:
            out_tokens.append(tok)
            continue
        domain, act, slot, _ = parsed
        if (domain, act, slot) in licensed:
            labels[len(out_tokens)] = (domain, act, slot)
        else:
            usable = False
        out_tokens.append(PLACEHOLDER)
    return PreparedExample(example, out_tokens, labels, usable)


def param_shapes(mode: str, ontology: Ontology, vocab_size: int,
                 hidden: int) -> dict[str, tuple[int, ...]]:
    """Every parameter tensor's shape, as checkpoints must hold them: the
    encoder of the mode, then the decoder."""
    shapes = (enc.encoder_shapes(ontology, hidden) if mode in ("tree+att", "tree")
              else enc.flat_shapes(ontology, hidden))
    shapes.update(dec.decoder_shapes(vocab_size, hidden, ontology.feedback_size))
    return shapes


class Model:
    """Parameters plus the lookup tables they are shaped by.  Every tensor
    is checked finite here (``DomainError``), so tapes need not check it."""

    def __init__(self, mode: str, hidden: int, ontology: Ontology,
                 vocab: Vocabulary, params: dict[str, np.ndarray]):
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
        for name, value in params.items():
            check_finite(value, f"parameter {name!r}")
        self.mode = mode
        self.hidden = hidden
        self.ontology = ontology
        self.vocab = vocab
        self.params = params
        self.token_index = {tok: i for i, tok in enumerate(ontology.embedding_tokens())}

    @property
    def uses_tree(self) -> bool:
        return self.mode in ("tree+att", "tree")

    @property
    def uses_attention(self) -> bool:
        return self.mode == "tree+att"

    @staticmethod
    def create(mode: str, ontology: Ontology, vocab: Vocabulary, hidden: int,
               rng: np.random.Generator, scale: float = 0.1) -> "Model":
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
        init_encoder = (enc.init_encoder_params if mode in ("tree+att", "tree")
                        else enc.init_flat_params)
        params = init_encoder(ontology, hidden, rng, scale)
        params.update(dec.init_decoder_params(len(vocab), hidden, ontology.feedback_size,
                                              rng, scale))
        return Model(mode, hidden, ontology, vocab, params)

    def encode_sr(self, sr: SemanticRepresentation, binding: ParamBinding) -> enc.EncodedTree:
        if self.uses_tree:
            return enc.encode(enc.build_tree(sr, self.ontology), binding, self.token_index)
        return enc.encode_flat(sr, self.ontology, binding)

    def encode_batch(self, srs: list[SemanticRepresentation],
                     binding: ParamBinding) -> enc.EncodedTree:
        """A minibatch of SRs as one encoding, with a [B, H] embedding."""
        if self.uses_tree:
            return enc.encode_batch([enc.build_tree(sr, self.ontology) for sr in srs],
                                    binding, self.token_index)
        return enc.encode_flat_batch(srs, self.ontology, binding)

    def extend_vocab(self, new_words: list[str], rng: np.random.Generator,
                     scale: float = 0.1) -> int:
        """Grow the vocabulary (fine-tuning on a new domain brings new words);
        embedding and output rows for new tokens are freshly initialised."""
        added = sorted(set(new_words) - set(self.vocab.index))
        if not added:
            return 0
        if self.mode == "tree+att":
            bad = [w for w in added if w.startswith("@") and w != PLACEHOLDER]
            if bad:
                raise ContractError(f"composite tokens cannot enter a placeholder vocabulary: {bad[:3]}")
        self.vocab = Vocabulary(self.vocab.tokens + added)
        n = len(added)
        self.params["dec.emb"] = np.vstack(
            [self.params["dec.emb"], rng.uniform(-scale, scale, size=(n, self.hidden))])
        self.params["dec.out.w"] = np.vstack(
            [self.params["dec.out.w"], rng.uniform(-scale, scale, size=(n, self.hidden))])
        return n


_MAGIC = b"TREENLG1\n"
# Version 2 stores each gate stack as one tensor; version 1 stored one
# tensor per gate and is not read.
_VERSION = 2


def save_checkpoint(path: str | Path, model: Model, config: dict,
                    epoch: int, dev_metrics: dict) -> None:
    """Self-describing binary container; byte-identical for identical inputs."""
    names = sorted(model.params)
    header = {
        "version": _VERSION,
        "mode": model.mode,
        "hidden": model.hidden,
        "ontology": model.ontology.schema,
        "ontology_fingerprint": model.ontology.fingerprint(),
        "vocab": model.vocab.tokens,
        "config": config,
        "epoch": epoch,
        "dev_metrics": dev_metrics,
        "tensors": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    blob = b"".join(np.ascontiguousarray(model.params[n], dtype="<f8").tobytes()
                    for n in names)
    payload = _MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + blob
    tmp = Path(str(path) + ".tmp")
    tmp.write_bytes(payload)
    tmp.replace(path)


@dataclass
class Checkpoint:
    model: Model
    config: dict
    epoch: int
    dev_metrics: dict

    @property
    def ontology_fingerprint(self) -> str:
        return self.model.ontology.fingerprint()


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint, rejecting anything malformed here rather than
    downstream: a header that does not fit the mode, hidden size,
    vocabulary and ontology it names, a config that is not a valid
    ``TrainConfig``, a non-finite tensor value, or bytes past the last
    tensor all raise ``CompatibilityError``."""
    from .training import TrainConfig  # training imports this module

    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise CompatibilityError(f"checkpoint file not found: {path}") from None
    if not data.startswith(_MAGIC):
        raise CompatibilityError(f"{path}: not a checkpoint file")
    try:
        offset = len(_MAGIC)
        (header_len,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        header = json.loads(data[offset:offset + header_len])
        offset += header_len
        if header.get("version") != _VERSION:
            raise CompatibilityError(
                f"{path}: unsupported checkpoint version {header.get('version')} "
                f"(this build reads version {_VERSION} only)")
        ontology = Ontology(header["ontology"])
        if ontology.fingerprint() != header["ontology_fingerprint"]:
            raise CompatibilityError(f"{path}: ontology fingerprint mismatch")
        mode, hidden, vocab = header["mode"], header["hidden"], Vocabulary(header["vocab"])
        if mode not in MODES:
            raise CompatibilityError(f"{path}: unknown mode {mode!r}")
        if isinstance(hidden, bool) or not isinstance(hidden, int) or hidden < 1:
            raise CompatibilityError(f"{path}: hidden size must be a positive integer, "
                                     f"got {hidden!r}")
        specs = {spec["name"]: tuple(spec["shape"]) for spec in header["tensors"]}
        if len(specs) != len(header["tensors"]):
            raise CompatibilityError(f"{path}: duplicate tensor names")
        _check_tensors(path, specs, param_shapes(mode, ontology, len(vocab), hidden))
        params: dict[str, np.ndarray] = {}
        for spec in header["tensors"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset).reshape(shape)
            if not np.isfinite(arr).all():
                raise CompatibilityError(f"{path}: tensor {spec['name']!r} holds "
                                         f"non-finite values")
            params[spec["name"]] = arr.astype(np.float64)
            offset += count * 8
        if offset != len(data):
            raise CompatibilityError(f"{path}: {len(data) - offset} trailing bytes "
                                     f"after the last tensor")
        TrainConfig.from_json(header["config"])
        model = Model(mode, hidden, ontology, vocab, params)
        return Checkpoint(model, header["config"], header["epoch"], header["dev_metrics"])
    except (KeyError, ValueError, TypeError, ConfigError, ContractError, ParseError,
            struct.error, json.JSONDecodeError) as exc:
        raise CompatibilityError(f"{path}: corrupt checkpoint ({exc})") from exc


def _check_tensors(path: str | Path, got: dict[str, tuple[int, ...]],
                   expected: dict[str, tuple[int, ...]]) -> None:
    """The header's tensor list must name exactly the parameters of the
    checkpoint's mode, each in the shape its hidden size, vocabulary and
    ontology imply."""
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing or extra:
        raise CompatibilityError(f"{path}: tensors do not match the model "
                                 f"(missing {missing}, unexpected {extra})")
    for name, shape in expected.items():
        if got[name] != shape:
            raise CompatibilityError(f"{path}: tensor {name!r} has shape {list(got[name])}, "
                                     f"expected {list(shape)}")
