"""Teacher-forced training, domain-adaptation fine-tuning and the
mode x fraction x seed experiment matrix.

The plain objective is the summed negative log-likelihood of the reference
tokens.  In attention mode, every step whose target is the placeholder also
contributes the negative log probability of the true domain, act and slot
under the three attention distributions.  Trees differ per example, so
batching accumulates gradients over per-example tapes.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .decoder import (
    AttentionDists,
    PLACEHOLDER,
    attend,
    initial_state,
    make_feedback_input,
    step,
)
from .engine import Adam, Node, ParamBinding, Tape, clip_gradients
from .errors import ConfigError, ContractError, DomainError
from .generation import DEFAULT_BEAM_SIZE, DEFAULT_MAX_LENGTH, greedy_decode
from .metrics import bleu, corpus_ser, ser
from .model import (
    MODES,
    Checkpoint,
    Model,
    PreparedExample,
    STREAM_DROPOUT,
    STREAM_EXTEND,
    STREAM_INIT,
    STREAM_SAMPLE,
    STREAM_SHUFFLE,
    Vocabulary,
    prepare_example,
    rng_stream,
)
from .semantics import Corpus, Example, Ontology, SemanticRepresentation, SrEntry, delexicalize

# Accepted JSON value types per TrainConfig field annotation.
_JSON_TYPES = {"int": int, "float": (int, float), "float | None": (int, float, type(None)),
               "str": str}


@dataclass
class TrainConfig:
    """Hyperparameters; the shipped defaults are the reference operating point."""

    hidden: int = 100
    layers: int = 1
    dropout: float = 0.25
    lr_scratch: float = 0.0025
    lr_adapt: float = 0.001
    batch_size: int = 16
    max_epochs: int = 500
    patience: int = 20
    seed: int = 0
    mode: str = "tree+att"
    beam_size: int = DEFAULT_BEAM_SIZE
    max_length: int = DEFAULT_MAX_LENGTH
    clip_norm: float | None = 5.0
    init_scale: float = 0.1

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.layers != 1:
            raise ConfigError("only 1 hidden layer is supported")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("hidden", "batch_size", "max_epochs", "patience",
                     "beam_size", "max_length"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        for name in ("lr_scratch", "lr_adapt", "init_scale"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ConfigError(f"{name} must be positive")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be positive (null turns clipping off), "
                              f"got {self.clip_norm}")

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(raw: dict) -> "TrainConfig":
        """The one place a JSON object becomes a validated config."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        annotations = {f.name: f.type for f in fields(TrainConfig)}
        for key, value in raw.items():
            if key not in annotations:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[annotations[key]]):
                raise ConfigError(f"config key {key!r} must be {annotations[key]}, got {value!r}")
        config = TrainConfig(**raw)
        config.validate()
        return config


def nll_loss(tape: Tape, dists: list[Node], targets: list[int]) -> Node:
    """Summed negative log-likelihood of the target ids, one distribution per
    token, as one fused op."""
    if len(dists) != len(targets):
        raise ContractError(f"{len(dists)} distributions for {len(targets)} targets")
    if not dists:
        raise ContractError("empty sentence")
    p = _picked(dists, targets)
    logs = np.log(p)
    # Left to right, not np.sum's pairwise order, so the logged loss keeps
    # its digits.
    total = logs[0]
    for term in logs[1:]:
        total = total + term
    return tape.op(-total, tuple(dists),
                   lambda g: _pick_adjoints(dists, targets, p, -g))


def att_loss(tape: Tape, nll: Node,
             supervised_steps: list[tuple[AttentionDists, tuple[int, int, int]]]) -> Node:
    """Plain objective plus the placeholder-step label penalties: the negative
    log probability of the true domain, act and slot under each distribution,
    as one fused op (``nll`` itself when no step is supervised)."""
    dists = [d for a, _ in supervised_steps for d in (a.domain, a.act, a.slot)]
    if not dists:
        return nll
    indices = [idx for _, triple in supervised_steps for idx in triple]
    p = _picked(dists, indices)
    total = nll.value
    for term in -np.log(p):
        total = total + term
    return tape.op(total, (nll, *dists),
                   lambda g: (g,) + _pick_adjoints(dists, indices, p, -g))


def _picked(dists: list[Node], indices: list[int]) -> np.ndarray:
    """The probability each distribution gives its index."""
    for dist, idx in zip(dists, indices):
        if not 0 <= idx < dist.value.size:
            raise ContractError(f"index {idx} out of range for a distribution "
                                f"of size {dist.value.size}")
    p = np.array([dist.value[idx] for dist, idx in zip(dists, indices)])
    if np.any(p <= 0.0):
        raise DomainError("log of non-positive probability")
    return p


def _pick_adjoints(dists: list[Node], indices: list[int], p: np.ndarray,
                   scale) -> tuple[np.ndarray, ...]:
    """Adjoint of ``scale * log(p)`` per distribution: ``scale / p`` at its
    index, zero elsewhere."""
    out = []
    for dist, idx, p_k in zip(dists, indices, p):
        d = np.zeros_like(dist.value)
        d[idx] = scale / p_k
        out.append(d)
    return tuple(out)


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
    encoded = model.encode_sr(prep.example.sr, binding)
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

    nll = nll_loss(tape, dists, targets)
    loss = att_loss(tape, nll, supervised) if model.uses_attention else nll
    return SentenceForward(tape, loss, nll, len(targets))


def score_hypotheses(examples: list[Example], hyps: list[str]) -> dict:
    """Corpus SER and BLEU of one delexicalized hypothesis per example
    against the delexicalized references."""
    refs = [delexicalize(ex.sr, ex.text).text for ex in examples]
    counts = [ser(ex.sr, hyp) for ex, hyp in zip(examples, hyps)]
    return {"ser": corpus_ser(counts).rate, "bleu": bleu(hyps, refs).score}


def evaluate_examples(model: Model, examples: list[Example],
                      max_length: int = DEFAULT_MAX_LENGTH) -> dict:
    """Greedy decode, then score against the delexicalized references."""
    hyps = [greedy_decode(model, ex.sr, max_length=max_length).top.delex_text
            for ex in examples]
    return score_hypotheses(examples, hyps)


@dataclass
class TrainOutcome:
    checkpoint: Checkpoint
    log: list[dict] = field(default_factory=list)
    attention_skipped: int = 0

    def write_log(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for entry in self.log:
                fh.write(json.dumps(entry) + "\n")


def _fit(model: Model, train_prep: list[PreparedExample], dev_examples: list[Example],
         config: TrainConfig, lr: float, seed: int,
         log_fn: Callable[[str], None] | None = None) -> TrainOutcome:
    """Shared optimisation loop for scratch training and fine-tuning."""
    optimizer = Adam(lr)
    dropout_rng = rng_stream(seed, STREAM_DROPOUT)
    shuffle_rng = rng_stream(seed, STREAM_SHUFFLE)

    best_key: tuple | None = None
    best_params: dict[str, np.ndarray] | None = None
    best_epoch = 0
    best_metrics: dict = {}
    stale = 0
    logs: list[dict] = []

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_prep))
        loss_total = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [train_prep[i] for i in order[start:start + config.batch_size]]
            grads = {name: np.zeros_like(value) for name, value in model.params.items()}
            for prep in batch:
                fwd = teacher_forced(model, prep, config, training=True, rng=dropout_rng)
                fwd.tape.backward(fwd.loss)
                fwd.tape.param_grads(model.params, out=grads)
                loss_total += float(fwd.loss.value)
            for name in grads:
                grads[name] /= len(batch)
            if config.clip_norm is not None:
                clip_gradients(grads, config.clip_norm)
            optimizer.step(model.params, grads)

        dev = evaluate_examples(model, dev_examples, max_length=config.max_length)
        entry = {"epoch": epoch, "train_loss": loss_total / len(train_prep),
                 "dev_ser": dev["ser"], "dev_bleu": dev["bleu"]}
        logs.append(entry)
        if log_fn:
            log_fn(f"epoch {epoch}: loss {entry['train_loss']:.4f} "
                   f"dev_ser {dev['ser']:.4f} dev_bleu {dev['bleu']:.4f}")

        key = (dev["ser"], -dev["bleu"])
        if best_key is None or key < best_key:
            best_key = key
            best_params = {name: value.copy() for name, value in model.params.items()}
            best_epoch = epoch
            best_metrics = dev
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    if best_params is not None:
        model.params = best_params
    checkpoint = Checkpoint(model, config.to_json(), best_epoch, best_metrics)
    return TrainOutcome(checkpoint, logs)


def train(corpus: Corpus, config: TrainConfig, ontology: Ontology,
          log_fn: Callable[[str], None] | None = None) -> TrainOutcome:
    """Train from scratch at the scratch learning rate, keeping the best
    dev-SER checkpoint (ties to higher BLEU, then the earlier epoch)."""
    config.validate()
    train_examples = corpus.split("train")
    dev_examples = corpus.split("dev")
    if not train_examples or not dev_examples:
        raise ConfigError("training needs non-empty train and dev splits")

    train_prep = [prepare_example(e, config.mode, ontology) for e in train_examples]
    skipped = sum(1 for p in train_prep if not p.attention_usable)
    vocab = Vocabulary.build([p.tokens for p in train_prep],
                             placeholder_only=config.mode == "tree+att")
    model = Model.create(config.mode, ontology, vocab, config.hidden,
                         rng_stream(config.seed, STREAM_INIT), config.init_scale)
    outcome = _fit(model, train_prep, dev_examples, config, config.lr_scratch,
                   config.seed, log_fn)
    outcome.attention_skipped = skipped
    return outcome


def sample_adaptation(examples: list[Example], fraction: float,
                      seed: int) -> list[Example]:
    """Seeded sample of ceil(fraction * n) single-domain examples, without
    replacement."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    usable = [e for e in examples if not e.is_multi_domain]
    count = math.ceil(fraction * len(usable))
    if count == 0:
        raise ConfigError(f"fraction {fraction} selects no examples")
    rng = rng_stream(seed, STREAM_SAMPLE)
    order = rng.permutation(len(usable))
    return [usable[i] for i in order[:count]]


def adapt(checkpoint: Checkpoint, target_corpus: Corpus, fraction: float,
          config: TrainConfig, seed: int,
          log_fn: Callable[[str], None] | None = None) -> TrainOutcome:
    """Fine-tune every parameter on a seeded fraction of the target train
    split at the adaptation learning rate, early-stopping on target dev.

    ``checkpoint.model`` is fine-tuned in place; pass a
    :func:`clone_checkpoint` copy to keep the source model."""
    config.validate()
    model = checkpoint.model
    ontology = model.ontology
    sampled = sample_adaptation(target_corpus.split("train"), fraction, seed)
    dev_examples = [e for e in target_corpus.split("dev") if not e.is_multi_domain]
    if not dev_examples:
        raise ConfigError("adaptation needs a non-empty target dev split")

    train_prep = [prepare_example(e, model.mode, ontology) for e in sampled]
    skipped = sum(1 for p in train_prep if not p.attention_usable)
    new_words = sorted({tok for p in train_prep for tok in p.tokens})
    model.extend_vocab(new_words, rng_stream(seed, STREAM_EXTEND), config.init_scale)

    outcome = _fit(model, train_prep, dev_examples, config, config.lr_adapt,
                   seed, log_fn)
    outcome.attention_skipped = skipped
    return outcome


def gradcheck_setup(hidden: int = 8, seed: int = 0,
                    mode: str = "tree+att") -> tuple[Model, PreparedExample, TrainConfig]:
    """A deliberately tiny model plus one sentence, small enough that central
    finite differences over every parameter stay fast."""
    ontology = Ontology({
        "cafe": {"inform": {"area": "informable", "price": "informable"},
                 "request": {"price": "requestable"}},
        "inn": {"inform": {"area": "informable"}},
    })
    sr = SemanticRepresentation([SrEntry("cafe", "inform", "area", "west"),
                                 SrEntry("cafe", "inform", "price", "cheap"),
                                 SrEntry("cafe", "request", "price", "?")], ontology)
    example = Example(sr, "a cheap place in the west ?", "train")
    config = TrainConfig(hidden=hidden, dropout=0.0, seed=seed, mode=mode,
                         max_length=20)
    prep = prepare_example(example, mode, ontology)
    vocab = Vocabulary.build([prep.tokens], placeholder_only=mode == "tree+att")
    model = Model.create(mode, ontology, vocab, hidden,
                         rng_stream(seed, STREAM_INIT))
    return model, prep, config


def gradient_check_report(hidden: int = 8, seed: int = 0, h: float = 1e-5,
                          tolerance: float = 1e-4) -> dict:
    """Check analytic gradients of both objectives against central finite
    differences over every parameter tensor."""
    from .engine import grad_check

    model, prep, config = gradcheck_setup(hidden, seed)
    report: dict = {"h": h, "tolerance": tolerance, "objectives": {}}
    passed = True
    for objective in ("plain", "attention"):
        def loss_fn(which=objective):
            fwd = teacher_forced(model, prep, config, training=False)
            return fwd.tape, (fwd.nll if which == "plain" else fwd.loss)

        def value_fn(which=objective):
            fwd = teacher_forced(model, prep, config, training=False, recording=False)
            return float((fwd.nll if which == "plain" else fwd.loss).value)

        result = grad_check(loss_fn, model.params, h=h, value_fn=value_fn)
        report["objectives"][objective] = {
            "max_rel_err": result.max_rel_err,
            "failing": result.failing(tolerance),
            "per_param": {k: float(v) for k, v in sorted(result.per_param.items())},
        }
        passed = passed and result.passed(tolerance)
    report["passed"] = passed
    return report


def results_to_csv(rows: list[dict], aggregates: list[dict]) -> str:
    header = "mode,source,target,fraction,seed,ser,bleu"
    lines = [header]
    for row in rows:
        lines.append(",".join([row["mode"], row["source"], row["target"],
                               repr(float(row["fraction"])), str(row["seed"]),
                               repr(float(row["ser"])), repr(float(row["bleu"]))]))
    for agg in aggregates:
        for stat in ("mean", "sd"):
            lines.append(",".join([agg["mode"], agg["source"], agg["target"],
                                   repr(float(agg["fraction"])), stat,
                                   repr(float(agg[f"ser_{stat}"])),
                                   repr(float(agg[f"bleu_{stat}"]))]))
    return "\n".join(lines) + "\n"


def parse_results_csv(text: str) -> tuple[list[dict], list[dict]]:
    rows, aggregates = [], []
    lines = text.strip().splitlines()
    for line in lines[1:]:
        mode, source, target, fraction, seed, ser_v, bleu_v = line.split(",")
        record = {"mode": mode, "source": source, "target": target,
                  "fraction": float(fraction), "ser": float(ser_v),
                  "bleu": float(bleu_v)}
        if seed in ("mean", "sd"):
            record["stat"] = seed
            aggregates.append(record)
        else:
            record["seed"] = int(seed)
            rows.append(record)
    return rows, aggregates


def _matrix_task(args: tuple) -> list[dict]:
    """One (mode, seed) line of the matrix: train on source once, then adapt
    at every fraction.  Runs in a worker process."""
    (mode, seed, fractions, config_json, source_corpus, target_corpus, ontology,
     source, target, cell_indices) = args
    config = TrainConfig.from_json(config_json)
    config.mode = mode
    config.seed = seed
    source_outcome = train(source_corpus, config, ontology)

    rows = []
    test_examples = [e for e in target_corpus.split("test") if not e.is_multi_domain]
    for fraction, cell_index in zip(fractions, cell_indices):
        base = clone_checkpoint(source_outcome.checkpoint)
        sample_seed = seed ^ cell_index
        adapted = adapt(base, target_corpus, fraction, config, sample_seed)
        metrics = evaluate_examples(adapted.checkpoint.model, test_examples,
                                    max_length=config.max_length)
        rows.append({"mode": mode, "source": source, "target": target,
                     "fraction": fraction, "seed": seed,
                     "ser": metrics["ser"], "bleu": metrics["bleu"]})
    return rows


def clone_checkpoint(checkpoint: Checkpoint) -> Checkpoint:
    """Deep copy of a checkpoint so one source model serves several cells."""
    model = checkpoint.model
    clone = Model(model.mode, model.hidden, model.ontology,
                  Vocabulary(list(model.vocab.tokens)),
                  {name: value.copy() for name, value in model.params.items()})
    return Checkpoint(clone, dict(checkpoint.config), checkpoint.epoch,
                      dict(checkpoint.dev_metrics))


def run_matrix(corpus: Corpus, ontology: Ontology, source: str, target: str,
               fractions: list[float], seeds: list[int], modes: list[str],
               config: TrainConfig,
               cell_fn: Callable[[str, float, int], dict] | None = None,
               workers: int = 1,
               log_fn: Callable[[str], None] | None = None) -> tuple[list[dict], list[dict]]:
    """Adapt source -> target for every mode x fraction x seed cell and
    aggregate mean/sd per (mode, fraction).

    ``cell_fn`` replaces the train-adapt-evaluate pipeline when provided
    (used to test the bookkeeping without paying for training)."""
    if not fractions or not seeds or not modes:
        raise ConfigError("fractions, seeds and modes must be non-empty")

    rows: list[dict] = []
    if cell_fn is not None:
        for mode in modes:
            for fraction in fractions:
                for seed in seeds:
                    row = {"mode": mode, "source": source, "target": target,
                           "fraction": fraction, "seed": seed}
                    row.update(cell_fn(mode, fraction, seed))
                    rows.append(row)
    else:
        source_corpus = corpus.filter_domain(source)
        target_corpus = corpus.filter_domain(target)
        tasks = []
        for i, mode in enumerate(modes):
            for seed in seeds:
                cell_indices = [i * len(fractions) + j for j in range(len(fractions))]
                tasks.append((mode, seed, list(fractions), config.to_json(),
                              source_corpus, target_corpus, ontology, source,
                              target, cell_indices))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for task_rows in pool.map(_matrix_task, tasks):
                    rows.extend(task_rows)
        else:
            for task in tasks:
                rows.extend(_matrix_task(task))
                if log_fn:
                    log_fn(f"finished {task[0]} seed {task[1]}")

    rows.sort(key=lambda r: (r["mode"], r["fraction"], r["seed"]))
    from .metrics import aggregate

    aggregates = aggregate(rows)
    for agg in aggregates:
        agg["source"] = source
        agg["target"] = target
    return rows, aggregates
