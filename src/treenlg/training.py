"""Teacher-forced training, domain-adaptation fine-tuning and the
mode x fraction x seed experiment matrix.

The plain objective is the summed negative log-likelihood of the reference
tokens.  In attention mode, every step whose target is the placeholder also
contributes the negative log probability of the true domain, act and slot
under the three attention distributions.  A minibatch runs on one tape:
its trees are encoded one level at a time, its sentences advance together
through the decoder one time step at a time, and one backward pass gives
the gradient of the summed loss.  One sentence is a batch of one.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .decoder import PLACEHOLDER, DecoderState, attend, make_feedback_input, step
from .engine import Adam, Node, ParamBinding, Tape, clip_gradients, dropout_mask, global_norm
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
from .tree import ATTENDED, EncodedTree, LabelStates

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
        if not math.isfinite(2.0 * self.init_scale):  # the width of the uniform draw
            raise ConfigError(f"init_scale is too large: {self.init_scale}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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


@dataclass
class Forward:
    """The training graph of a minibatch (or one sentence): ``loss`` and
    ``nll`` are sums over its sentences, ``n_tokens`` counts their target
    tokens, end tokens included."""

    tape: Tape
    loss: Node
    nll: Node
    n_tokens: int


def teacher_forced(model: Model, prep: PreparedExample, config: TrainConfig,
                   training: bool, rng: np.random.Generator | None = None,
                   recording: bool = True) -> Forward:
    """The training graph of one sentence: a batch of one."""
    return teacher_forced_batch(model, [prep], config, training, rng, recording)


def teacher_forced_batch(model: Model, preps: list[PreparedExample], config: TrainConfig,
                         training: bool, rng: np.random.Generator | None = None,
                         recording: bool = True) -> Forward:
    """Build the training graph of a minibatch on one tape: the encoder's
    ops, then the whole decoder and both objectives as one op
    (``_decoder_op``) whose value is [NLL, attention term].  ``Forward.nll``
    is a view of the first entry and ``Forward.loss`` of their sum.

    The sentences run time-major, longest first (ties keep batch order), so
    the ones still running at step t are the first rows and each step
    advances only them.  Row k's attention queries its own tree, and its
    distributions feed its next input.  Dropout masks are drawn per
    sentence, in batch order, as one ``rng.random((T, 2, H))`` block of T
    target steps: [t, 0] masks the word embedding and [t, 1] the step
    output, the order in which a one-sentence pass draws them step by step."""
    if not preps:
        raise ContractError("empty minibatch")
    tape = Tape(recording=recording)
    binding = ParamBinding(tape, model.params)
    vocab, ontology, hidden = model.vocab, model.ontology, model.hidden
    rate = config.dropout if training else 0.0
    targets = [vocab.encode(p.tokens) + [vocab.eos_id] for p in preps]
    masks = [dropout_mask((len(t), 2, hidden), rate, training, rng) for t in targets]
    order = sorted(range(len(preps)), key=lambda b: -len(targets[b]))
    preps = [preps[b] for b in order]
    lengths = np.array([len(targets[b]) for b in order])
    steps = int(lengths[0])
    # Row k of each [B, steps, ...] array is sentence order[k], zero-padded.
    target_ids = np.zeros((len(preps), steps), dtype=np.intp)
    dropout = None if masks[0] is None else np.zeros((len(preps), steps, 2, hidden))
    placeholder = np.zeros((len(preps), steps), dtype=bool)
    labels = np.full((len(preps), steps, 3), -1, dtype=np.intp)
    for k, b in enumerate(order):
        target_ids[k, :lengths[k]] = targets[b]
        if dropout is not None:
            dropout[k, :lengths[k]] = masks[b]
        prep = preps[k]
        if model.uses_attention:
            placeholder[k, :len(prep.tokens)] = [tok == PLACEHOLDER for tok in prep.tokens]
            if prep.attention_usable:
                for t, (domain, act, slot) in prep.labels.items():
                    labels[k, t] = (ontology.domain_index(domain), ontology.act_index(act),
                                    ontology.slot_index(slot))
    input_ids = np.concatenate([np.full((len(preps), 1), vocab.sos_id), target_ids[:, :-1]],
                               axis=1)
    # Every target token's (step, row), time-major.
    at, row = np.nonzero(np.arange(steps)[:, None] < lengths)
    tokens = _Tokens(np.concatenate([[0], np.cumsum(np.bincount(at))]), input_ids[row, at], target_ids[row, at],
                     None if dropout is None else dropout[row, at],
                     placeholder[row, at], labels[row, at])

    encoded = model.encode_batch([p.example.sr for p in preps], binding)
    layers = [encoded.labels[layer] for layer in ATTENDED] if model.uses_attention else []
    value, vjp = _decoder_op(model, encoded, layers, tokens)
    parents = [binding[name] for name in ("dec.emb", "dec.x", "dec.h", "dec.s", "dec.b",
                                          "dec.out.w")]
    total = tape.op(value, (*parents, encoded.embedding, *(s.matrix for s in layers)), vjp)
    nll = tape.op(value[0], (total,), lambda g: (g * np.array([1.0, 0.0]),))
    loss = tape.op(value[0] + value[1], (total,), lambda g: (g * np.ones(2),))
    return Forward(tape, loss, nll, int(lengths.sum()))


@dataclass
class _Tokens:
    """A minibatch's target tokens, time-major, one entry per token: its
    input and target ids, its two dropout masks ([N, 2, H], or None),
    whether its target is a placeholder, and the (domain, act, slot) label
    indices of a supervised placeholder (-1 otherwise).  Step t's entries
    are ``offsets[t]:offsets[t + 1]``, in batch-row order."""

    offsets: np.ndarray
    inputs: np.ndarray
    targets: np.ndarray
    dropout: np.ndarray | None
    placeholder: np.ndarray
    labels: np.ndarray


def _decoder_op(model: Model, encoded: EncodedTree, layers: list[LabelStates],
                tokens: _Tokens) -> tuple[np.ndarray, Callable]:
    """The teacher-forced decoder of a minibatch and both objectives: the
    value [summed NLL of the targets, summed -log probability of the
    supervised placeholders' true domain, act and slot] and its adjoint.

    The forward pass runs the forward-only kernels, as the search does, on
    a non-recording tape.  The adjoint back-propagates through time:
    softmax with cross-entropy gives p - onehot for the output layer and
    for each supervised attention layer; the feedback block carries step
    t+1's input adjoint back into step t's attention distributions, and
    through them into the semantic state.  Each weight's gradient is one
    Δᵀ·X product over the stacked steps (Appleyard et al. 2016)."""
    fwd = ParamBinding(Tape(recording=False), model.params)
    view = EncodedTree(fwd.tape.leaf(encoded.embedding.value),
                       {layer: replace(states, matrix=fwd.tape.leaf(states.matrix.value))
                        for layer, states in zip(ATTENDED, layers)}, fwd.tape)
    H, feedback_size = model.hidden, model.ontology.feedback_size
    words, out_masks = ((None, None) if tokens.dropout is None
                        else (tokens.dropout[:, 0], tokens.dropout[:, 1]))
    s = encoded.embedding.value
    h = c = np.zeros(s.shape)
    cache, probs, att_picks = [], [], []
    pending = pending_rows = None
    for t in range(len(tokens.offsets) - 1):
        lo, hi = tokens.offsets[t], tokens.offsets[t + 1]
        h, c, s = h[:hi - lo], c[:hi - lo], s[:hi - lo]
        x = make_feedback_input(tokens.inputs[lo:hi], pending, fwd, feedback_size,
                                mask=None if words is None else words[lo:hi], rows=pending_rows)
        state, p = step(fwd, x, DecoderState(*map(fwd.tape.leaf, (h, c, s))),
                        mask=None if out_masks is None else out_masks[lo:hi])
        probs.append(p.value)
        att = pending = pending_rows = None
        rows = np.nonzero(tokens.placeholder[lo:hi])[0]
        if len(rows):
            s_rows = state.s.value[rows]
            pending, pending_rows = attend(fwd.tape.leaf(s_rows), view, model.ontology,
                                           trees=rows), rows
            dists = [pending.domain.value, pending.act.value, pending.slot.value]
            labels = tokens.labels[lo:hi][rows]
            sup = np.nonzero(labels[:, 0] >= 0)[0]
            att_picks += [dist[sup, labels[sup, j]] for j, dist in enumerate(dists)]
            att = (rows, dists, labels, sup, s_rows)
        cache.append((x.value, h, c, s, state.h.value, state.acts, att))
        h, c, s = state.h.value, state.c.value, state.s.value
    probs = np.concatenate(probs)
    n = np.arange(len(probs))
    nll = _neg_log(probs[n, tokens.targets])
    att = _neg_log(np.concatenate(att_picks)) if att_picks else 0.0
    params = fwd.params

    def vjp(grad: np.ndarray):
        g_nll, g_att = grad
        wx, wh, ws, w_out = (params[k] for k in ("dec.x", "dec.h", "dec.s", "dec.out.w"))
        d_logits = g_nll * probs
        d_logits[n, tokens.targets] -= g_nll
        h_out = np.concatenate([step_cache[4] for step_cache in cache])
        d_out = d_logits @ w_out
        if out_masks is not None:
            h_out, d_out = h_out * out_masks, d_out * out_masks
        d_z = np.empty((len(n), 7 * H))
        # Step 0 runs every sentence of the batch.
        carry_h, carry_c, carry_s = (np.zeros((tokens.offsets[1], H)) for _ in range(3))
        d_scores: list[list[np.ndarray]] = [[] for _ in layers]
        attended = []
        d_feedback = None
        for t in reversed(range(len(cache))):
            lo, hi = tokens.offsets[t], tokens.offsets[t + 1]
            live = hi - lo
            _, _, c_prev, s_prev, _, (i, f, o, g, r, w, d, tc, ts), att_t = cache[t]
            dh = carry_h[:live] + d_out[lo:hi]
            dc = carry_c[:live] + dh * o * (1.0 - tc * tc)
            ds = carry_s[:live] + dh * (1.0 - o) * (1.0 - ts * ts)
            if att_t is not None:
                rows, dists, labels, sup, s_rows = att_t
                attended.append(s_rows)
                blocks = np.split(d_feedback, np.cumsum([len(d[0]) for d in dists[:-1]]), axis=1)
                for j, (dist, grad_dist, states) in enumerate(zip(dists, blocks, layers)):
                    d_canon = dist * (grad_dist - np.sum(grad_dist * dist, axis=1, keepdims=True))
                    d_canon[sup] += g_att * dist[sup]
                    d_canon[sup, labels[sup, j]] -= g_att
                    d_sc = np.where(states.owner == rows[:, None], d_canon[:, states.index], 0.0)
                    ds[rows] += d_sc @ states.matrix.value
                    d_scores[j].append(d_sc)
            dz = d_z[lo:hi]
            dz[:, :H] = dc * g * i * (1.0 - i)
            dz[:, H:2 * H] = dc * c_prev * f * (1.0 - f)
            dz[:, 2 * H:3 * H] = dh * (tc - ts) * o * (1.0 - o)
            dz[:, 3 * H:4 * H] = dc * i * (1.0 - g * g)
            dz[:, 4 * H:5 * H] = ds * s_prev * r * (1.0 - r)
            dz[:, 5 * H:6 * H] = ds * d * w * (1.0 - w)
            dz[:, 6 * H:] = ds * w * (1.0 - d * d)
            carry_h[:live] = dz @ wh
            carry_c[:live] = dc * f
            carry_s[:live] = ds * r + dz[:, 4 * H:] @ ws
            prev_att = cache[t - 1][-1] if t else None
            d_feedback = None if prev_att is None else dz[prev_att[0]] @ wx[:, H:]
        x_all, h_all, s_all = (np.concatenate([step_cache[k] for step_cache in cache])
                               for k in (0, 1, 3))
        d_word = d_z @ wx[:, :H]
        if words is not None:
            d_word *= words
        d_emb = np.zeros_like(params["dec.emb"])
        np.add.at(d_emb, tokens.inputs, d_word)
        grads = [d_emb, d_z.T @ x_all, d_z.T @ h_all, d_z[:, 4 * H:].T @ s_all,
                 d_z.sum(axis=0), d_logits.T @ h_out, carry_s]
        if attended:
            attended = np.concatenate(attended)
            grads += [np.concatenate(d_sc).T @ attended for d_sc in d_scores]
        else:
            grads += [None] * len(layers)
        return tuple(grads)

    return np.array([nll, att]), vjp


def _neg_log(p: np.ndarray) -> float:
    if np.any(p <= 0.0):
        raise DomainError("log of non-positive probability")
    return -np.sum(np.log(p))


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


def _batch_gradients(model: Model, batch: list[PreparedExample], config: TrainConfig,
                     rng: np.random.Generator) -> tuple[dict[str, np.ndarray], float, int]:
    """Gradients of a minibatch's summed loss, the loss and its token count.
    The batch's tape is freed on return, before the next one is built."""
    fwd = teacher_forced_batch(model, batch, config, training=True, rng=rng)
    fwd.tape.backward(fwd.loss)
    return fwd.tape.param_grads(model.params), float(fwd.loss.value), fwd.n_tokens


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

    skipped = sum(1 for p in train_prep if not p.attention_usable)
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_prep))
        loss_total = 0.0
        tokens = 0
        norms: list[float] = []
        for start in range(0, len(order), config.batch_size):
            batch = [train_prep[i] for i in order[start:start + config.batch_size]]
            grads, loss, n_tokens = _batch_gradients(model, batch, config, dropout_rng)
            loss_total += loss
            tokens += n_tokens
            for g in grads.values():
                g /= len(batch)
            norms.append(clip_gradients(grads, config.clip_norm)
                         if config.clip_norm is not None else global_norm(grads))
            optimizer.step(model.params, grads)

        dev = evaluate_examples(model, dev_examples, max_length=config.max_length)
        entry = {"epoch": epoch, "train_loss": loss_total / len(train_prep),
                 "dev_ser": dev["ser"], "dev_bleu": dev["bleu"],
                 "grad_norm_preclip_mean": sum(norms) / len(norms),
                 "grad_norm_preclip_max": max(norms),
                 "clipped_steps": sum(1 for n in norms
                                      if config.clip_norm is not None and n > config.clip_norm),
                 "train_tokens": tokens, "attention_skipped": skipped}
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
    return TrainOutcome(checkpoint, logs, skipped)


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
    vocab = Vocabulary.build([p.tokens for p in train_prep],
                             placeholder_only=config.mode == "tree+att")
    model = Model.create(config.mode, ontology, vocab, config.hidden,
                         rng_stream(config.seed, STREAM_INIT), config.init_scale)
    return _fit(model, train_prep, dev_examples, config, config.lr_scratch,
                config.seed, log_fn)


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
    new_words = sorted({tok for p in train_prep for tok in p.tokens})
    model.extend_vocab(new_words, rng_stream(seed, STREAM_EXTEND), config.init_scale)

    return _fit(model, train_prep, dev_examples, config, config.lr_adapt, seed, log_fn)


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
    config.validate()
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

    if not (0.0 < h < math.inf and 0.0 < tolerance < math.inf):  # also rejects NaN
        raise ConfigError(f"step and tolerance must be positive and finite, "
                          f"got {h} and {tolerance}")
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


def cell_seed(seed: int, fraction_index: int) -> int:
    """The adaptation seed of one sweep cell (its sample, new vocabulary
    rows, dropout and shuffling), derived from the sweep seed and the
    fraction's position alone: every mode of a (seed, fraction) cell adapts
    on the same sample, so the mode comparison is paired, and distinct
    pairs get unrelated seeds."""
    return int(np.random.SeedSequence([seed, fraction_index]).generate_state(1, np.uint64)[0])


def _matrix_task(args: tuple) -> list[dict]:
    """One (mode, seed) line of the matrix: train on source once, then adapt
    at every fraction.  Runs in a worker process."""
    (mode, seed, fractions, config_json, source_corpus, target_corpus, ontology,
     source, target) = args
    config = TrainConfig.from_json(config_json)
    config.mode = mode
    config.seed = seed
    source_outcome = train(source_corpus, config, ontology)

    rows = []
    test_examples = [e for e in target_corpus.split("test") if not e.is_multi_domain]
    for j, fraction in enumerate(fractions):
        base = clone_checkpoint(source_outcome.checkpoint)
        adapted = adapt(base, target_corpus, fraction, config, cell_seed(seed, j))
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


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def worker_pool(workers: int) -> Iterator[ProcessPoolExecutor]:
    """A pool of ``workers`` fresh interpreters ("spawn"), each with one BLAS
    thread.  The products here are at most a few hundred rows, where one
    thread is as fast as several, and more BLAS threads than cores across the
    workers slow them all down.  A BLAS library reads its thread count when
    numpy is imported, so the variables are set in this process's environment,
    which the workers inherit, for as long as the pool can start one."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


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
    if not set(modes) <= set(MODES):
        raise ConfigError(f"modes must be among {MODES}, got {modes}")
    if not all(0.0 < f <= 1.0 for f in fractions):  # also rejects NaN
        raise ConfigError(f"fractions must be in (0, 1], got {fractions}")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be non-negative, got {seeds}")
    if workers < 1:
        raise ConfigError(f"workers must be positive, got {workers}")

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
        tasks = [(mode, seed, list(fractions), config.to_json(), source_corpus,
                  target_corpus, ontology, source, target)
                 for mode in modes for seed in seeds]
        with worker_pool(workers) if workers > 1 else nullcontext() as pool:
            # Results come back in task order, each as soon as it and those
            # before it are done.
            for task, task_rows in zip(tasks, (pool.map if pool else map)(_matrix_task, tasks)):
                rows.extend(task_rows)
                if log_fn:
                    log_fn(f"finished {task[0]} seed {task[1]}")

    rows.sort(key=lambda r: (r["mode"], r["fraction"], r["seed"]))
    from .metrics import aggregate

    aggregates = aggregate(rows)
    for agg in aggregates:
        agg["source"] = source
        agg["target"] = target
    return rows, aggregates
