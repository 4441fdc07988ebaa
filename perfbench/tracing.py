"""Spans and boundary probes recorded from outside the treenlg package.

Nothing here edits the package: each probe or span replaces a module
attribute (or a class attribute, for methods) with a wrapper and puts the
original back on exit.  A function that another module imported by name,
such as ``decoder.step`` inside ``training`` and ``generation``, is wrapped
at every such name, so calls made through any of them are seen.

Two layers of wrapping:

* :class:`Probes` is always on.  It times the ``evaluate_examples`` boundary
  (its calls mark the epoch ends inside ``train`` and ``adapt``, and dev
  evaluation is left out of training throughput) and captures
  the adaptation sample and the greedy outputs of a scoring call, which the
  correctness checks need.  Each probe costs two clock reads per call on
  calls that take milliseconds.
* :class:`Tracer` is on only in a traced run.  It records a span (name,
  start, end, parent) around every public layer function, tape sizes, and
  garbage-collector pauses through ``gc.callbacks``.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass, field

from treenlg import engine, generation, model, training, tree

clock = time.perf_counter


def _patch(stack: contextlib.ExitStack, owner, attr: str, wrapper) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    stack.callback(setattr, owner, attr, original)


@dataclass
class Probes:
    """Always-on boundary measurements used by the end-to-end metrics and
    the checks."""

    evals: list = field(default_factory=list)   # (start, end) of evaluate_examples calls
    last_sample: list = field(default_factory=list)
    greedy_capture: list | None = None

    @contextlib.contextmanager
    def installed(self):
        evaluate = training.evaluate_examples
        sample = training.sample_adaptation
        greedy = training.greedy_decode

        def timed_evaluate(*args, **kwargs):
            start = clock()
            try:
                return evaluate(*args, **kwargs)
            finally:
                self.evals.append((start, clock()))

        def captured_sample(*args, **kwargs):
            self.last_sample = sample(*args, **kwargs)
            return self.last_sample

        def captured_greedy(*args, **kwargs):
            result = greedy(*args, **kwargs)
            if self.greedy_capture is not None:
                self.greedy_capture.append(result)
            return result

        with contextlib.ExitStack() as stack:
            _patch(stack, training, "evaluate_examples", timed_evaluate)
            _patch(stack, training, "sample_adaptation", captured_sample)
            _patch(stack, training, "greedy_decode", captured_greedy)
            yield self


# (owner, attribute, span name).  Names are the defining module's.
_TRACED = [
    (engine.Tape, "backward", "engine.backward"),
    (engine.Tape, "param_grads", "engine.param_grads"),
    (engine.Adam, "step", "engine.adam"),
    (training, "clip_gradients", "engine.clip"),
    (training, "teacher_forced", "training.teacher_forced"),
    (training, "evaluate_examples", "training.evaluate_examples"),
    (training, "clone_checkpoint", "training.clone_checkpoint"),
    (tree, "encode", "tree.encode"),
    (tree, "build_tree", "tree.build_tree"),
    (tree, "encode_flat", "tree.encode_flat"),
    (training, "step", "decoder.step"),
    (generation, "step", "decoder.step"),
    (training, "attend", "decoder.attend"),
    (generation, "attend", "decoder.attend"),
    (generation, "beam_decode", "generation.beam_decode"),
    (generation, "greedy_decode", "generation.greedy_decode"),
    (training, "greedy_decode", "generation.greedy_decode"),
    (generation, "lexicalize", "semantics.lexicalize"),
    (training, "delexicalize", "semantics.delexicalize"),
    (model, "delexicalize", "semantics.delexicalize"),
    (training, "ser", "metrics.ser"),
    (training, "bleu", "metrics.bleu"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (model.Model, "extend_vocab", "model.extend_vocab"),
    (model.Model, "encode_sr", "model.encode_sr"),
]


class Tracer:
    """In-memory spans plus per-name counters; see :meth:`per_layer`."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.tape_nodes: list[int] = []          # teacher-forced tapes
        self.decode_tape_nodes: list[int] = []   # beam-10 decode tapes
        self._last_tape = None
        self.evaluated_sentences = 0             # examples scored by evaluate_examples
        self.gc_pauses: list[float] = []
        self._gc_start = 0.0

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            self._observe(name, args, kwargs, result)
            return result

        return traced

    def _observe(self, name: str, args, kwargs, result) -> None:
        if name == "training.teacher_forced":
            self.tape_nodes.append(len(result.tape.nodes))
        elif name == "training.evaluate_examples":
            self.evaluated_sentences += len(args[1])
        elif name == "model.encode_sr":
            self._last_tape = args[2].tape if len(args) > 2 else kwargs["binding"].tape
        elif name == "generation.beam_decode" and kwargs.get("beam_size") == 10:
            self.decode_tape_nodes.append(len(self._last_tape.nodes))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
        else:
            self.gc_pauses.append(clock() - self._gc_start)

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for owner, attr, name in _TRACED:
                _patch(stack, owner, attr, self._wrap(name, getattr(owner, attr)))
            gc.callbacks.append(self._on_gc)
            stack.callback(gc.callbacks.remove, self._on_gc)
            yield self

    def top_level_seconds(self, since: int = 0) -> float:
        return sum(self.ends[i] - self.starts[i]
                   for i in range(since, len(self.names)) if self.parents[i] == -1)

    def per_layer(self) -> dict[str, float]:
        """Totals and ratios per layer over every span recorded so far."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child: dict[str, float] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            total[name] = total.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            parent = self.parents[i]
            if parent >= 0:
                pname = self.names[parent]
                child[pname] = child.get(pname, 0.0) + duration

        def ms(name: str) -> float:
            return 1000.0 * total.get(name, 0.0)

        def per(value: float, count: int) -> float:
            return value / count if count else 0.0

        def self_ms(name: str) -> float:
            return ms(name) - 1000.0 * child.get(name, 0.0)

        sentences_tf = calls.get("training.teacher_forced", 0)
        decoded = calls.get("generation.greedy_decode", 0) + calls.get("generation.beam_decode", 0)
        sentences = sentences_tf + decoded
        mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
        return {
            "engine.backward_ms_per_sentence": per(ms("engine.backward"), sentences_tf),
            "engine.param_grads_ms_per_sentence": per(ms("engine.param_grads"), sentences_tf),
            "engine.tape_nodes_per_sentence": mean(self.tape_nodes),
            "engine.adam_ms_per_step": per(ms("engine.adam"), calls.get("engine.adam", 0)),
            "engine.clip_ms_per_step": per(ms("engine.clip"), calls.get("engine.clip", 0)),
            "engine.decode_tape_nodes_per_sentence": mean(self.decode_tape_nodes),
            "training.teacher_forced_ms_per_sentence": per(ms("training.teacher_forced"), sentences_tf),
            "training.dev_eval_ms_per_sentence": per(ms("training.evaluate_examples"),
                                                     self.evaluated_sentences),
            "training.clone_checkpoint_ms": per(ms("training.clone_checkpoint"),
                                                calls.get("training.clone_checkpoint", 0)),
            "tree.encode_ms_per_sr": per(ms("tree.encode"), calls.get("tree.encode", 0)),
            "tree.build_tree_ms_per_sr": per(ms("tree.build_tree"), calls.get("tree.build_tree", 0)),
            "tree.encode_flat_ms_per_sr": per(ms("tree.encode_flat"), calls.get("tree.encode_flat", 0)),
            "decoder.step_ms_per_call": per(ms("decoder.step"), calls.get("decoder.step", 0)),
            "decoder.step_calls_per_sentence": per(calls.get("decoder.step", 0), sentences),
            "decoder.attend_ms_per_call": per(ms("decoder.attend"), calls.get("decoder.attend", 0)),
            "decoder.attend_calls_per_sentence": per(calls.get("decoder.attend", 0), sentences),
            "generation.beam_self_ms_per_sentence": per(self_ms("generation.beam_decode"),
                                                        calls.get("generation.beam_decode", 0)),
            "generation.greedy_self_ms_per_sentence": per(self_ms("generation.greedy_decode"),
                                                          calls.get("generation.greedy_decode", 0)),
            "semantics.lexicalize_ms_per_sentence": per(ms("semantics.lexicalize"), decoded),
            "semantics.delexicalize_ms_per_sr": per(ms("semantics.delexicalize"),
                                                    calls.get("semantics.delexicalize", 0)),
            "metrics.ser_ms_per_call": per(ms("metrics.ser"), calls.get("metrics.ser", 0)),
            "metrics.bleu_ms_per_call": per(ms("metrics.bleu"), calls.get("metrics.bleu", 0)),
            "model.save_checkpoint_ms": per(ms("model.save_checkpoint"),
                                            calls.get("model.save_checkpoint", 0)),
            "model.load_checkpoint_ms": per(ms("model.load_checkpoint"),
                                            calls.get("model.load_checkpoint", 0)),
            "model.extend_vocab_ms": per(ms("model.extend_vocab"), calls.get("model.extend_vocab", 0)),
            "python.gc_pause_ms_per_sentence": per(1000.0 * sum(self.gc_pauses), sentences),
            "python.gc_collections_per_sentence": per(len(self.gc_pauses), sentences),
        }
