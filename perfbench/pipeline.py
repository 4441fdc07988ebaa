"""The three workloads: set-up, timed rounds, checks and metrics.

Every workload runs the same pipeline through the package's public entry
points, sized so that a different layer carries the load:

1. ``training.train`` from scratch at the reference config (``train`` only);
2. adaptation cells: ``training.clone_checkpoint``, ``training.adapt`` for a
   fixed number of epochs, then ``training.evaluate_examples`` (greedy) on
   the target test split;
3. ``model.save_checkpoint`` and ``model.load_checkpoint`` of the model to be
   decoded, then repeated passes of ``generation.greedy_decode`` and
   ``generation.beam_decode`` (beam 10) over a fixed list of SRs.

Source checkpoints come from ``treenlg train`` in child processes during
set-up, so the benchmark process's memory and time are the workload's own.
A round is one pass through the pipeline; a run repeats identical rounds
until its time is up.  Early stopping is off (patience = epochs).

Every run does the same work.  Training and sampling use the fixed seed
``TRAIN_SEED`` and training is bitwise deterministic, so the models, their
outputs and the amount of work are the same in every run.  The run's
``--seed`` sets the order in which the SRs of a decode pass are visited and
the direction of the gradient check: inputs that change no amount of work,
so the spread between runs is the machine's, not the data's.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from treenlg import generation, model, training
from treenlg.metrics import ser
from treenlg.semantics import Example
from treenlg.synth import SynthSpec, synth_corpus

import checks
from tracing import Probes, Tracer, clock

CORPUS_SEED = 7
TRAIN_SEED = 0
TARGET = "hotel"
SOURCE = "restaurant"
BEAM = 10
MAX_LENGTH = 80
GRAD_STEP = 1e-5
ADAPT_EPOCHS = 4


@dataclass(frozen=True)
class Source:
    key: str
    mode: str
    domain: str | None   # None: the whole corpus
    epochs: int


@dataclass(frozen=True)
class Workload:
    name: str
    sources: tuple[Source, ...]
    train_epochs: int                        # 0: no scratch training in a round
    cells: tuple[tuple[str, float], ...]     # (model key, fraction of target train)
    decode_model: str                        # "fresh", "adapted" or a source key
    decode_srs: str                          # "dev", "dev+test" or "target-test"
    greedy_passes: int
    beam_passes: int


FLAT = Source("flat", "flat-baseline", SOURCE, 6)

WORKLOADS = {w.name: w for w in (
    Workload("train", (FLAT,), train_epochs=6,
             cells=(("fresh", 0.05), ("flat", 0.05)) * 3,
             decode_model="fresh", decode_srs="dev", greedy_passes=5, beam_passes=4),
    Workload("decode", (Source("tree", "tree+att", None, 5), FLAT), train_epochs=0,
             cells=(("tree", 0.05), ("flat", 0.05)),
             decode_model="tree", decode_srs="dev+test", greedy_passes=3, beam_passes=1),
    Workload("adapt", (Source("tree", "tree+att", SOURCE, 6), FLAT), train_epochs=0,
             cells=tuple((key, f) for f in (0.0125, 0.05, 0.1) for key in ("tree", "flat")),
             decode_model="adapted", decode_srs="target-test", greedy_passes=5, beam_passes=4),
)}


def process_age() -> float:
    """Seconds since this process was created, from /proc; 10 ms resolution."""
    with open("/proc/self/stat") as fh:
        after_name = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(after_name[19])   # field 22, counted from 1, of the whole line
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


class Tally:
    """Work done and seconds spent on one kind of operation over a run.

    A rate is total work over total time, not a median of slices: on a
    shared host the machine's speed drifts in phases of tens of seconds, and
    a median snaps to whichever phase held most of the run, while the total
    weighs each phase by its share of the run and so varies less between
    runs."""

    def __init__(self):
        self.work = 0.0
        self.seconds = 0.0
        self.count = 0

    def add(self, seconds: float, work: float = 1.0) -> None:
        self.work += work
        self.seconds += seconds
        self.count += 1

    def rate(self) -> float:
        return self.work / self.seconds

    def mean(self) -> float:
        return self.seconds / self.count


class Run:
    """One benchmark process: set-up, rounds, checks, result."""

    def __init__(self, workload: Workload, seed: int, root: Path, workdir: Path):
        self.w = workload
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.probes = Probes()
        self.fit, self.greedy, self.beam, self.cell = Tally(), Tally(), Tally(), Tally()
        self.round_walls: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.train_logs: list[list[float]] = []
        self.cells: list[dict] = []
        self.first_pass: dict[str, list] = {}
        self.first_digest: dict[str, list] = {}
        self.changed_passes: list[str] = []

    # ---- set-up -------------------------------------------------------
    def setup(self) -> None:
        corpus, ontology = synth_corpus(SynthSpec.default(), seed=CORPUS_SEED)
        self.corpus, self.ontology = corpus, ontology
        self.target = corpus.filter_domain(TARGET)
        self.target_test = self.target.split("test")
        self.schema = ontology.schema
        srs = {"dev": corpus.split("dev"),
               "dev+test": corpus.split("dev") + corpus.split("test"),
               "target-test": self.target_test}
        order = np.random.default_rng(self.seed).permutation(len(srs[self.w.decode_srs]))
        self.decode_examples = [srs[self.w.decode_srs][i] for i in order]
        self.train_tokens = sum(self._tokens(e, "tree+att") for e in corpus.split("train"))
        self.sample_tokens = {(id(e), mode): self._tokens(e, mode)
                              for e in self.target.split("train")
                              for mode in ("tree+att", "flat-baseline")}

        corpus_path = self.workdir / "corpus.jsonl"
        ontology_path = self.workdir / "ontology.json"
        corpus.to_file(corpus_path)
        ontology.to_file(ontology_path)
        self.sources = {}
        for src in self.w.sources:
            out = self.workdir / src.key
            self._child_train(src, corpus_path, ontology_path, out)
            self.sources[src.key] = model.load_checkpoint(out / "checkpoint.ckpt")

    def _child_train(self, src: Source, corpus_path: Path, ontology_path: Path,
                     out: Path) -> None:
        cmd = [sys.executable, "-m", "treenlg", "train", "--corpus", str(corpus_path),
               "--ontology", str(ontology_path), "--out", str(out), "--mode", src.mode,
               "--seed", str(TRAIN_SEED), "--max-epochs", str(src.epochs),
               "--patience", str(src.epochs)]
        if src.domain:
            cmd += ["--domain", src.domain]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        done = subprocess.run(cmd, env=env, cwd=self.root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"source training {src.key} failed: {done.stderr.strip()[-500:]}")

    def _tokens(self, example, mode: str) -> int:
        """Target tokens of one training sentence, end token included."""
        return len(model.prepare_example(example, mode, self.ontology).tokens) + 1

    def _config(self, mode: str, epochs: int) -> training.TrainConfig:
        return training.TrainConfig(mode=mode, seed=TRAIN_SEED, max_epochs=epochs,
                                    patience=epochs, max_length=MAX_LENGTH)

    # ---- one round ----------------------------------------------------
    def round(self) -> None:
        """Train (if the workload does), adapt the first cell, then interleave
        decode passes with the remaining cells so that every metric samples
        the whole round, not one stretch of it."""
        start = clock()
        checkpoints = dict(self.sources)
        if self.w.train_epochs:
            config = self._config("tree+att", self.w.train_epochs)
            outcome = self._fit(lambda: training.train(self.corpus, config, self.ontology),
                                lambda: self.train_tokens)
            self.train_logs.append([entry["train_loss"] for entry in outcome.log])
            checkpoints["fresh"] = outcome.checkpoint

        first_cell, *cells = self.w.cells
        self._cell(checkpoints, *first_cell)
        self.decode_checkpoint = checkpoints[self.w.decode_model]
        self.reloaded_model = self._round_trip(self.decode_checkpoint)
        for i in range(max(len(cells), self.w.greedy_passes, self.w.beam_passes)):
            if i < self.w.greedy_passes:
                self._decode_pass("greedy")
            if i < self.w.beam_passes:
                self._decode_pass("beam")
            if i < len(cells):
                self._cell(checkpoints, *cells[i])
        self.round_walls.append(clock() - start)
        if len(self.round_walls) == 1:
            # Peak of set-up plus one round: later rounds repeat the same
            # work, and how many fit in the run depends on the machine.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _cell(self, checkpoints: dict, key: str, fraction: float) -> None:
        """clone + adapt + greedy scoring of the target test split."""
        cell_start = clock()
        base = training.clone_checkpoint(checkpoints[key])
        mode = base.model.mode
        config = self._config(mode, ADAPT_EPOCHS)
        outcome = self._fit(
            lambda: training.adapt(base, self.target, fraction, config, TRAIN_SEED),
            lambda: sum(self.sample_tokens[id(e), mode] for e in self.probes.last_sample))
        sample = self.probes.last_sample
        self.probes.greedy_capture = []
        scores = training.evaluate_examples(outcome.checkpoint.model, self.target_test,
                                            max_length=MAX_LENGTH)
        captured, self.probes.greedy_capture = self.probes.greedy_capture, None
        self.cell.add(clock() - cell_start)
        self.cells.append({"fraction": fraction, "mode": mode, "sample": sample,
                           "vocab": set(outcome.checkpoint.model.vocab.tokens),
                           "ser": scores["ser"],
                           "greedy": [r.top.delex_text for r in captured]})
        if mode == "tree+att":
            checkpoints["adapted"] = outcome.checkpoint

    def _decode_pass(self, kind: str) -> None:
        """Decode every SR once, timing each sentence.  The first pass's
        results are kept for the checks; later passes must repeat them."""
        m = self.reloaded_model
        tally = self.greedy if kind == "greedy" else self.beam
        out = []
        for example in self.decode_examples:
            t = clock()
            if kind == "greedy":
                out.append(generation.greedy_decode(m, example.sr, max_length=MAX_LENGTH))
            else:
                out.append(generation.beam_decode(m, example.sr, beam_size=BEAM,
                                                  max_length=MAX_LENGTH))
            tally.add(clock() - t)
        self.attempted += len(out)
        digest = _digest(out)
        if kind not in self.first_pass:
            self.first_pass[kind] = out
            self.first_digest[kind] = digest
        elif digest != self.first_digest[kind]:
            self.changed_passes.append(kind)

    def _fit(self, call, tokens_per_epoch):
        """Run ``train`` or ``adapt`` and time each epoch's optimisation: the
        time from the end of one dev evaluation (or the call's start) to the
        start of the next."""
        first_eval = len(self.probes.evals)
        previous_end = clock()
        outcome = call()
        tokens = tokens_per_epoch()
        for eval_start, eval_end in self.probes.evals[first_eval:]:
            self.fit.add(eval_start - previous_end, tokens)
            previous_end = eval_end
        self.attempted += 1
        return outcome

    def _round_trip(self, checkpoint) -> model.Model:
        path = self.workdir / "decode.ckpt"
        model.save_checkpoint(path, checkpoint.model, checkpoint.config, checkpoint.epoch,
                              checkpoint.dev_metrics)
        self.attempted += 1
        return model.load_checkpoint(path).model

    # ---- checks -------------------------------------------------------
    def check(self) -> None:
        for name, fn in (("train loss", self._check_train), ("gradient", self._check_gradient),
                         ("adaptation", self._check_cells), ("decoding", self._check_decoding)):
            try:
                fn()
            except checks.CheckFailed as exc:
                self.failures.append(f"{name}: {exc}")

    def _check_train(self) -> None:
        for losses in self.train_logs:
            checks.loss_decreases(losses)

    def _check_gradient(self) -> None:
        m = self.decode_checkpoint.model
        prep = model.prepare_example(self.decode_examples[0], m.mode, m.ontology)
        checks.directional_gradient(*directional_derivative(m, prep, self.seed))

    def _check_cells(self) -> None:
        n_single = sum(1 for e in self.target.split("train") if not e.is_multi_domain)
        for cell in self.cells:
            checks.sample_size(len(cell["sample"]), cell["fraction"], n_single)
            tokens = [t for e in cell["sample"]
                      for t in model.prepare_example(e, cell["mode"], self.ontology).tokens]
            checks.vocab_covers(tokens, cell["vocab"])
            checks.require(len(cell["greedy"]) == len(self.target_test),
                           "scoring call decoded a different number of sentences")
            counts = [checks.slot_counts(e.sr, text, self.schema)
                      for e, text in zip(self.target_test, cell["greedy"])]
            checks.corpus_ser_matches(cell["ser"], checks.slot_rate(counts))

    def _check_decoding(self) -> None:
        srs = [e.sr for e in self.decode_examples]
        m = self.reloaded_model
        checks.require(not self.changed_passes,
                       f"a repeated {self.changed_passes[:1]} pass decoded differently")
        for kind, results in self.first_pass.items():
            self._check_outputs(srs, results, kind, m)
        greedy = [(r.top.delex_text, r.top.score) for r in self.first_pass["greedy"]]
        beam1 = [(r.top.delex_text, r.top.score)
                 for r in (generation.beam_decode(m, sr, beam_size=1, max_length=MAX_LENGTH)
                           for sr in srs)]
        checks.same_outputs(greedy, beam1, "beam size 1 vs greedy")
        in_memory = self.decode_checkpoint.model
        checks.same_outputs(
            self.first_digest["greedy"],
            _digest([generation.greedy_decode(in_memory, sr, max_length=MAX_LENGTH)
                     for sr in srs]),
            "reloaded vs in-memory greedy")
        checks.same_outputs(
            self.first_digest["beam"],
            _digest([generation.beam_decode(in_memory, sr, beam_size=BEAM, max_length=MAX_LENGTH)
                     for sr in srs]),
            "reloaded vs in-memory beam")

    def _check_outputs(self, srs, results, kind: str, m: model.Model) -> None:
        checks.ends_early([len(r.top.delex_text.split()) for r in results],
                          [h.truncated for r in results for h in r.hypotheses], MAX_LENGTH)
        for i, (sr, res) in enumerate(zip(srs, results)):
            own = checks.slot_counts(sr, res.top.delex_text, self.schema)
            counts = ser(sr, res.top.delex_text)
            checks.ser_matches(own, (counts.missing, counts.redundant, counts.required),
                               f"{kind} sentence {i}")
            if kind == "beam":
                checks.ranked([h.score for h in res.hypotheses], BEAM)
                checks.beam_scores_match([h.score for h in res.hypotheses],
                                         [rescore(m, sr, h.delex_text)
                                          for h in res.hypotheses])

    # ---- result -------------------------------------------------------
    def end_to_end(self, setup_s: float) -> dict[str, tuple[float, str]]:
        return {
            "train_tokens_per_s": (self.fit.rate(), "tokens/s"),
            "greedy_sentences_per_s": (self.greedy.rate(), "sentences/s"),
            "beam10_sentences_per_s": (self.beam.rate(), "sentences/s"),
            "adapt_cell_s": (self.cell.mean(), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


def _digest(results: list) -> list:
    """Every hypothesis's text and score, per sentence."""
    return [[(h.delex_text, h.score) for h in r.hypotheses] for r in results]


def eval_config(m: model.Model) -> training.TrainConfig:
    return training.TrainConfig(mode=m.mode, max_length=MAX_LENGTH)


def directional_derivative(m: model.Model, prep: model.PreparedExample, seed: int,
                           grads: dict | None = None) -> tuple[float, float]:
    """The objective's derivative along one seeded unit direction over every
    parameter: from the tape gradient (or ``grads``), and from a central
    difference of two forward passes.  Dropout is off."""
    config = eval_config(m)
    if grads is None:
        fwd = training.teacher_forced(m, prep, config, training=False)
        fwd.tape.backward(fwd.loss)
        grads = fwd.tape.param_grads(m.params)
    rng = np.random.default_rng(seed)
    direction = {n: rng.standard_normal(p.shape) for n, p in m.params.items()}
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    analytic = sum(float(np.sum(grads[n] * d)) for n, d in direction.items()) / norm
    original = {n: p.copy() for n, p in m.params.items()}

    def loss_at(offset: float) -> float:
        for n, p in m.params.items():
            np.copyto(p, original[n] + (offset / norm) * direction[n])
        try:
            return float(training.teacher_forced(m, prep, config, training=False,
                                                 recording=False).loss.value)
        finally:
            for n, p in m.params.items():
                np.copyto(p, original[n])

    return analytic, (loss_at(GRAD_STEP) - loss_at(-GRAD_STEP)) / (2 * GRAD_STEP)


def rescore(m: model.Model, sr, delex_text: str) -> float:
    """Log probability of a finished hypothesis's tokens and the end token
    under teacher forcing; placeholders feed their attention back as in
    decoding."""
    words = delex_text.split()
    if m.uses_attention:
        words = ["@" if w.startswith("@") else w for w in words]
    prep = model.PreparedExample(Example(sr, delex_text, "test"), words, {},
                                 attention_usable=False)
    fwd = training.teacher_forced(m, prep, eval_config(m), training=False, recording=False)
    return -float(fwd.nll.value)


PER_LAYER_UNITS = {
    "engine.tape_nodes_per_sentence": "count",
    "engine.decode_tape_nodes_per_sentence": "count",
    "decoder.step_calls_per_sentence": "count",
    "decoder.attend_calls_per_sentence": "count",
    "python.gc_collections_per_sentence": "count",
    "trace.overhead_share": "share",
    "trace.accounted_share": "share",
}


def execute(workload: Workload, seed: int, seconds: float, trace: bool,
            root: Path) -> dict:
    """Run one workload and return the result object printed by ``run.py``."""
    work_base = root / ".perfbench-work"
    work_base.mkdir(exist_ok=True)
    workdir = work_base / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    run = Run(workload, seed, root, workdir)
    tracer = Tracer() if trace else None
    try:
        with run.probes.installed():
            if tracer:
                with tracer.installed():
                    run.setup()
            else:
                run.setup()
            setup_s = process_age()
            metrics: dict[str, tuple[float, str]]
            if tracer:
                # A traced first round takes the warm-up; an untraced round
                # then gives the baseline for the traced rounds after it.
                first_span = len(tracer.names)
                with tracer.installed():
                    run.round()
                run.round()
                baseline = run.round_walls.pop()
                started = clock()
                with tracer.installed():
                    while len(run.round_walls) < 2 or clock() - started < seconds:
                        run.round()
                layer = tracer.per_layer()
                layer["trace.overhead_share"] = (statistics.median(run.round_walls[1:])
                                                 / baseline - 1.0)
                layer["trace.accounted_share"] = (tracer.top_level_seconds(first_span)
                                                  / sum(run.round_walls))
                metrics = {k: (v, PER_LAYER_UNITS.get(k, "ms")) for k, v in layer.items()}
            else:
                started = clock()
                while not run.round_walls or clock() - started < seconds:
                    run.round()
                metrics = run.end_to_end(setup_s)
            run.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_base.rmdir()
        except OSError:
            pass
    for reason in run.failures:
        print(f"check failed: {reason}", file=sys.stderr)
    return {"correct": not run.failures, "attempted": run.attempted, "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
