"""Each benchmark check passes on the program's real output and fails when
one value is corrupted: a perturbed score, a wrong gradient, a dropped
token.  Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import pipeline
from treenlg import generation, training
from treenlg.engine import Adam
from treenlg.metrics import ser

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tiny():
    """A hidden-8 tree+att model that has memorised its one sentence, so its
    beam hypotheses finish on the end token."""
    m, prep, config = training.gradcheck_setup(hidden=8, seed=0)
    optimizer = Adam(0.05)
    for _ in range(150):
        fwd = training.teacher_forced(m, prep, config, training=False)
        fwd.tape.backward(fwd.loss)
        optimizer.step(m.params, fwd.tape.param_grads(m.params))
    return m, prep


def fails(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


def test_directional_gradient_passes_and_catches_a_wrong_gradient(tiny):
    m, prep = tiny
    checks.directional_gradient(*pipeline.directional_derivative(m, prep, seed=3))
    fwd = training.teacher_forced(m, prep, pipeline.eval_config(m), training=False)
    fwd.tape.backward(fwd.loss)
    grads = fwd.tape.param_grads(m.params)
    grads["dec.out.w"] = grads["dec.out.w"] * 1.01
    fails(checks.directional_gradient, *pipeline.directional_derivative(m, prep, 3, grads))


def test_loss_decreases():
    checks.loss_decreases([3.0, 2.5, 2.0])
    fails(checks.loss_decreases, [3.0, 2.0, 3.5])
    fails(checks.loss_decreases, [3.0])


def test_beam_scores_rescore_exactly_and_catch_a_perturbed_score(tiny):
    m, prep = tiny
    sr = prep.example.sr
    result = generation.beam_decode(m, sr, beam_size=3, max_length=20)
    scores = [h.score for h in result.hypotheses]
    rescored = [pipeline.rescore(m, sr, h.delex_text) for h in result.hypotheses]
    checks.beam_scores_match(scores, rescored)
    checks.ranked(scores, 3)
    assert len(set(scores)) > 1
    fails(checks.beam_scores_match, [scores[0] + 1e-6] + scores[1:], rescored)
    fails(checks.ranked, list(reversed(scores)), 3)
    fails(checks.ranked, scores * 4, 3)


def test_beam1_equals_greedy_and_catches_a_changed_output(tiny):
    m, prep = tiny
    sr = prep.example.sr
    greedy = generation.greedy_decode(m, sr, max_length=20).top
    beam1 = generation.beam_decode(m, sr, beam_size=1, max_length=20).top
    checks.same_outputs([(greedy.delex_text, greedy.score)],
                        [(beam1.delex_text, beam1.score)], "beam 1 vs greedy")
    fails(checks.same_outputs, [(greedy.delex_text, greedy.score)],
          [(beam1.delex_text + " extra", beam1.score)], "beam 1 vs greedy")
    fails(checks.same_outputs, [(greedy.delex_text, greedy.score)],
          [(beam1.delex_text, np.nextafter(beam1.score, 0.0))], "beam 1 vs greedy")


def test_slot_recount_matches_metrics_and_catches_a_dropped_token(tiny):
    _, prep = tiny
    sr = prep.example.sr
    schema = sr.ontology.schema
    text = "@cafe-inform-price place in the @cafe-inform-area , what price ?"
    program = ser(sr, text)
    own = checks.slot_counts(sr, text, schema)
    checks.ser_matches(own, (program.missing, program.redundant, program.required), "s")
    assert own == (0, 0, 2)
    dropped = text.replace("@cafe-inform-area", "")
    fails(checks.ser_matches, checks.slot_counts(sr, dropped, schema),
          (program.missing, program.redundant, program.required), "s")
    for variant in (dropped, text + " @cafe-inform-area2 @inn-inform-area @cafe-x"):
        p = ser(sr, variant)
        checks.ser_matches(checks.slot_counts(sr, variant, schema),
                           (p.missing, p.redundant, p.required), "variant")


def test_corpus_ser_recount():
    counts = [(1, 0, 2), (0, 1, 3)]
    checks.corpus_ser_matches(0.4, checks.slot_rate(counts))
    fails(checks.corpus_ser_matches, 0.4, checks.slot_rate([(1, 0, 2), (0, 0, 3)]))
    assert checks.slot_rate([(0, 2, 0)]) == 2.0


def test_sample_size_and_vocabulary():
    checks.sample_size(1, 0.0125, 30)
    checks.sample_size(2, 0.05, 30)
    fails(checks.sample_size, 2, 0.0125, 30)
    checks.vocab_covers(["a", "b"], {"a", "b", "c"})
    fails(checks.vocab_covers, ["a", "d"], {"a", "b", "c"})


def test_ends_early():
    checks.ends_early([5, 12], [False, False], 80)
    fails(checks.ends_early, [5, 12], [False, True], 80)
    fails(checks.ends_early, [5, 41], [False, False], 80)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
