"""perfbench's tracer wraps package attributes by name (``perfbench/tracing.py``):
a rename there would break ``perfbench/run.py --trace 1`` without any
package test noticing.  This runs one traced training pass and one traced
greedy decode through both of its layers of wrappers."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from treenlg import generation, training
from treenlg.model import Model, Vocabulary, prepare_example
from treenlg.semantics import Example, Ontology, SemanticRepresentation, SrEntry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_probes_and_tracer_see_training_and_decoding(tracing):
    ontology = Ontology({"cafe": {"inform": {"area": "informable"}}})
    sr = SemanticRepresentation([SrEntry("cafe", "inform", "area", "west")], ontology)
    prep = prepare_example(Example(sr, "a place in the west", "train"), "tree+att", ontology)
    model = Model.create("tree+att", ontology, Vocabulary.build([prep.tokens], True), 6,
                         np.random.default_rng(0))
    patched = [(owner, attr) for owner, attr, _ in tracing._TRACED]
    patched += [(training, "evaluate_examples"), (training, "sample_adaptation"),
                (training, "greedy_decode")]
    originals = [getattr(owner, attr) for owner, attr in patched]

    with tracing.Probes().installed(), tracing.Tracer().installed() as tracer:
        fwd = training.teacher_forced(model, prep, training.TrainConfig(hidden=6),
                                      training=True, rng=np.random.default_rng(0))
        fwd.tape.backward(fwd.loss)
        fwd.tape.param_grads(model.params)
        generation.greedy_decode(model, sr, max_length=5)

    for name in ("training.teacher_forced", "engine.backward", "engine.param_grads",
                 "decoder.step", "decoder.attend", "generation.greedy_decode"):
        assert name in tracer.names, name
    assert tracer.tape_nodes == [len(fwd.tape.nodes)]
    assert tracer.per_layer()["decoder.step_calls_per_sentence"] > 0
    for (owner, attr), original in zip(patched, originals):
        assert getattr(owner, attr) is original, attr
