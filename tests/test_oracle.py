"""The fused encoder, decoder and loss kernels and the stacked search against
the reference copies in ``tests/oracle``, which run on the reference engine
with its fine-grained ops: random models in all three modes at hidden 8 and
100, random SRs, dropout off and on with one rng seed on both sides (so the
order of the mask draws is part of the contract).

Floating-point results agree within 1e-12, relative to the largest
magnitude in the tensor; token sequences, texts and chosen attention triples
are equal.  A mismatch where two scores lie within 1e-9 of each other is
reported as a near-tie, but it still fails.

A minibatch on one tape must give the sum of the reference's per-sentence
losses and gradients, drawing the same dropout masks, and its tree encoding
must give every node bitwise the state of encoding its tree alone."""

import itertools
import random

import numpy as np
import pytest

from oracle import decoder as ref_decoder
from oracle import engine as ref_engine
from oracle import generation as ref_generation
from oracle import training as ref_training
from oracle import tree as ref_tree
from test_acceptance import random_sr
from test_decoder import arrays
from test_generation import zeroed_model
from treenlg import generation
from treenlg.decoder import GATES as DECODER_GATES
from treenlg.decoder import STATE_GATES, DecoderState, attend, make_feedback_input, step
from treenlg.engine import ParamBinding, Tape
from treenlg.errors import ContractError
from treenlg.model import MODES, Model, PreparedExample, Vocabulary, prepare_example
from treenlg.semantics import REQUEST, Example, Ontology, SemanticRepresentation, SrEntry
from treenlg.training import TrainConfig, teacher_forced, teacher_forced_batch
from treenlg.tree import GATES as TREE_GATES
from treenlg.tree import build_tree, encode, encode_batch, init_flat_params

TOL = 1e-12
NEAR_TIE = 1e-9


def rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(b), initial=0.0)))
    return float(np.max(np.abs(a - b), initial=0.0)) / scale if scale else 0.0


def ref_arrays(dists):
    """The reference's domain, act and slot distributions, as arrays."""
    return tuple(n.value for n in (dists.domain, dists.act, dists.slot))


def weighted_sum(tape, nodes, weights):
    """sum_k <nodes[k], weights[k]> as one op, on either side's tape."""
    value = sum(float(np.sum(n.value * w)) for n, w in zip(nodes, weights))
    return tape.op(value, tuple(nodes), lambda g: tuple(g * w for w in weights))


# The stacks whose rows the reference code holds as one tensor per gate, and
# those gates in row order.
STACKS = {"enc.e": TREE_GATES, "enc.h": TREE_GATES, "enc.b": TREE_GATES,
          "dec.x": DECODER_GATES, "dec.h": DECODER_GATES, "dec.b": DECODER_GATES,
          "dec.s": STATE_GATES}


def per_gate(tensors):
    """Each gate stack of a parameter or gradient dict as views of its
    per-gate blocks, under the reference code's names (``enc.i.e``,
    ``dec.r.s``, ...); other tensors as they are."""
    out = {}
    for name, value in tensors.items():
        gates = STACKS.get(name)
        if gates is None:
            out[name] = value
            continue
        prefix, kind = name.split(".")
        rows = len(value) // len(gates)
        for k, gate in enumerate(gates):
            out[f"{prefix}.{gate}.{kind}"] = value[k * rows:(k + 1) * rows]
    return out


def reference(model):
    """The model as the reference code sees it: its parameters as per-gate
    views, so both sides read the same values."""
    return Model(model.mode, model.hidden, model.ontology, model.vocab, per_gate(model.params))


def compare_grads(ref_grads, new_grads, where):
    """Reference gradients (per gate) against the package's (per stack)."""
    new_grads = per_gate(new_grads)
    assert ref_grads.keys() == new_grads.keys(), where
    for name, g in ref_grads.items():
        assert rel_err(g, new_grads[name]) <= TOL, (where, name)


def sides(model):
    """(tape, binding, encode_sr) of the reference, then of the package."""
    ref_tape, new_tape = ref_engine.Tape(), Tape()
    return ((ref_tape, ref_engine.ParamBinding(ref_tape, per_gate(model.params)),
             ref_tree.encode_sr),
            (new_tape, ParamBinding(new_tape, model.params), Model.encode_sr))


def sentence(sr) -> str:
    """A reference text that mentions every value of the SR once."""
    values = [e.value for e in sr if not e.is_bare_act and e.value != REQUEST]
    return " ".join(f"near {v}" for v in values) + " ?"


@pytest.fixture(scope="module")
def cases(synth_default):
    """(mode, hidden, model, prepared examples, decode SRs) per case."""
    _, ontology = synth_default
    rng = random.Random(11)
    out = []
    for mode in MODES:
        for hidden in (8, 100):
            srs = [random_sr(ontology, rng) for _ in range(6)]
            preps = [prepare_example(Example(sr, sentence(sr), "train"), mode, ontology)
                     for sr in srs]
            vocab = Vocabulary.build([p.tokens for p in preps],
                                     placeholder_only=mode == "tree+att")
            model = Model.create(mode, ontology, vocab, hidden,
                                 np.random.default_rng(hidden + len(out)), 0.5)
            out.append((mode, hidden, model, preps, srs))
    return out


def reference_encoder_params(ontology, hidden, rng, scale):
    """The tree encoder's initial tensors drawn one gate at a time, under the
    reference code's names."""
    params = {"enc.emb": rng.uniform(-scale, scale,
                                     size=(len(ontology.embedding_tokens()), hidden))}
    for gate in TREE_GATES:
        params[f"enc.{gate}.e"] = rng.uniform(-scale, scale, size=(hidden, hidden))
        params[f"enc.{gate}.h"] = rng.uniform(-scale, scale, size=(hidden, hidden))
        params[f"enc.{gate}.b"] = np.zeros(hidden)
    return params


class TestInit:
    def test_stacks_hold_the_per_gate_draws(self, synth_default):
        """Every mode's initial stacks are the reference's per-gate tensors,
        drawn in the same order from the same rng, one under the other."""
        _, ontology = synth_default
        vocab = Vocabulary.build([["a", "b", "@"]], placeholder_only=True)
        for mode in MODES:
            for hidden in (3, 8):
                rng_new, rng_ref = np.random.default_rng(hidden), np.random.default_rng(hidden)
                model = Model.create(mode, ontology, vocab, hidden, rng_new, 0.3)
                ref = (reference_encoder_params(ontology, hidden, rng_ref, 0.3)
                       if model.uses_tree else init_flat_params(ontology, hidden, rng_ref, 0.3))
                ref.update(ref_decoder.init_decoder_params(
                    len(vocab), hidden, ontology.feedback_size, rng_ref, 0.3))
                assert rng_new.random() == rng_ref.random(), (mode, hidden)
                blocks = per_gate(model.params)
                assert blocks.keys() == ref.keys(), (mode, hidden)
                for name, value in ref.items():
                    assert np.array_equal(blocks[name], value), (mode, hidden, name)


class TestTeacherForced:
    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    def test_loss_nll_and_gradients_match(self, cases, dropout):
        for mode, hidden, model, preps, _ in cases:
            config = TrainConfig(mode=mode, hidden=hidden, dropout=dropout)
            for n, prep in enumerate(preps):
                rng_ref, rng_new = np.random.default_rng(n), np.random.default_rng(n)
                ref = ref_training.teacher_forced(reference(model), prep, config,
                                                  training=True, rng=rng_ref)
                new = teacher_forced(model, prep, config, training=True, rng=rng_new)
                where = f"{mode} hidden {hidden} example {n} dropout {dropout}"
                assert rel_err(ref.loss.value, new.loss.value) <= TOL, where
                assert rel_err(ref.nll.value, new.nll.value) <= TOL, where
                # Both sides drew the same masks in the same order.
                assert rng_ref.random() == rng_new.random(), where
                ref.tape.backward(ref.loss)
                new.tape.backward(new.loss)
                compare_grads(ref.tape.param_grads(per_gate(model.params)),
                              new.tape.param_grads(model.params), where)


class TestEncoder:
    def test_states_and_gradients_match(self, cases):
        """Node states (h and c), label states and the embedding agree, and
        so does every encoder-parameter gradient of a random weighting of
        the encoder op's whole output: the embedding row and every label
        row."""
        for mode, hidden, model, _, srs in cases:
            rng = np.random.default_rng(hidden)
            for n, sr in enumerate(srs):
                where = f"{mode} hidden {hidden} sr {n}"
                encoded = [(tape, binding, encode_sr(model, sr, binding))
                           for tape, binding, encode_sr in sides(model)]
                (_, _, ref), (_, _, new) = encoded
                assert sorted(ref.node_states) == sorted(new.node_states), where
                for i, (h, c) in ref.node_states.items():
                    assert rel_err(h.value, new.node_states[i][0].value) <= TOL, (where, i)
                    assert rel_err(c.value, new.node_states[i][1].value) <= TOL, (where, i)
                labelled = [(layer, label) for layer, states in ref.layer_states.items()
                            for label in sorted(states)]
                # The output stacks the embedding, then each layer's labels.
                assert labelled == [(layer, label) for layer, states in new.labels.items()
                                    for label in states.labels], where
                ref_rows = [ref.embedding] + [ref.layer_states[layer][label]
                                              for layer, label in labelled]
                assert new.output.shape == (len(ref_rows), hidden), where
                for k, node in enumerate(ref_rows):
                    assert rel_err(node.value, new.output.value[k]) <= TOL, (where, k)
                weights = rng.normal(size=new.output.shape)
                grads = []
                for (tape, binding, _), nodes, node_weights in zip(
                        encoded, (ref_rows, [new.output]), (list(weights), [weights])):
                    tape.backward(weighted_sum(tape, nodes, node_weights))
                    grads.append(tape.param_grads(binding.params))
                compare_grads(*grads, where)


class TestKernels:
    """The forward-only kernels' values.  Their gradients have one
    definition, the teacher-forced decoder op, which TestTeacherForced and
    TestMinibatch check against the reference's."""

    def test_attention_distributions_match(self, cases):
        for mode, hidden, model, _, srs in cases:
            if not model.uses_attention:
                continue
            rng = np.random.default_rng(hidden)
            for sr in srs:
                s = rng.normal(size=hidden)
                ref_tape, tape = ref_engine.Tape(), Tape(recording=False)
                ref_binding = ref_engine.ParamBinding(ref_tape, per_gate(model.params))
                ref = ref_decoder.attend(ref_tape.leaf(s), ref_tree.encode_sr(model, sr, ref_binding),
                                         model.ontology)
                new = attend(s, model.encode_sr(sr, ParamBinding(tape, model.params)),
                             model.ontology)
                for a, b in zip(ref_arrays(ref), arrays(new)):
                    assert rel_err(a, b) <= TOL
                    assert np.array_equal(a == 0.0, b == 0.0)

    def test_stacked_step_rows_match_single_steps(self, cases):
        for mode, hidden, model, _, srs in cases:
            rng = np.random.default_rng(3)
            tape = Tape(recording=False)
            binding = ParamBinding(tape, model.params)
            encoded = model.encode_sr(srs[0], binding)
            k = 4
            words = rng.integers(0, len(model.vocab), size=k)
            rows = DecoderState(*(rng.normal(size=(k, hidden)) for _ in range(3)))
            x = make_feedback_input(words, None, binding, model.ontology.feedback_size)
            stacked, probs = step(binding, x, rows)
            for j in range(k):
                x1 = make_feedback_input(int(words[j]), None, binding,
                                         model.ontology.feedback_size)
                single, p1 = step(binding, x1, DecoderState(rows.h[j], rows.c[j], rows.s[j]))
                assert rel_err(p1.value, probs.value[j]) <= TOL
                assert rel_err(single.s, stacked.s[j]) <= TOL
            if model.uses_attention:
                dists = attend(stacked.s, encoded, model.ontology)
                for j in range(k):
                    one = attend(stacked.s[j], encoded, model.ontology)
                    for a, b in zip(arrays(one), (dists.domain[j], dists.act[j], dists.slot[j])):
                        assert rel_err(a, b) <= TOL


def mixed_batch(mode, ontology, srs, rng) -> list[PreparedExample]:
    """Sentences of mixed lengths over ``srs``, the last two with no
    placeholder and with attention labels unusable."""
    preps = []
    for sr in srs:
        filler = " ".join(rng.choice(["here", "is", "a", "nice", "one"], rng.integers(0, 9)))
        text = f"{filler} {sentence(sr)}".strip()
        preps.append(prepare_example(Example(sr, text, "train"), mode, ontology))
    preps[-2] = PreparedExample(preps[-2].example, ["here", "is", "one", "."])
    if mode == "tree+att":
        preps[-1] = PreparedExample(preps[-1].example, ["a", "@", "is", "@", "."], {},
                                    attention_usable=False)
    return preps


@pytest.fixture(scope="module")
def batch_cases(synth_default):
    """(mode, hidden, model, 16 mixed prepared examples) per case."""
    _, ontology = synth_default
    rng = random.Random(17)
    nrng = np.random.default_rng(17)
    out = []
    for mode in MODES:
        for hidden in (8, 100):
            srs = [random_sr(ontology, rng) for _ in range(16)]
            preps = mixed_batch(mode, ontology, srs, nrng)
            vocab = Vocabulary.build([p.tokens for p in preps],
                                     placeholder_only=mode == "tree+att")
            model = Model.create(mode, ontology, vocab, hidden, nrng, 0.5)
            out.append((mode, hidden, model, preps))
    return out


class TestMinibatch:
    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    @pytest.mark.parametrize("size", [1, 3, 16])
    def test_batch_is_the_sum_of_reference_sentences(self, batch_cases, dropout, size):
        for mode, hidden, model, preps in batch_cases:
            # The short subsets keep the unusable and placeholder-free sentences.
            batch = preps[-size:]
            where = f"{mode} hidden {hidden} batch {size} dropout {dropout}"
            config = TrainConfig(mode=mode, hidden=hidden, dropout=dropout)
            rng_ref, rng_new = np.random.default_rng(size), np.random.default_rng(size)
            loss = nll = 0.0
            ref_model = reference(model)
            ref_grads = {name: np.zeros_like(v) for name, v in ref_model.params.items()}
            for prep in batch:
                ref = ref_training.teacher_forced(ref_model, prep, config, training=True,
                                                  rng=rng_ref)
                ref.tape.backward(ref.loss)
                for name, g in ref.tape.param_grads(ref_model.params).items():
                    ref_grads[name] += g
                loss += float(ref.loss.value)
                nll += float(ref.nll.value)
            new = teacher_forced_batch(model, batch, config, training=True, rng=rng_new)
            assert new.n_tokens == sum(len(p.tokens) + 1 for p in batch), where
            assert rel_err(loss, new.loss.value) <= TOL, where
            assert rel_err(nll, new.nll.value) <= TOL, where
            assert rng_ref.random() == rng_new.random(), where
            new.tape.backward(new.loss)
            compare_grads(ref_grads, new.tape.param_grads(model.params), where)

    def test_node_states_do_not_depend_on_the_batch(self, batch_cases):
        for mode, hidden, model, preps in batch_cases:
            if not model.uses_tree:
                continue
            trees = [build_tree(p.example.sr, model.ontology) for p in preps]
            batch = encode_batch(trees, ParamBinding(Tape(), model.params), model.token_index)
            for b, tree in enumerate(trees):
                alone = encode(tree, ParamBinding(Tape(), model.params), model.token_index)
                for i, (h, c) in alone.node_states.items():
                    depth, row = batch.positions[b][i]
                    packed = batch.levels[depth][row]
                    assert np.array_equal(packed, np.concatenate([h.value, c.value])), \
                        (mode, hidden, b, i)
                assert np.array_equal(batch.embedding.value[b], alone.embedding.value)


def ranked(result) -> list[tuple[str, float, list]]:
    return [(h.delex_text, h.score, h.trace.entries) for h in result.hypotheses]


def assert_same_search(ref, new, where: str) -> None:
    ref_h, new_h = ranked(ref), ranked(new)
    scores = sorted(s for _, s, _ in ref_h + new_h)
    gap = min((b - a for a, b in zip(scores, scores[1:]) if b - a > 0.0), default=np.inf)
    if [t for t, _, _ in ref_h] != [t for t, _, _ in new_h]:
        kind = "near-tie flipped the order" if gap < NEAR_TIE else "ranked texts differ"
        pytest.fail(f"{where}: {kind} (smallest score gap {gap:.3g})\n"
                    f"reference {[t for t, _, _ in ref_h]}\nfused {[t for t, _, _ in new_h]}")
    for (_, s_ref, tr_ref), (_, s_new, tr_new) in zip(ref_h, new_h):
        assert rel_err(s_ref, s_new) <= TOL, where
        assert [e.triple for e in tr_new] == [(e.domain, e.act, e.slot) for e in tr_ref], where
        for e_ref, e_new in zip(tr_ref, tr_new):
            assert e_ref.step == e_new.step, where
            for layer in ("domain_dist", "act_dist", "slot_dist"):
                assert rel_err(getattr(e_ref, layer), getattr(e_new, layer)) <= TOL, where
    assert [h.truncated for h in ref.hypotheses] == [h.truncated for h in new.hypotheses], where


class TestSearch:
    def test_greedy_matches_reference(self, cases):
        for mode, hidden, model, _, srs in cases:
            for n, sr in enumerate(srs):
                assert_same_search(ref_generation.greedy_decode(reference(model), sr,
                                                                max_length=30),
                                   generation.greedy_decode(model, sr, max_length=30),
                                   f"greedy {mode} hidden {hidden} sr {n}")

    def test_beam10_matches_reference(self, cases):
        for mode, hidden, model, _, srs in cases:
            for n, sr in enumerate(srs):
                assert_same_search(
                    ref_generation.beam_decode(reference(model), sr, beam_size=10,
                                               max_length=30),
                    generation.beam_decode(model, sr, beam_size=10, max_length=30),
                    f"beam 10 {mode} hidden {hidden} sr {n}")

    def test_sr_without_a_label_in_some_layer(self):
        """A bare act has no slot and an empty SR no domain to attend over.
        Where the reference decodes such an SR, the search gives the same
        result; where the reference raises (it extended a hypothesis with
        "@"), the search decodes without "@"."""
        ontology = Ontology({"hotel": {"inform": {"area": "informable"}, "bye": {}}})
        srs = [SemanticRepresentation([SrEntry("hotel", "bye", None, None)], ontology),
               SemanticRepresentation([SrEntry("hotel", "inform", None, None)], ontology),
               SemanticRepresentation([], ontology)]
        raised = 0
        for words, seed in itertools.product((["hello"], [f"w{i}" for i in range(20)]), range(4)):
            vocab = Vocabulary.build([words], placeholder_only=True)
            rng = np.random.default_rng(seed)
            model = Model.create("tree+att", ontology, vocab, 8, rng, 0.8)
            model.params["dec.out.w"][vocab.index["@"]] += 2.0 * seed * np.sign(
                rng.normal(size=8))
            for (n, sr), beam in itertools.product(enumerate(srs), (1, 3, 10)):
                where = f"{len(words)} words, seed {seed}, sr {n}, beam {beam}"
                new = generation.beam_decode(model, sr, beam_size=beam, max_length=15)
                assert new.hypotheses, where
                assert not any("@" in h.delex_text for h in new.hypotheses), where
                try:
                    ref = ref_generation.beam_decode(reference(model), sr, beam_size=beam,
                                                     max_length=15)
                except ContractError:
                    raised += 1
                    continue
                assert_same_search(ref, new, where)
        assert 0 < raised < 2 * 4 * len(srs) * 3

    def test_one_step_call_per_time_step(self, cases, monkeypatch):
        rows_per_call = []

        def counting_step(binding, x, state, *args, **kwargs):
            rows_per_call.append(x.shape[0])
            return step(binding, x, state, *args, **kwargs)

        monkeypatch.setattr(generation, "step", counting_step)
        # The end token never wins, so the search runs all max_length steps.
        _, hidden, model, _, srs = cases[0]
        stuck = zeroed_model(model.ontology, words=("blah", "more"))
        stuck.params["flat.b"] = np.ones(6)
        stuck.params["dec.out.w"][stuck.vocab.eos_id] = -np.ones(6)
        result = generation.beam_decode(stuck, srs[0], beam_size=3, max_length=7)
        assert result.top.truncated
        assert len(rows_per_call) == 7
        assert rows_per_call == [1, 3, 3, 3, 3, 3, 3]

        # On a random model, the stacked rows are exactly the reference's
        # per-hypothesis step calls.
        ref_calls = []

        def counting_ref_step(binding, x, state, *args, **kwargs):
            ref_calls.append(1)
            return ref_decoder.step(binding, x, state, *args, **kwargs)

        monkeypatch.setattr(ref_generation, "step", counting_ref_step)
        rows_per_call.clear()
        generation.beam_decode(model, srs[1], beam_size=10, max_length=30)
        ref_generation.beam_decode(reference(model), srs[1], beam_size=10, max_length=30)
        assert sum(rows_per_call) == len(ref_calls)
        assert len(rows_per_call) <= 30
