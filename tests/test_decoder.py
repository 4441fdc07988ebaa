import numpy as np
import pytest

from treenlg.decoder import (
    AttentionDists,
    AttentionTrace,
    DecoderState,
    attend,
    init_decoder_params,
    make_feedback_input,
    resolve_placeholder,
    step,
)
from treenlg.engine import ParamBinding, Tape
from treenlg.errors import ContractError
from treenlg.semantics import Ontology, REQUEST, SemanticRepresentation, SrEntry
from treenlg.tree import EncodedTree, LabelStates, build_tree, encode, init_encoder_params


@pytest.fixture
def ontology():
    return Ontology({
        "attraction": {
            "inform": {"options": "informable", "type": "informable",
                       "area": "informable"},
            "request": {"price": "requestable"},
        },
        "hotel": {
            "inform": {"area": "informable"},
        },
    })


def arrays(dists):
    """Copies of the domain, act and slot distributions."""
    return tuple(n.value.copy() for n in (dists.domain, dists.act, dists.slot))


def zero_params(vocab, hidden, feedback):
    params = init_decoder_params(vocab, hidden, feedback, np.random.default_rng(0))
    return {k: np.zeros_like(v) for k, v in params.items()}


class TestStep:
    def test_zero_params_halve_semantic_state(self):
        hidden, vocab, feedback = 3, 5, 4
        params = zero_params(vocab, hidden, feedback)
        tape = Tape(recording=False)
        binding = ParamBinding(tape, params)
        v = np.array([0.4, -0.8, 0.2])
        state = DecoderState(h=tape.leaf(np.zeros(hidden)),
                             c=tape.leaf(np.zeros(hidden)),
                             s=tape.leaf(v))
        x = tape.leaf(np.zeros(hidden + feedback))
        new_state, probs = step(binding, x, state)
        assert new_state.s.value == pytest.approx(0.5 * v)
        # h = 0.5*tanh(0) + 0.5*tanh(0.5 v)
        assert new_state.h.value == pytest.approx(0.5 * np.tanh(0.5 * v))
        assert probs.value == pytest.approx(np.full(vocab, 1.0 / vocab))

    def test_hidden_state_strictly_inside_unit_box(self):
        rng = np.random.default_rng(1)
        hidden, vocab, feedback = 6, 4, 5
        params = init_decoder_params(vocab, hidden, feedback, rng, scale=2.0)
        tape = Tape(recording=False)
        binding = ParamBinding(tape, params)
        state = DecoderState(h=tape.leaf(rng.normal(size=hidden)),
                             c=tape.leaf(rng.normal(size=hidden) * 10),
                             s=tape.leaf(rng.normal(size=hidden) * 10))
        x = tape.leaf(rng.normal(size=hidden + feedback) * 10)
        new_state, _ = step(binding, x, state)
        assert np.all(np.abs(new_state.h.value) < 1.0)

    def test_dimension_mismatch(self):
        params = zero_params(4, 3, 2)
        tape = Tape(recording=False)
        binding = ParamBinding(tape, params)
        state = DecoderState(h=tape.leaf(np.zeros(3)), c=tape.leaf(np.zeros(3)),
                             s=tape.leaf(np.zeros(3)))
        from treenlg.errors import DimensionError

        with pytest.raises(DimensionError):
            step(binding, tape.leaf(np.zeros(9)), state)


def encoded_with_states(tape, layer_states, ontology):
    """A one-tree encoding holding the given label states in the encoder's
    layout: per layer, the labels in sorted order as the rows of one
    [labels, H] leaf."""
    index_of = {"domain": ontology.domain_index, "act": ontology.act_index,
                "slot": ontology.slot_index}
    labels = {}
    for layer, states in layer_states.items():
        names = sorted(states)
        if names:
            labels[layer] = LabelStates(
                tape.leaf(np.array([states[n] for n in names], dtype=float)), names,
                np.array([index_of[layer](n) for n in names]), np.array([len(names)]))
    return EncodedTree(tape.leaf(np.zeros(2)), labels, tape)


class TestAttend:
    def test_single_node_distribution(self, ontology):
        tape = Tape(recording=False)
        s = tape.leaf([1.0, 2.0])
        enc = encoded_with_states(tape, {
            "domain": {"attraction": [3.0, 4.0]},
            "act": {"inform": [1.0, 0.0]},
            "slot": {"area": [0.0, 1.0]},
        }, ontology)
        dists = attend(s, enc, ontology)
        d_idx = ontology.domain_index("attraction")
        assert dists.domain.value[d_idx] == pytest.approx(1.0)
        assert dists.domain.value.sum() == pytest.approx(1.0)

    def test_equal_states_uniform(self, ontology):
        tape = Tape(recording=False)
        s = tape.leaf([0.3, -0.7])
        enc = encoded_with_states(tape, {
            "domain": {"attraction": [1.0, 1.0], "hotel": [1.0, 1.0]},
            "act": {"inform": [1.0, 0.0]},
            "slot": {"area": [0.0, 1.0]},
        }, ontology)
        dists = attend(s, enc, ontology)
        assert dists.domain.value[ontology.domain_index("attraction")] == pytest.approx(0.5)
        assert dists.domain.value[ontology.domain_index("hotel")] == pytest.approx(0.5)

    def test_hand_softmax_over_three_slots(self, ontology):
        tape = Tape(recording=False)
        s = tape.leaf([1.0])
        enc = encoded_with_states(tape, {
            "domain": {"attraction": [1.0]},
            "act": {"inform": [1.0]},
            "slot": {"area": [1.0], "options": [2.0], "type": [3.0]},
        }, ontology)
        dists = attend(s, enc, ontology)
        scores = np.array([1.0, 2.0, 3.0])
        expected = np.exp(scores - scores.max())
        expected /= expected.sum()
        # canonical slot order: area, options, price, type
        got = dists.slot.value
        assert got[ontology.slot_index("area")] == pytest.approx(expected[0])
        assert got[ontology.slot_index("options")] == pytest.approx(expected[1])
        assert got[ontology.slot_index("type")] == pytest.approx(expected[2])
        assert got[ontology.slot_index("price")] == 0.0

    def test_empty_layer_rejected(self, ontology):
        tape = Tape(recording=False)
        enc = encoded_with_states(tape, {"domain": {}, "act": {}, "slot": {}}, ontology)
        with pytest.raises(ContractError):
            attend(tape.leaf([1.0, 0.0]), enc, ontology)

    def test_distributions_are_probability_vectors(self, ontology):
        rng = np.random.default_rng(5)
        params = init_encoder_params(ontology, hidden=4, rng=rng)
        index = {tok: i for i, tok in enumerate(ontology.embedding_tokens())}
        sr = SemanticRepresentation(
            [SrEntry("attraction", "inform", "options", "five"),
             SrEntry("attraction", "inform", "area", "west"),
             SrEntry("attraction", "request", "price", REQUEST)], ontology)
        tape = Tape(recording=False)
        enc = encode(build_tree(sr, ontology), ParamBinding(tape, params), index)
        dists = attend(tape.leaf(rng.normal(size=4)), enc, ontology)
        for vec in arrays(dists):
            assert np.all(vec >= 0.0)
            assert abs(vec.sum() - 1.0) <= 1e-12

    def test_positive_scaling_keeps_argmax(self, ontology):
        rng = np.random.default_rng(9)
        for trial in range(10):
            tape = Tape(recording=False)
            enc = encoded_with_states(tape, {
                "domain": {"attraction": rng.normal(size=2), "hotel": rng.normal(size=2)},
                "act": {"inform": rng.normal(size=2), "request": rng.normal(size=2)},
                "slot": {"area": rng.normal(size=2), "type": rng.normal(size=2)},
            }, ontology)
            q = rng.normal(size=2)
            base = attend(tape.leaf(q), enc, ontology)
            scaled = attend(tape.leaf(q * 7.3), enc, ontology)
            t1 = resolve_placeholder(0, *arrays(base), ontology).triple
            t2 = resolve_placeholder(0, *arrays(scaled), ontology).triple
            assert t1 == t2


class TestAssemble:
    def dists_for(self, ontology, tape, domain_vec, act_vec, slot_vec):
        return AttentionDists(tape.leaf(domain_vec), tape.leaf(act_vec), tape.leaf(slot_vec))

    def test_argmax_forms_token(self, ontology):
        tape = Tape(recording=False)
        d = np.zeros(len(ontology.domains)); d[ontology.domain_index("attraction")] = 1.0
        a = np.zeros(len(ontology.acts)); a[ontology.act_index("inform")] = 1.0
        s = np.zeros(len(ontology.slots)); s[ontology.slot_index("area")] = 1.0
        entry = resolve_placeholder(3, *arrays(self.dists_for(ontology, tape, d, a, s)),
                                    ontology)
        triple = entry.triple
        assert triple == ("attraction", "inform", "area")
        assert f"@{'-'.join(triple)}" == "@attraction-inform-area"
        assert entry.step == 3

    def test_tie_breaks_to_canonical_first(self, ontology):
        tape = Tape(recording=False)
        d = np.full(len(ontology.domains), 0.5)
        a = np.zeros(len(ontology.acts)); a[0] = 1.0
        s = np.zeros(len(ontology.slots)); s[0] = 1.0
        entry = resolve_placeholder(0, *arrays(self.dists_for(ontology, tape, d, a, s)),
                                    ontology)
        assert entry.triple[0] == ontology.domains[0]

    def test_trace_records_full_distributions(self, ontology):
        tape = Tape(recording=False)
        d = np.zeros(len(ontology.domains)); d[0] = 0.75; d[1] = 0.25
        a = np.zeros(len(ontology.acts)); a[0] = 1.0
        s = np.zeros(len(ontology.slots)); s[0] = 1.0
        entry = resolve_placeholder(0, *arrays(self.dists_for(ontology, tape, d, a, s)),
                                    ontology)
        assert entry.domain_dist.tolist() == d.tolist()
        trace = AttentionTrace([entry])
        assert trace.matrix("domain").shape == (1, len(ontology.domains))


class TestFeedback:
    def test_plain_word_gets_zero_block(self, ontology):
        params = init_decoder_params(6, 4, ontology.feedback_size, np.random.default_rng(0))
        tape = Tape(recording=False)
        binding = ParamBinding(tape, params)
        x = make_feedback_input(2, None, binding, ontology.feedback_size)
        assert x.shape == (4 + ontology.feedback_size,)
        assert np.array_equal(x.value[4:], np.zeros(ontology.feedback_size))

    def test_distribution_block_concatenated(self, ontology):
        params = init_decoder_params(6, 4, ontology.feedback_size, np.random.default_rng(0))
        tape = Tape(recording=False)
        binding = ParamBinding(tape, params)
        nd, na, ns = len(ontology.domains), len(ontology.acts), len(ontology.slots)
        dists = AttentionDists(tape.leaf(np.full(nd, 1.0 / nd)),
                               tape.leaf(np.full(na, 1.0 / na)),
                               tape.leaf(np.full(ns, 1.0 / ns)))
        x = make_feedback_input(1, dists, binding, ontology.feedback_size)
        block = x.value[4:]
        assert block.size == nd + na + ns
        assert block[:nd] == pytest.approx(np.full(nd, 1.0 / nd))
        assert block[nd:nd + na] == pytest.approx(np.full(na, 1.0 / na))


class TestForwardOnly:
    def test_kernels_refuse_a_recording_tape(self, ontology):
        """The kernels register no op: on a recording tape their gradients
        would be lost without a trace, so they raise instead."""
        params = init_decoder_params(6, 4, ontology.feedback_size, np.random.default_rng(0))
        tape = Tape()
        binding = ParamBinding(tape, params)
        state = DecoderState(*(tape.leaf(np.zeros(4)) for _ in range(3)))
        with pytest.raises(ContractError):
            make_feedback_input(1, None, binding, ontology.feedback_size)
        with pytest.raises(ContractError):
            step(binding, tape.leaf(np.zeros(4 + ontology.feedback_size)), state)
        enc = encoded_with_states(tape, {"domain": {"hotel": [1.0]}, "act": {"inform": [1.0]},
                                         "slot": {"area": [1.0]}}, ontology)
        with pytest.raises(ContractError):
            attend(tape.leaf([1.0]), enc, ontology)
        assert tape.nodes and all(node.vjp is None for node in tape.nodes)

