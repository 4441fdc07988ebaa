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
from treenlg.engine import Node, ParamBinding, Tape
from treenlg.errors import ContractError, DomainError
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
    return tuple(v.copy() for v in (dists.domain, dists.act, dists.slot))


def trace_matrix(trace, layer):
    """One layer's distributions of a trace, one row per entry."""
    if not trace.entries:
        return np.zeros((0, 0))
    return np.stack([getattr(e, f"{layer}_dist") for e in trace.entries])


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
        state = DecoderState(h=np.zeros(hidden), c=np.zeros(hidden), s=v)
        x = np.zeros(hidden + feedback)
        new_state, probs = step(binding, x, state)
        assert new_state.s == pytest.approx(0.5 * v)
        # h = 0.5*tanh(0) + 0.5*tanh(0.5 v)
        assert new_state.h == pytest.approx(0.5 * np.tanh(0.5 * v))
        assert probs.value == pytest.approx(np.full(vocab, 1.0 / vocab))

    def test_hidden_state_strictly_inside_unit_box(self):
        rng = np.random.default_rng(1)
        hidden, vocab, feedback = 6, 4, 5
        params = init_decoder_params(vocab, hidden, feedback, rng, scale=2.0)
        tape = Tape(recording=False)
        binding = ParamBinding(tape, params)
        state = DecoderState(h=rng.normal(size=hidden),
                             c=rng.normal(size=hidden) * 10,
                             s=rng.normal(size=hidden) * 10)
        x = rng.normal(size=hidden + feedback) * 10
        new_state, _ = step(binding, x, state)
        assert np.all(np.abs(new_state.h) < 1.0)

    def test_dimension_mismatch(self):
        params = zero_params(4, 3, 2)
        tape = Tape(recording=False)
        binding = ParamBinding(tape, params)
        state = DecoderState(h=np.zeros(3), c=np.zeros(3), s=np.zeros(3))
        from treenlg.errors import DimensionError

        with pytest.raises(DimensionError):
            step(binding, np.zeros(9), state)


def encoded_with_states(layer_states, ontology):
    """A one-tree encoding holding the given label states in the encoder's
    layout: per layer, the labels in sorted order as the rows of one
    [labels, H] array."""
    index_of = {"domain": ontology.domain_index, "act": ontology.act_index,
                "slot": ontology.slot_index}
    labels = {}
    for layer, states in layer_states.items():
        names = sorted(states)
        if names:
            labels[layer] = LabelStates(
                np.array([states[n] for n in names], dtype=float), names,
                np.array([index_of[layer](n) for n in names]), np.array([len(names)]))
    return EncodedTree(Node(np.zeros(2)), labels)


class TestAttend:
    def test_single_node_distribution(self, ontology):
        s = np.array([1.0, 2.0])
        enc = encoded_with_states({
            "domain": {"attraction": [3.0, 4.0]},
            "act": {"inform": [1.0, 0.0]},
            "slot": {"area": [0.0, 1.0]},
        }, ontology)
        dists = attend(s, enc, ontology)
        d_idx = ontology.domain_index("attraction")
        assert dists.domain[d_idx] == pytest.approx(1.0)
        assert dists.domain.sum() == pytest.approx(1.0)

    def test_equal_states_uniform(self, ontology):
        s = np.array([0.3, -0.7])
        enc = encoded_with_states({
            "domain": {"attraction": [1.0, 1.0], "hotel": [1.0, 1.0]},
            "act": {"inform": [1.0, 0.0]},
            "slot": {"area": [0.0, 1.0]},
        }, ontology)
        dists = attend(s, enc, ontology)
        assert dists.domain[ontology.domain_index("attraction")] == pytest.approx(0.5)
        assert dists.domain[ontology.domain_index("hotel")] == pytest.approx(0.5)

    def test_hand_softmax_over_three_slots(self, ontology):
        s = np.array([1.0])
        enc = encoded_with_states({
            "domain": {"attraction": [1.0]},
            "act": {"inform": [1.0]},
            "slot": {"area": [1.0], "options": [2.0], "type": [3.0]},
        }, ontology)
        dists = attend(s, enc, ontology)
        scores = np.array([1.0, 2.0, 3.0])
        expected = np.exp(scores - scores.max())
        expected /= expected.sum()
        # canonical slot order: area, options, price, type
        got = dists.slot
        assert got[ontology.slot_index("area")] == pytest.approx(expected[0])
        assert got[ontology.slot_index("options")] == pytest.approx(expected[1])
        assert got[ontology.slot_index("type")] == pytest.approx(expected[2])
        assert got[ontology.slot_index("price")] == 0.0

    def test_empty_layer_rejected(self, ontology):
        enc = encoded_with_states({"domain": {}, "act": {}, "slot": {}}, ontology)
        with pytest.raises(ContractError):
            attend(np.array([1.0, 0.0]), enc, ontology)

    def test_non_finite_distributions_rejected(self, ontology):
        """Scores that overflow to +inf make a NaN softmax: the kernel's one
        check on its distributions raises instead of returning them."""
        enc = encoded_with_states({
            "domain": {"attraction": [2.0], "hotel": [3.0]},
            "act": {"inform": [1.0]},
            "slot": {"area": [1.0]},
        }, ontology)
        with np.errstate(all="ignore"), \
                pytest.raises(DomainError, match="attention distributions"):
            attend(np.array([1e308]), enc, ontology)

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
        dists = attend(rng.normal(size=4), enc, ontology)
        for vec in arrays(dists):
            assert np.all(vec >= 0.0)
            assert abs(vec.sum() - 1.0) <= 1e-12

    def test_positive_scaling_keeps_argmax(self, ontology):
        rng = np.random.default_rng(9)
        for trial in range(10):
            enc = encoded_with_states({
                "domain": {"attraction": rng.normal(size=2), "hotel": rng.normal(size=2)},
                "act": {"inform": rng.normal(size=2), "request": rng.normal(size=2)},
                "slot": {"area": rng.normal(size=2), "type": rng.normal(size=2)},
            }, ontology)
            q = rng.normal(size=2)
            base = attend(q, enc, ontology)
            scaled = attend(q * 7.3, enc, ontology)
            t1 = resolve_placeholder(0, *arrays(base), ontology).triple
            t2 = resolve_placeholder(0, *arrays(scaled), ontology).triple
            assert t1 == t2


class TestAssemble:

    def test_argmax_forms_token(self, ontology):
        d = np.zeros(len(ontology.domains)); d[ontology.domain_index("attraction")] = 1.0
        a = np.zeros(len(ontology.acts)); a[ontology.act_index("inform")] = 1.0
        s = np.zeros(len(ontology.slots)); s[ontology.slot_index("area")] = 1.0
        entry = resolve_placeholder(3, *arrays(AttentionDists(d, a, s)), ontology)
        triple = entry.triple
        assert triple == ("attraction", "inform", "area")
        assert f"@{'-'.join(triple)}" == "@attraction-inform-area"
        assert entry.step == 3

    def test_tie_breaks_to_canonical_first(self, ontology):
        d = np.full(len(ontology.domains), 0.5)
        a = np.zeros(len(ontology.acts)); a[0] = 1.0
        s = np.zeros(len(ontology.slots)); s[0] = 1.0
        entry = resolve_placeholder(0, *arrays(AttentionDists(d, a, s)), ontology)
        assert entry.triple[0] == ontology.domains[0]

    def test_trace_records_full_distributions(self, ontology):
        d = np.zeros(len(ontology.domains)); d[0] = 0.75; d[1] = 0.25
        a = np.zeros(len(ontology.acts)); a[0] = 1.0
        s = np.zeros(len(ontology.slots)); s[0] = 1.0
        entry = resolve_placeholder(0, *arrays(AttentionDists(d, a, s)), ontology)
        assert entry.domain_dist.tolist() == d.tolist()
        trace = AttentionTrace([entry])
        assert trace_matrix(trace, "domain").shape == (1, len(ontology.domains))


class TestFeedback:
    def test_plain_word_gets_zero_block(self, ontology):
        params = init_decoder_params(6, 4, ontology.feedback_size, np.random.default_rng(0))
        tape = Tape(recording=False)
        binding = ParamBinding(tape, params)
        x = make_feedback_input(2, None, binding, ontology.feedback_size)
        assert x.shape == (4 + ontology.feedback_size,)
        assert np.array_equal(x[4:], np.zeros(ontology.feedback_size))

    def test_distribution_block_concatenated(self, ontology):
        params = init_decoder_params(6, 4, ontology.feedback_size, np.random.default_rng(0))
        tape = Tape(recording=False)
        binding = ParamBinding(tape, params)
        nd, na, ns = len(ontology.domains), len(ontology.acts), len(ontology.slots)
        dists = AttentionDists(np.full(nd, 1.0 / nd), np.full(na, 1.0 / na),
                               np.full(ns, 1.0 / ns))
        x = make_feedback_input(1, dists, binding, ontology.feedback_size)
        block = x[4:]
        assert block.size == nd + na + ns
        assert block[:nd] == pytest.approx(np.full(nd, 1.0 / nd))
        assert block[nd:nd + na] == pytest.approx(np.full(na, 1.0 / na))


class TestForwardOnly:
    def test_kernels_refuse_a_recording_tape(self, ontology):
        """The kernels that read the weights from a binding register no op:
        on a recording tape their gradients would be lost without a trace,
        so they raise instead."""
        params = init_decoder_params(6, 4, ontology.feedback_size, np.random.default_rng(0))
        tape = Tape()
        binding = ParamBinding(tape, params)
        state = DecoderState(*(np.zeros(4) for _ in range(3)))
        with pytest.raises(ContractError):
            make_feedback_input(1, None, binding, ontology.feedback_size)
        with pytest.raises(ContractError):
            step(binding, np.zeros(4 + ontology.feedback_size), state)
        assert tape.nodes == []

