import math

import numpy as np
import pytest

from treenlg.engine import ParamBinding, Tape
from treenlg.semantics import (
    NO_SLOT_PROPERTY,
    NO_SLOT_TOKEN,
    REQUEST,
    Ontology,
    SemanticRepresentation,
    SrEntry,
)
from treenlg.tree import (
    build_tree,
    encode,
    encode_flat,
    init_encoder_params,
    init_flat_params,
    triple_indicator,
)


def leaves(tree):
    return [i for i, n in enumerate(tree.nodes) if not n.children]


def depth(tree, i):
    d = 0
    while tree.nodes[i].parent is not None:
        i = tree.nodes[i].parent
        d += 1
    return d


def check_depths(tree):
    """Every activated leaf sits at depth 4 (root, domain, act, slot, property)."""
    assert [depth(tree, i) for i in leaves(tree)] == [4] * len(leaves(tree))


def to_entries(tree):
    """The SR's (domain, act, slot) structure, read back from the tree."""
    out = set()
    for i in leaves(tree):
        slot_node = tree.nodes[tree.nodes[i].parent]
        act_node = tree.nodes[slot_node.parent]
        domain_node = tree.nodes[act_node.parent]
        slot = None if slot_node.token == NO_SLOT_TOKEN else slot_node.token
        out.add((domain_node.token, act_node.token, slot))
    return out


def token_index_of(ontology):
    return {tok: i for i, tok in enumerate(ontology.embedding_tokens())}


@pytest.fixture
def ontology():
    return Ontology({
        "attraction": {
            "inform": {"options": "informable", "type": "informable",
                       "area": "informable"},
            "request": {"price": "requestable"},
        },
        "restaurant": {
            "suggest": {"name": "informable"},
            "reqmore": {},
        },
    })


def sr_of(ontology, *quads):
    return SemanticRepresentation([SrEntry(*q) for q in quads], ontology)


class TestBuildTree:
    def test_single_entry_five_nodes(self, ontology):
        sr = sr_of(ontology, ("restaurant", "suggest", "name", "golden house"))
        tree = build_tree(sr, ontology)
        assert [n.token for n in tree.nodes] == [
            "<root>", "restaurant", "suggest", "name", "informable"]
        assert [n.layer for n in tree.nodes] == [
            "root", "domain", "act", "slot", "property"]

    def test_three_informs_one_request(self, ontology):
        sr = sr_of(ontology,
                   ("attraction", "inform", "options", "five"),
                   ("attraction", "inform", "type", "colleges"),
                   ("attraction", "inform", "area", "west"),
                   ("attraction", "request", "price", REQUEST))
        tree = build_tree(sr, ontology)
        by_layer = {}
        for n in tree.nodes:
            by_layer[n.layer] = by_layer.get(n.layer, 0) + 1
        assert by_layer == {"root": 1, "domain": 1, "act": 2, "slot": 4, "property": 4}
        check_depths(tree)

    def test_reconstruction_matches_sr(self, ontology):
        sr = sr_of(ontology,
                   ("attraction", "inform", "area", "west"),
                   ("attraction", "request", "price", REQUEST),
                   ("restaurant", "reqmore", None, None))
        tree = build_tree(sr, ontology)
        expected = {(e.domain, e.act, e.slot) for e in sr}
        assert to_entries(tree) == expected

    def test_bare_act_gets_noslot_path(self, ontology):
        sr = sr_of(ontology, ("restaurant", "reqmore", None, None))
        tree = build_tree(sr, ontology)
        tokens = [n.token for n in tree.nodes]
        assert NO_SLOT_TOKEN in tokens and NO_SLOT_PROPERTY in tokens
        check_depths(tree)

    def test_repeated_triple_single_slot_node(self, tmp_path):
        ont = Ontology({"hotel": {"select": {"type": "informable"}}})
        sr = SemanticRepresentation(
            [SrEntry("hotel", "select", "type", "guesthouse"),
             SrEntry("hotel", "select", "type", "motel")], ont)
        tree = build_tree(sr, ont)
        assert sum(1 for n in tree.nodes if n.layer == "slot") == 1

    def test_children_canonically_sorted(self, ontology):
        sr1 = sr_of(ontology,
                    ("attraction", "inform", "type", "colleges"),
                    ("attraction", "inform", "area", "west"))
        sr2 = sr_of(ontology,
                    ("attraction", "inform", "area", "west"),
                    ("attraction", "inform", "type", "colleges"))
        t1, t2 = build_tree(sr1, ontology), build_tree(sr2, ontology)
        assert [n.token for n in t1.nodes] == [n.token for n in t2.nodes]


class TestEncode:
    def test_zero_params_give_zero_states(self, ontology):
        sr = sr_of(ontology,
                   ("attraction", "inform", "options", "five"),
                   ("attraction", "request", "price", REQUEST))
        tree = build_tree(sr, ontology)
        params = init_encoder_params(ontology, hidden=4, rng=np.random.default_rng(0))
        for key in params:
            params[key] = np.zeros_like(params[key])
        tape = Tape()
        enc = encode(tree, ParamBinding(tape, params), token_index_of(ontology))
        for h, c in enc.node_states.values():
            assert np.array_equal(h.value, np.zeros(4))
            assert np.array_equal(c.value, np.zeros(4))

    def test_hand_evaluated_chain(self):
        # One-dimensional params on a single root-to-leaf chain, checked
        # against a by-hand evaluation of the same transition equations.
        ont = Ontology({"restaurant": {"suggest": {"name": "informable"}}})
        sr = SemanticRepresentation(
            [SrEntry("restaurant", "suggest", "name", "golden house")], ont)
        tree = build_tree(sr, ont)
        index = token_index_of(ont)

        emb = np.zeros((len(index), 1))
        values = {"<root>": 0.3, "restaurant": -0.2, "suggest": 0.5,
                  "name": 0.1, "informable": 0.7}
        for tok, val in values.items():
            emb[index[tok], 0] = val
        params = {"enc.emb": emb}
        mats = {"i": (0.4, 0.6, 0.05), "f": (-0.3, 0.2, 0.0),
                "o": (0.7, -0.5, 0.1), "g": (0.9, 0.4, -0.2)}
        # One row per gate of each stack, in i, f, o, g order.
        w, u, b = np.array(list(mats.values())).T
        params["enc.e"], params["enc.h"], params["enc.b"] = w[:, None], u[:, None], b

        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        h_prev = c_prev = None
        for tok in ["informable", "name", "suggest", "restaurant", "<root>"]:
            e = values[tok]
            h_tilde = h_prev if h_prev is not None else 0.0
            c_tilde = c_prev if c_prev is not None else 0.0
            i = sig(mats["i"][0] * e + mats["i"][1] * h_tilde + mats["i"][2])
            f = sig(mats["f"][0] * e + mats["f"][1] * h_tilde + mats["f"][2])
            o = sig(mats["o"][0] * e + mats["o"][1] * h_tilde + mats["o"][2])
            g = math.tanh(mats["g"][0] * e + mats["g"][1] * h_tilde + mats["g"][2])
            c_prev = i * g + f * c_tilde
            h_prev = o * math.tanh(c_prev)

        tape = Tape()
        enc = encode(tree, ParamBinding(tape, params), index)
        assert enc.embedding.value[0] == pytest.approx(h_prev, rel=1e-12)

    def test_child_permutation_bitwise_invariant(self, ontology):
        rng = np.random.default_rng(42)
        params = init_encoder_params(ontology, hidden=8, rng=rng)
        index = token_index_of(ontology)
        for _ in range(20):
            entries = [("attraction", "inform", "options", "five"),
                       ("attraction", "inform", "type", "colleges"),
                       ("attraction", "inform", "area", "west"),
                       ("attraction", "request", "price", REQUEST)]
            perm = rng.permutation(len(entries))
            sr1 = sr_of(ontology, *entries)
            sr2 = sr_of(ontology, *[entries[i] for i in perm])
            e1 = encode(build_tree(sr1, ontology), ParamBinding(Tape(), params), index)
            e2 = encode(build_tree(sr2, ontology), ParamBinding(Tape(), params), index)
            assert np.array_equal(e1.embedding.value, e2.embedding.value)

    def test_shared_subtree_states_identical(self, ontology):
        params = init_encoder_params(ontology, hidden=6, rng=np.random.default_rng(1))
        index = token_index_of(ontology)
        sr1 = sr_of(ontology, ("attraction", "inform", "area", "west"))
        sr2 = sr_of(ontology,
                    ("attraction", "inform", "area", "west"),
                    ("restaurant", "suggest", "name", "red lion"))
        t1, t2 = build_tree(sr1, ontology), build_tree(sr2, ontology)
        e1 = encode(t1, ParamBinding(Tape(), params), index)
        e2 = encode(t2, ParamBinding(Tape(), params), index)
        states1 = {t1.path(i): s for i, s in e1.node_states.items()}
        states2 = {t2.path(i): s for i, s in e2.node_states.items()}
        shared = ("<root>", "attraction", "inform", "area")
        # The whole attraction subtree is shared; the root is not (extra child).
        for path, (h1, c1) in states1.items():
            if path[:2] == shared[:2]:
                h2, c2 = states2[path]
                assert np.array_equal(h1.value, h2.value)
                assert np.array_equal(c1.value, c2.value)
        assert not np.array_equal(e1.embedding.value, e2.embedding.value)

    def test_embedding_gradients_match_finite_differences(self, ontology):
        rng = np.random.default_rng(3)
        params = init_encoder_params(ontology, hidden=3, rng=rng)
        index = token_index_of(ontology)
        sr = sr_of(ontology,
                   ("attraction", "inform", "type", "colleges"),
                   ("attraction", "request", "price", REQUEST))
        tree = build_tree(sr, ontology)
        probe = rng.normal(size=3)

        def loss_value():
            tape = Tape(recording=False)
            enc = encode(tree, ParamBinding(tape, params), index)
            return float(np.dot(enc.embedding.value, probe))

        tape = Tape()
        enc = encode(tree, ParamBinding(tape, params), index)
        weighted = probe_dot(tape, enc.embedding, probe)
        tape.backward(weighted)
        grads = tape.param_grads(params)

        h = 1e-5
        for name in ("enc.emb", "enc.e", "enc.h", "enc.b"):
            theta = params[name]
            flat = theta.reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = loss_value()
                flat[i] = orig - h
                fm = loss_value()
                flat[i] = orig
                numeric = (fp - fm) / (2 * h)
                denom = max(abs(gflat[i]), abs(numeric), 1.0)
                assert abs(gflat[i] - numeric) / denom <= 1e-4


def probe_dot(tape, node, const_vec):
    """<node, const_vec> as one op on the tape."""
    return tape.op(np.dot(node.value, const_vec), (node,), lambda g: (g * const_vec,))


class TestFlatBaseline:
    def test_empty_sr_gives_tanh_bias(self, ontology):
        params = init_flat_params(ontology, hidden=4, rng=np.random.default_rng(0))
        params["flat.b"] = np.array([0.5, -0.5, 0.0, 1.0])
        sr = SemanticRepresentation([], ontology)
        tape = Tape()
        enc = encode_flat(sr, ontology, ParamBinding(tape, params))
        assert enc.embedding.value == pytest.approx(np.tanh(params["flat.b"]))

    def test_indicator_single_coordinate_difference(self, ontology):
        sr1 = sr_of(ontology, ("attraction", "inform", "area", "west"))
        sr2 = sr_of(ontology,
                    ("attraction", "inform", "area", "west"),
                    ("attraction", "inform", "type", "colleges"))
        x1 = triple_indicator(sr1, ontology)
        x2 = triple_indicator(sr2, ontology)
        assert int(np.sum(np.abs(x1 - x2))) == 1

    def test_indicator_length(self, ontology):
        total = sum(len(slots) for acts in ontology.schema.values() for slots in acts.values())
        assert triple_indicator(SemanticRepresentation([], ontology), ontology).size == total
