import itertools

import numpy as np
import pytest

from treenlg import engine
from treenlg.decoder import initial_state, make_feedback_input, step
from treenlg.engine import ParamBinding, Tape
from treenlg.errors import ContractError, DomainError
from treenlg.generation import Hypothesis, _rank, beam_decode, greedy_decode
from treenlg.model import Model, Vocabulary
from treenlg.semantics import Ontology, SemanticRepresentation, SrEntry


@pytest.fixture
def ontology():
    return Ontology({
        "restaurant": {"inform": {"area": "informable", "name": "informable"}},
        "hotel": {"inform": {"area": "informable", "options": "informable"}},
    })


@pytest.fixture
def sr(ontology):
    return SemanticRepresentation(
        [SrEntry("restaurant", "inform", "area", "west"),
         SrEntry("restaurant", "inform", "name", "red lion")], ontology)


def random_model(ontology, seed, mode="tree+att", hidden=8, scale=0.8,
                 words=("in", "the", "a", "@", "is")):
    vocab = Vocabulary.build([list(words)], placeholder_only=mode == "tree+att")
    return Model.create(mode, ontology, vocab, hidden, np.random.default_rng(seed), scale)


def zeroed_model(ontology, mode="flat-baseline", words=()):
    vocab = Vocabulary.build([list(words)], placeholder_only=False)
    model = Model.create(mode, ontology, vocab, 6, np.random.default_rng(0))
    for key in model.params:
        model.params[key] = np.zeros_like(model.params[key])
    return model


class TestGreedyBeamEquivalence:
    def test_beam_one_equals_greedy_on_random_models(self, ontology, sr):
        for seed in range(20):
            model = random_model(ontology, seed)
            g = greedy_decode(model, sr, max_length=12)
            b = beam_decode(model, sr, beam_size=1, max_length=12)
            assert g.top.delex_text == b.top.delex_text
            assert g.top.score == pytest.approx(b.top.score, abs=1e-12)
            assert g.top.truncated == b.top.truncated

    def test_placeholders_resolved_somewhere(self, ontology, sr):
        total = sum(len(greedy_decode(random_model(ontology, seed), sr,
                                      max_length=12).top.trace.entries)
                    for seed in range(20))
        assert total > 0


class TestEnumerationOracle:
    def enumerate_best(self, model, sr, max_steps):
        """Brute force: drive the decoder over every token sequence of up to
        ``max_steps - 1`` content tokens followed by the end token."""
        vocab = model.vocab
        content_ids = [i for i in range(len(vocab)) if i != vocab.eos_id]
        best = (-np.inf, None)
        for length in range(max_steps):
            for seq in itertools.product(content_ids, repeat=length):
                tape = Tape(recording=False)
                binding = ParamBinding(tape, model.params)
                encoded = model.encode_sr(sr, binding)
                state = initial_state(encoded, model.hidden, binding)
                score = 0.0
                prev = vocab.sos_id
                for target in list(seq) + [vocab.eos_id]:
                    x = make_feedback_input(prev, None, binding,
                                            model.ontology.feedback_size)
                    state, probs = step(binding, x, state)
                    score += float(np.log(probs.value[target]))
                    prev = target
                if score > best[0]:
                    best = (score, seq)
        return best

    def test_beam_matches_exhaustive_enumeration(self, ontology, sr):
        # 3-word vocabulary (plus specials), sequences of at most 3 content
        # tokens; a beam wider than the whole candidate pool is exhaustive.
        for seed in (0, 1, 2):
            model = random_model(ontology, seed, mode="tree", words=("a", "b"),
                                 hidden=6, scale=0.9)
            best_score, best_seq = self.enumerate_best(model, sr, max_steps=4)
            result = beam_decode(model, sr, beam_size=128, max_length=4)
            got = result.top
            assert got.score == pytest.approx(best_score, abs=1e-9)
            assert got.delex_text == " ".join(model.vocab.tokens[i] for i in best_seq)

    def test_result_capped_at_beam_size(self, ontology, sr):
        model = random_model(ontology, 8)
        result = beam_decode(model, sr, beam_size=10, max_length=10)
        assert len(result.hypotheses) <= 10
        scores = [h.score for h in result.hypotheses]
        assert scores == sorted(scores, reverse=True)

    def test_larger_beam_never_scores_worse(self, ontology, sr):
        for seed in range(6):
            model = random_model(ontology, seed, hidden=6)
            best = -np.inf
            for beam in (1, 2, 4, 8):
                result = beam_decode(model, sr, beam_size=beam, max_length=10)
                top = result.top.score
                assert top >= best - 1e-12
                best = max(best, top)


class TestGreedy:
    def test_end_token_first_gives_empty_sentence(self, ontology, sr):
        model = zeroed_model(ontology)
        # Zero parameters except a positive encoder bias: the first hidden
        # state is a known positive constant, so an all-ones output row makes
        # the end token the argmax; every other logit stays zero.
        model.params["flat.b"] = np.ones(6)
        model.params["dec.out.w"][model.vocab.eos_id] = np.ones(6)
        result = greedy_decode(model, sr, max_length=5)
        assert result.top.delex_text == ""
        s0 = np.tanh(np.ones(6))
        h1 = 0.5 * np.tanh(0.5 * s0)
        logits = model.params["dec.out.w"] @ h1
        expected = np.exp(logits) / np.exp(logits).sum()
        assert result.top.score == pytest.approx(float(np.log(expected[model.vocab.eos_id])))

    def test_truncation_flagged(self, ontology, sr):
        model = zeroed_model(ontology, words=("blah",))
        model.params["flat.b"] = np.ones(6)
        model.params["dec.out.w"][model.vocab.eos_id] = -np.ones(6)
        result = greedy_decode(model, sr, max_length=3)
        assert result.top.truncated

    def test_trace_length_equals_placeholder_count(self, ontology, sr):
        for seed in (8, 9, 11, 18):
            model = random_model(ontology, seed)
            top = greedy_decode(model, sr, max_length=12).top
            n_placeholders = sum(1 for tok in top.delex_text.split()
                                 if tok.startswith("@"))
            assert len(top.trace.entries) == n_placeholders


class TestScores:
    def recompute_score(self, model, sr, delex_text):
        """Independent re-scoring: replay the emitted tokens step by step."""
        from treenlg.decoder import attend

        vocab = model.vocab
        tape = Tape(recording=False)
        binding = ParamBinding(tape, model.params)
        encoded = model.encode_sr(sr, binding)
        state = initial_state(encoded, model.hidden, binding)
        words = delex_text.split()
        ids = []
        for w in words:
            if model.uses_attention and w.startswith("@"):
                ids.append(vocab.id_of("@"))
            else:
                ids.append(vocab.id_of(w))
        total = 0.0
        prev = vocab.sos_id
        pending = None
        for token_id in ids + [vocab.eos_id]:
            x = make_feedback_input(prev, pending, binding, model.ontology.feedback_size)
            state, probs = step(binding, x, state)
            total += float(np.log(probs.value[token_id]))
            pending = None
            if model.uses_attention and token_id == vocab.id_of("@"):
                pending = attend(state.s, encoded, model.ontology)
            prev = token_id
        return total

    def test_score_is_sum_of_step_logprobs(self, ontology, sr):
        for seed in (3, 8, 9):
            model = random_model(ontology, seed)
            top = beam_decode(model, sr, beam_size=4, max_length=10).top
            if top.truncated:
                continue
            assert top.score == pytest.approx(
                self.recompute_score(model, sr, top.delex_text), abs=1e-9)


class TestRender:
    """Ranking lexicalizes every hypothesis against the SR."""

    @staticmethod
    def ranked(ontology, delex):
        sr = SemanticRepresentation(
            [SrEntry("hotel", "inform", "options", "two")], ontology)
        words = delex.split()
        model = zeroed_model(ontology, words=words)
        hyp = Hypothesis(tuple(model.vocab.encode(words)), -1.0, finished=True)
        return _rank(model, sr, [hyp], beam_size=1).top

    def test_value_substitution(self, ontology):
        top = self.ranked(ontology, "i have @hotel-inform-options options")
        assert top.delex_text == "i have @hotel-inform-options options"
        assert top.surface_text == "i have two options"
        assert top.flags == []

    def test_no_placeholders_unchanged(self, ontology):
        assert self.ranked(ontology, "plain words only").surface_text == "plain words only"

    def test_unlicensed_token_flagged_verbatim(self, ontology):
        top = self.ranked(ontology, "in the @hotel-inform-area")
        assert top.surface_text == "in the @hotel-inform-area"
        assert top.flags == ["@hotel-inform-area"]


class TestNothingToAttend:
    """An SR whose tree lacks a label in some attended layer: a bare act has
    no slot, an empty SR not even a domain.  The search never extends a
    hypothesis with "@" for it."""

    def pushed_model(self, ontology, seed=0):
        """Hidden 8, vocabulary {hello, @}, and the "@" row of the output
        projection pushed up, so that "@" is often the best token."""
        model = random_model(ontology, seed, words=("hello", "@"))
        rng = np.random.default_rng(seed)
        model.params["dec.out.w"][model.vocab.id_of("@")] += 5.0 * np.sign(rng.normal(size=8))
        return model

    def test_bare_act_and_empty_sr_decode_without_placeholder(self, ontology):
        srs = [SemanticRepresentation([SrEntry("restaurant", "inform", None, None)], ontology),
               SemanticRepresentation([], ontology)]
        placeholder_led = 0
        for seed in range(6):
            model = self.pushed_model(ontology, seed)
            for sr in srs:
                # The vocabulary (5 tokens) is smaller than the beam.
                for result in (greedy_decode(model, sr, max_length=10),
                               beam_decode(model, sr, beam_size=10, max_length=10)):
                    assert result.hypotheses
                    for hyp in result.hypotheses:
                        assert "@" not in hyp.delex_text.split()
                        assert not hyp.trace.entries
                placeholder_led += self.leads_with_placeholder(model, sr)
        assert placeholder_led  # "@" was the best first token somewhere

    @staticmethod
    def leads_with_placeholder(model, sr) -> bool:
        tape = Tape(recording=False)
        binding = ParamBinding(tape, model.params)
        state = initial_state(model.encode_sr(sr, binding), model.hidden, binding)
        x = make_feedback_input(model.vocab.sos_id, None, binding, model.ontology.feedback_size)
        _, probs = step(binding, x, state)
        return int(np.argmax(probs.value)) == model.vocab.id_of("@")

    def test_full_tree_still_emits_placeholders(self, ontology, sr):
        model = self.pushed_model(ontology)
        assert "@" in greedy_decode(model, sr, max_length=10).top.delex_text


def endless_model(ontology):
    """A model that never ends a sentence: saturated input, output and
    candidate gates keep every hidden unit above tanh(1), so an end-token
    output row of -30s keeps the end token last and a placeholder row of 2s
    makes "@" the favourite, which sends most steps through ``attend``."""
    model = random_model(ontology, 0)
    H, b, out = model.hidden, model.params["dec.b"], model.params["dec.out.w"]
    b[:H] = b[2 * H:4 * H] = 30.0
    out[model.vocab.eos_id] = -30.0
    out[model.vocab.index["@"]] = 2.0
    return model


class TestHotLoop:
    def test_no_checked_values_per_step(self, ontology, sr, monkeypatch):
        """The decode loop makes no tape values: only the encoder's ops are
        checked value by value (``_as_f64``), so a 40-step decode makes as
        many checks as a 10-step one."""
        model = endless_model(ontology)
        calls = []
        as_f64 = engine._as_f64
        monkeypatch.setattr(engine, "_as_f64", lambda value: calls.append(1) or as_f64(value))
        counts = {}
        for max_length in (10, 40):
            for beam in (1, 3):
                calls.clear()
                top = beam_decode(model, sr, beam_size=beam, max_length=max_length).top
                assert top.truncated and len(top.delex_text.split()) == max_length
                assert len(top.trace) > 0
                counts[beam, max_length] = len(calls)
        assert counts[1, 10] == counts[1, 40] == counts[3, 10] == counts[3, 40] > 0
        calls.clear()
        greedy_decode(model, sr, max_length=40)
        assert len(calls) == counts[1, 40]


class TestNonFinite:
    def test_search_stops_at_a_non_finite_step(self, ontology, sr):
        """A finite but huge input weight, against embedding entries of 2,
        makes products of +inf and -inf in every gate sum: the step's check
        on its word distributions raises instead of ranking NaN scores.
        (No attention in this mode, so no other check can catch it.)"""
        model = random_model(ontology, 0, mode="tree")
        wx = model.params["dec.x"]
        wx[:] = 1e308
        wx[:, 1::2] = -1e308
        model.params["dec.emb"][:] = 2.0
        for decode in (lambda: greedy_decode(model, sr, max_length=5),
                       lambda: beam_decode(model, sr, beam_size=3, max_length=5)):
            with np.errstate(all="ignore"), \
                    pytest.raises(DomainError, match="word distributions"):
                decode()


class TestValidation:
    def test_bad_beam_size(self, ontology, sr):
        model = random_model(ontology, 0)
        with pytest.raises(ContractError):
            beam_decode(model, sr, beam_size=0)
        with pytest.raises(ContractError):
            greedy_decode(model, sr, max_length=0)
