import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treenlg.engine import Tape, softmax
from treenlg.errors import ConfigError, ContractError
from treenlg.decoder import AttentionDists
from treenlg.model import (
    Model,
    Vocabulary,
    load_checkpoint,
    prepare_example,
    rng_stream,
    save_checkpoint,
    STREAM_INIT,
)
from treenlg.semantics import Corpus, Example, SemanticRepresentation, SrEntry
from treenlg.synth import SynthSpec, synth_corpus
from treenlg.training import (
    TrainConfig,
    att_loss,
    adapt,
    nll_loss,
    parse_results_csv,
    results_to_csv,
    run_matrix,
    sample_adaptation,
    teacher_forced,
    train,
)


@pytest.fixture(scope="module")
def small_corpus():
    spec = SynthSpec.default()
    spec.srs_per_domain = 20
    return synth_corpus(spec, seed=3)


def small_config(**overrides):
    base = dict(hidden=12, max_epochs=3, seed=1, batch_size=8, max_length=25,
                dropout=0.1)
    base.update(overrides)
    return TrainConfig(**base)


class TestLosses:
    def uniform_dists(self, tape, vocab_size, count):
        return [softmax(tape.leaf(np.zeros(vocab_size))) for _ in range(count)]

    def test_uniform_nll(self):
        tape = Tape()
        dists = self.uniform_dists(tape, 10, 4)
        loss = nll_loss(dists, [0, 3, 5, 9])
        assert float(loss.value) == pytest.approx(4 * math.log(10))

    def test_confident_nll_tends_to_zero(self):
        tape = Tape()
        logits = np.zeros(6)
        logits[2] = 30.0
        loss = nll_loss([softmax(tape.leaf(logits))], [2])
        assert float(loss.value) == pytest.approx(0.0, abs=1e-10)

    def test_quarter_probability(self):
        tape = Tape()
        loss = nll_loss([softmax(tape.leaf(np.zeros(4)))], [1])
        assert float(loss.value) == pytest.approx(math.log(4))

    def test_target_out_of_vocabulary(self):
        tape = Tape()
        with pytest.raises(ContractError):
            nll_loss([softmax(tape.leaf(np.zeros(4)))], [7])

    def test_att_loss_reduces_to_nll_without_placeholders(self):
        tape = Tape()
        nll = nll_loss(self.uniform_dists(tape, 4, 2), [0, 1])
        assert float(att_loss(nll, []).value) == float(nll.value)

    def test_att_loss_zero_penalty_at_certainty(self):
        tape = Tape()
        nll = nll_loss(self.uniform_dists(tape, 4, 1), [0])
        sure = AttentionDists(tape.leaf(np.array([1.0, 0.0])),
                              tape.leaf(np.array([0.0, 1.0])),
                              tape.leaf(np.array([1.0])))
        total = att_loss(nll, [(sure, (0, 1, 0))])
        assert float(total.value) == pytest.approx(float(nll.value))

    def test_att_loss_uniform_two_labels(self):
        tape = Tape()
        nll = nll_loss(self.uniform_dists(tape, 4, 1), [0])
        half = AttentionDists(tape.leaf(np.array([0.5, 0.5])),
                              tape.leaf(np.array([0.5, 0.5])),
                              tape.leaf(np.array([0.5, 0.5])))
        total = att_loss(nll, [(half, (0, 0, 1))])
        assert float(total.value) == pytest.approx(float(nll.value) + 3 * math.log(2))

    def test_att_objective_never_below_plain(self, small_corpus):
        corpus, ontology = small_corpus
        config = small_config()
        prep = [prepare_example(e, "tree+att", ontology) for e in corpus.split("train")[:6]]
        vocab = Vocabulary.build([p.tokens for p in prep], placeholder_only=True)
        model = Model.create("tree+att", ontology, vocab, config.hidden,
                             rng_stream(0, STREAM_INIT))
        for p in prep:
            fwd = teacher_forced(model, p, config, training=False, recording=False)
            assert float(fwd.loss.value) >= float(fwd.nll.value) - 1e-12


class TestTrainLoop:
    def test_first_epoch_improves_on_untrained(self, small_corpus):
        corpus, ontology = small_corpus
        config = small_config(max_epochs=1)
        prep = [prepare_example(e, config.mode, ontology) for e in corpus.split("train")]
        vocab = Vocabulary.build([p.tokens for p in prep], placeholder_only=True)
        untrained = Model.create(config.mode, ontology, vocab, config.hidden,
                                 rng_stream(config.seed, STREAM_INIT), config.init_scale)

        def mean_loss(model):
            return sum(float(teacher_forced(model, p, config, training=False,
                                            recording=False).loss.value)
                       for p in prep) / len(prep)

        before = mean_loss(untrained)
        outcome = train(corpus, config, ontology)
        after = mean_loss(outcome.checkpoint.model)
        assert after < before

    def test_identical_seeds_identical_logs(self, small_corpus):
        corpus, ontology = small_corpus
        a = train(corpus, small_config(), ontology)
        b = train(corpus, small_config(), ontology)
        assert a.log == b.log
        for name in a.checkpoint.model.params:
            assert np.array_equal(a.checkpoint.model.params[name],
                                  b.checkpoint.model.params[name])

    def test_empty_split_rejected(self, small_corpus):
        corpus, ontology = small_corpus
        empty = Corpus([e for e in corpus.examples if e.split == "train"], ontology)
        with pytest.raises(ConfigError):
            train(empty, small_config(), ontology)

    def test_best_checkpoint_selected_by_dev_ser(self, small_corpus):
        corpus, ontology = small_corpus
        outcome = train(corpus, small_config(max_epochs=4), ontology)
        best = outcome.checkpoint
        dev_sers = [entry["dev_ser"] for entry in outcome.log]
        assert best.dev_metrics["ser"] == min(dev_sers)

    def test_modes_all_trainable(self, small_corpus):
        corpus, ontology = small_corpus
        for mode in ("tree+att", "tree", "flat-baseline"):
            outcome = train(corpus, small_config(mode=mode, max_epochs=1), ontology)
            assert outcome.log[0]["train_loss"] > 0

    def test_vocabulary_invariant_per_mode(self, small_corpus):
        corpus, ontology = small_corpus
        att = train(corpus, small_config(max_epochs=1), ontology)
        tokens = att.checkpoint.model.vocab.tokens
        assert "@" in tokens
        assert not any(t.startswith("@") and len(t) > 1 for t in tokens)
        flat = train(corpus, small_config(mode="flat-baseline", max_epochs=1), ontology)
        composite = [t for t in flat.checkpoint.model.vocab.tokens
                     if t.startswith("@") and len(t) > 1]
        assert composite


class TestCheckpointRoundtrip:
    def test_save_load_preserves_greedy_output(self, tmp_path, small_corpus):
        from treenlg.generation import greedy_decode

        corpus, ontology = small_corpus
        outcome = train(corpus, small_config(), ontology)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, outcome.checkpoint.model, outcome.checkpoint.config,
                        outcome.checkpoint.epoch, outcome.checkpoint.dev_metrics)
        loaded = load_checkpoint(path)
        for ex in corpus.split("test")[:5]:
            before = greedy_decode(outcome.checkpoint.model, ex.sr, max_length=25)
            after = greedy_decode(loaded.model, ex.sr, max_length=25)
            assert before.top.delex_text == after.top.delex_text
            assert before.top.score == after.top.score

    def test_checkpoint_bytes_deterministic(self, tmp_path, small_corpus):
        corpus, ontology = small_corpus
        outcome = train(corpus, small_config(), ontology)
        ckpt = outcome.checkpoint
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, ckpt.model, ckpt.config, ckpt.epoch, ckpt.dev_metrics)
        save_checkpoint(p2, ckpt.model, ckpt.config, ckpt.epoch, ckpt.dev_metrics)
        assert p1.read_bytes() == p2.read_bytes()


class TestAdaptation:
    def make_examples(self, ontology, n):
        out = []
        for i in range(n):
            sr = SemanticRepresentation(
                [SrEntry("hotel", "inform", "area", ["north", "south", "east", "west",
                                                     "centre"][i % 5])], ontology)
            out.append(Example(sr, f"example {i} in the {sr.entries[0].value} .", "train"))
        return out

    def test_ceiling_arithmetic(self, small_corpus):
        _, ontology = small_corpus
        examples = self.make_examples(ontology, 800)
        assert len(sample_adaptation(examples, 0.0125, seed=0)) == 10

    def test_full_fraction_takes_everything(self, small_corpus):
        _, ontology = small_corpus
        examples = self.make_examples(ontology, 40)
        assert len(sample_adaptation(examples, 1.0, seed=0)) == 40

    def test_same_seed_same_subset(self, small_corpus):
        _, ontology = small_corpus
        examples = self.make_examples(ontology, 100)
        a = sample_adaptation(examples, 0.1, seed=5)
        b = sample_adaptation(examples, 0.1, seed=5)
        assert [e.text for e in a] == [e.text for e in b]

    def test_bad_fraction_rejected(self, small_corpus):
        _, ontology = small_corpus
        examples = self.make_examples(ontology, 10)
        for fraction in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                sample_adaptation(examples, fraction, seed=0)

    def test_multi_domain_excluded(self, small_corpus):
        _, ontology = small_corpus
        multi_sr = SemanticRepresentation(
            [SrEntry("hotel", "inform", "area", "west"),
             SrEntry("restaurant", "inform", "area", "west")], ontology)
        examples = self.make_examples(ontology, 4) + [Example(multi_sr, "west and west", "train")]
        sampled = sample_adaptation(examples, 1.0, seed=0)
        assert len(sampled) == 4
        assert all(not e.is_multi_domain for e in sampled)

    def test_adapt_finetunes_and_extends_vocab(self, small_corpus):
        corpus, ontology = small_corpus
        config = small_config(max_epochs=2)
        source = corpus.filter_domain("restaurant")
        target = corpus.filter_domain("hotel")
        outcome = train(source, config, ontology)
        vocab_before = len(outcome.checkpoint.model.vocab)
        adapted = adapt(outcome.checkpoint, target, fraction=0.5, config=config, seed=2)
        assert len(adapted.checkpoint.model.vocab) >= vocab_before
        assert adapted.log


class TestRunMatrix:
    def stub(self, mode, fraction, seed):
        return {"ser": 0.1 * seed + (0.5 if mode == "flat-baseline" else 0.0),
                "bleu": 0.9 - 0.1 * fraction}

    def test_row_and_aggregate_counts(self, small_corpus):
        corpus, ontology = small_corpus
        rows, aggs = run_matrix(corpus, ontology, "restaurant", "hotel",
                                fractions=[0.0125, 0.05, 0.1], seeds=[0, 1, 2, 3, 4],
                                modes=["tree+att", "flat-baseline"],
                                config=small_config(), cell_fn=self.stub)
        assert len(rows) == 30
        assert len(aggs) == 6

    def test_aggregate_mean_matches_rows(self, small_corpus):
        corpus, ontology = small_corpus
        rows, aggs = run_matrix(corpus, ontology, "restaurant", "hotel",
                                fractions=[0.05], seeds=[0, 1], modes=["tree+att"],
                                config=small_config(), cell_fn=self.stub)
        expected = sum(r["ser"] for r in rows) / len(rows)
        assert aggs[0]["ser_mean"] == pytest.approx(expected)

    def test_csv_roundtrip(self, small_corpus):
        corpus, ontology = small_corpus
        rows, aggs = run_matrix(corpus, ontology, "restaurant", "hotel",
                                fractions=[0.05, 0.5], seeds=[0, 1], modes=["tree"],
                                config=small_config(), cell_fn=self.stub)
        text = results_to_csv(rows, aggs)
        parsed_rows, parsed_aggs = parse_results_csv(text)
        assert len(parsed_rows) == len(rows)
        for original, parsed in zip(rows, parsed_rows):
            assert parsed["ser"] == original["ser"]
            assert parsed["bleu"] == original["bleu"]
        assert len(parsed_aggs) == 2 * len(aggs)

    def test_empty_grid_rejected(self, small_corpus):
        corpus, ontology = small_corpus
        with pytest.raises(ConfigError):
            run_matrix(corpus, ontology, "restaurant", "hotel", fractions=[],
                       seeds=[0], modes=["tree"], config=small_config(),
                       cell_fn=self.stub)


CONFIG_KEYS = list(TrainConfig().to_json())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=6)


class TestConfig:
    def test_defaults_are_reference_operating_point(self):
        config = TrainConfig()
        assert config.hidden == 100
        assert config.layers == 1
        assert config.dropout == 0.25
        assert config.lr_scratch == 0.0025
        assert config.lr_adapt == 0.001
        assert config.beam_size == 10

    def test_json_roundtrip(self):
        config = TrainConfig(hidden=64, seed=9)
        again = TrainConfig.from_json(json.loads(json.dumps(config.to_json())))
        assert again == config

    def test_multi_layer_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(layers=2).validate()

    def test_bad_dropout_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(dropout=1.0).validate()

    @pytest.mark.parametrize("raw", [[1, 2], "hidden", {"bogus": 1}, {"hidden": "100"},
                                     {"hidden": 10.0}, {"seed": True}, {"mode": None},
                                     {"lr_scratch": float("nan")}])
    def test_from_json_rejects_malformed(self, raw):
        with pytest.raises(ConfigError):
            TrainConfig.from_json(raw)

    def test_from_json_accepts_ints_for_floats_and_null_clip(self):
        config = TrainConfig.from_json({"dropout": 0, "clip_norm": None})
        assert config.dropout == 0 and config.clip_norm is None

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(JSON_VALUES, st.dictionaries(
        st.sampled_from(CONFIG_KEYS) | st.text(max_size=8), JSON_VALUES, max_size=6)))
    def test_from_json_validates_or_raises_config_error(self, raw):
        try:
            config = TrainConfig.from_json(raw)
        except ConfigError:
            return
        config.validate()
