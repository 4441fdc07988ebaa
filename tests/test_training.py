import gc
import json
import math
import os
import struct
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treenlg import engine, training
from treenlg.engine import ParamBinding, Tape
from treenlg.errors import CompatibilityError, ConfigError, ContractError, DomainError
from treenlg.model import (
    Model,
    PreparedExample,
    Vocabulary,
    load_checkpoint,
    param_shapes,
    prepare_example,
    rng_stream,
    save_checkpoint,
    STREAM_INIT,
)
from treenlg.semantics import Corpus, Example, Ontology, SemanticRepresentation, SrEntry
from treenlg.synth import SynthSpec, synth_corpus
from treenlg.training import (
    TrainConfig,
    adapt,
    cell_seed,
    parse_results_csv,
    results_to_csv,
    run_matrix,
    sample_adaptation,
    teacher_forced,
    train,
    worker_pool,
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
    """Both objectives of ``teacher_forced`` on hand-set models, where they
    have closed forms."""

    ONTOLOGY = Ontology({"cafe": {"inform": {"area": "informable"}},
                         "inn": {"request": {"price": "requestable"}}})
    ONE = SemanticRepresentation([SrEntry("cafe", "inform", "area", "west")], ONTOLOGY)
    TWO = SemanticRepresentation([SrEntry("cafe", "inform", "area", "west"),
                                  SrEntry("inn", "request", "price", "?")], ONTOLOGY)

    def zero_model(self, words, mode="tree+att", hidden=4):
        """Every parameter zero: each word distribution is uniform over the
        vocabulary, every label state is zero, and so each attention
        distribution is uniform over its tree's labels of the layer."""
        vocab = Vocabulary.build([words], placeholder_only=mode == "tree+att")
        model = Model.create(mode, self.ONTOLOGY, vocab, hidden, np.random.default_rng(0))
        for value in model.params.values():
            value[...] = 0.0
        return model

    def loss(self, model, tokens, labels=None, sr=None):
        prep = PreparedExample(Example(sr or self.ONE, " ".join(tokens), "train"), tokens,
                               labels or {})
        fwd = teacher_forced(model, prep, small_config(mode=model.mode, hidden=model.hidden),
                             training=False)
        return float(fwd.loss.value), float(fwd.nll.value)

    def test_uniform_nll(self):
        model = self.zero_model(["a", "b", "c", "d", "e", "f", "g"], mode="tree")
        assert len(model.vocab) == 10
        _, nll = self.loss(model, ["a", "c", "e"])
        assert nll == pytest.approx(4 * math.log(10))

    def test_confident_nll_tends_to_zero(self):
        """Gates i, o and g saturated open and f shut make every hidden unit
        tanh(1); a large end-token row then leaves the end token almost
        all the mass."""
        model = self.zero_model(["a", "b"], mode="tree")
        hidden = model.hidden
        model.params["dec.b"][:4 * hidden] = np.repeat([30.0, -30.0, 30.0, 30.0], hidden)
        model.params["dec.out.w"][model.vocab.eos_id] = 100.0
        _, nll = self.loss(model, [])
        assert nll == pytest.approx(0.0, abs=1e-10)

    def test_quarter_probability(self):
        model = self.zero_model(["a"], mode="tree")
        assert len(model.vocab) == 4
        _, nll = self.loss(model, [])
        assert nll == pytest.approx(math.log(4))

    def test_target_out_of_vocabulary(self):
        """A target the model's tensors do not cover is rejected when it
        comes back as the next step's input."""
        model = self.zero_model(["a"], mode="tree")
        model.vocab = Vocabulary.build([["a", "b"]], placeholder_only=False)
        with pytest.raises(ContractError):
            self.loss(model, ["b"])

    def test_att_loss_reduces_to_nll_without_placeholders(self):
        model = self.zero_model(["a", "b"])
        rng = np.random.default_rng(1)
        for value in model.params.values():
            value[...] = rng.normal(size=value.shape)
        loss, nll = self.loss(model, ["a", "b"], sr=self.TWO)
        assert loss == nll

    def test_att_loss_zero_penalty_at_certainty(self):
        """One label per layer: each distribution is certain."""
        model = self.zero_model(["in", "the"])
        loss, nll = self.loss(model, ["in", "the", "@"], {2: ("cafe", "inform", "area")})
        assert loss == pytest.approx(nll, abs=1e-12)

    def test_att_loss_uniform_two_labels(self):
        """Two labels per layer with equal states: log 2 per layer for the
        supervised placeholder, nothing for the unsupervised one."""
        model = self.zero_model(["or"])
        loss, nll = self.loss(model, ["@", "or", "@"], {0: ("cafe", "inform", "area")},
                              sr=self.TWO)
        assert loss == pytest.approx(nll + 3 * math.log(2))

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


class TestTapeLifetime:
    def test_finished_tape_is_freed_without_the_cycle_collector(self, small_corpus):
        """Nodes do not refer to their tape, so a teacher-forced tape and its
        gradients go as soon as the result is dropped, by reference counting
        alone."""
        corpus, ontology = small_corpus
        config = small_config()
        preps = [prepare_example(e, "tree+att", ontology) for e in corpus.split("train")[:6]]
        prep = next(p for p in preps if p.labels)
        vocab = Vocabulary.build([p.tokens for p in preps], placeholder_only=True)
        model = Model.create("tree+att", ontology, vocab, config.hidden,
                             rng_stream(0, STREAM_INIT))
        gc.disable()
        try:
            fwd = teacher_forced(model, prep, config, training=True,
                                 rng=np.random.default_rng(0))
            fwd.tape.backward(fwd.loss)
            fwd.tape.param_grads(model.params)
            tape, loss = weakref.ref(fwd.tape), weakref.ref(fwd.loss)
            del fwd
            assert tape() is None
            assert loss() is None
        finally:
            gc.enable()


class TestTapeShape:
    def test_node_count_does_not_grow_with_sentence_length(self, small_corpus):
        """The parameter leaves, the encoder op, the decoder op and its two
        views: a fixed chain, whatever the batch size and however many
        steps the sentences run.  14 nodes in the tree modes, 12 in flat
        mode."""
        corpus, ontology = small_corpus
        for mode, nodes in (("tree+att", 14), ("tree", 14), ("flat-baseline", 12)):
            config = small_config(mode=mode)
            long = [prepare_example(e, mode, ontology) for e in corpus.split("train")[:16]]
            short = [PreparedExample(p.example, ["hi"]) for p in long]
            vocab = Vocabulary.build([p.tokens for p in long + short],
                                     placeholder_only=mode == "tree+att")
            model = Model.create(mode, ontology, vocab, config.hidden,
                                 rng_stream(0, STREAM_INIT))
            assert max(len(p.tokens) for p in long) > 10
            assert any(p.labels for p in long) == (mode == "tree+att")
            assert len(model.params) + 4 == nodes
            for batch in (short[:1], long[:1], short, long):
                tape = training.teacher_forced_batch(model, batch, config, training=False).tape
                assert len(tape.nodes) == nodes, (mode, len(batch))

    def test_one_sr_encoding_checks_one_value(self, small_corpus, monkeypatch):
        """Encoding an SR for decoding registers one op on a non-recording
        tape, whose value is the only one checked for NaN/Inf."""
        corpus, ontology = small_corpus
        vocab = Vocabulary.build([["a"]], placeholder_only=True)
        model = Model.create("tree+att", ontology, vocab, 6, rng_stream(0, STREAM_INIT))
        calls = []
        as_f64 = engine._as_f64
        monkeypatch.setattr(engine, "_as_f64", lambda value: calls.append(1) or as_f64(value))
        binding = ParamBinding(Tape(recording=False), model.params)
        encoded = model.encode_sr(corpus.split("train")[0].sr, binding)
        assert calls == [1]
        assert binding.tape.nodes == []
        assert encoded.embedding.shape == (6,)


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


    def test_one_tape_per_minibatch(self, small_corpus, monkeypatch):
        corpus, ontology = small_corpus
        calls = []
        backward = Tape.backward
        monkeypatch.setattr(Tape, "backward",
                            lambda tape, loss: calls.append(1) or backward(tape, loss))
        train(corpus, small_config(max_epochs=2, batch_size=5), ontology)
        assert len(calls) == 2 * math.ceil(len(corpus.split("train")) / 5)

    def test_epoch_telemetry_matches_a_hand_computed_clipped_step(self, small_corpus):
        """One batch holds the whole train split, so the epoch is one Adam
        step: its pre-clip norm is that of the mean per-sentence gradient at
        the initial parameters, and the clipped step moves every parameter
        by the first Adam step of the clipped gradient."""
        corpus, ontology = small_corpus
        config = small_config(max_epochs=1, batch_size=1000, dropout=0.0, clip_norm=0.05)
        outcome = train(corpus, config, ontology)
        prep = [prepare_example(e, config.mode, ontology) for e in corpus.split("train")]
        vocab = Vocabulary.build([p.tokens for p in prep], placeholder_only=True)
        model = Model.create(config.mode, ontology, vocab, config.hidden,
                             rng_stream(config.seed, STREAM_INIT), config.init_scale)
        grads = {name: np.zeros_like(v) for name, v in model.params.items()}
        for p in prep:
            fwd = teacher_forced(model, p, config, training=False)
            fwd.tape.backward(fwd.loss)
            for name, g in fwd.tape.param_grads(model.params).items():
                grads[name] += g
        norm = math.sqrt(sum(float(np.sum((g / len(prep)) ** 2)) for g in grads.values()))
        entry = outcome.log[0]
        assert norm > config.clip_norm
        assert entry["grad_norm_preclip_mean"] == pytest.approx(norm, rel=1e-9)
        assert entry["grad_norm_preclip_max"] == entry["grad_norm_preclip_mean"]
        assert entry["clipped_steps"] == 1
        assert entry["train_tokens"] == sum(len(p.tokens) + 1 for p in prep)
        assert entry["attention_skipped"] == sum(not p.attention_usable for p in prep)
        assert entry["attention_skipped"] == outcome.attention_skipped
        for name, theta in model.params.items():
            g = grads[name] / len(prep) * (config.clip_norm / norm)
            step = config.lr_scratch * g / (np.abs(g) + 1e-8)
            assert np.allclose(outcome.checkpoint.model.params[name], theta - step,
                               rtol=0, atol=1e-9), name

    def test_unclipped_epochs_report_their_norms(self, small_corpus):
        corpus, ontology = small_corpus
        log = train(corpus, small_config(max_epochs=2, clip_norm=None), ontology).log
        for entry in log:
            assert entry["clipped_steps"] == 0
            assert 0 < entry["grad_norm_preclip_mean"] <= entry["grad_norm_preclip_max"]


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


class TestModelParameters:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, bad):
        """A model checks its parameters once, when it is built, so decoding
        and training tapes need not check them again."""
        ontology = Ontology({"cafe": {"inform": {"area": "informable"}}})
        vocab = Vocabulary.build([["a", "@"]], placeholder_only=True)
        params = Model.create("tree+att", ontology, vocab, 4, rng_stream(0, STREAM_INIT)).params
        params["dec.h"][3, 1] = bad
        with pytest.raises(DomainError, match="'dec.h'"):
            Model("tree+att", 4, ontology, vocab, params)


class TestCheckpointValidation:
    """A checkpoint whose tensors do not fit its own header is rejected when
    it loads."""

    @staticmethod
    def saved(tmp_path, edit) -> str:
        ontology = Ontology({"cafe": {"inform": {"area": "informable"}}})
        vocab = Vocabulary.build([["a", "@"]], placeholder_only=True)
        model = Model.create("tree+att", ontology, vocab, 4, rng_stream(0, STREAM_INIT))
        edit(model.params)
        path = tmp_path / "edited.ckpt"
        save_checkpoint(path, model, {}, 1, {})
        return path

    def test_untouched_checkpoint_loads(self, tmp_path):
        load_checkpoint(self.saved(tmp_path, lambda params: None))

    def test_missing_tensor_rejected(self, tmp_path):
        path = self.saved(tmp_path, lambda params: params.pop("dec.s"))
        with pytest.raises(CompatibilityError, match="missing.*dec.s"):
            load_checkpoint(path)

    def test_extra_tensor_rejected(self, tmp_path):
        path = self.saved(tmp_path, lambda params: params.update({"flat.w": np.zeros((4, 1))}))
        with pytest.raises(CompatibilityError, match="unexpected.*flat.w"):
            load_checkpoint(path)

    def test_malformed_header_ontology_rejected(self, tmp_path):
        data = self.saved(tmp_path, lambda params: None).read_bytes()
        magic = b"TREENLG1\n"
        (length,) = struct.unpack_from("<Q", data, len(magic))
        start = len(magic) + 8
        header = json.loads(data[start:start + length])
        header["ontology"] = {}
        raw = json.dumps(header).encode()
        path = tmp_path / "ontology.ckpt"
        path.write_bytes(magic + struct.pack("<Q", len(raw)) + raw + data[start + length:])
        with pytest.raises(CompatibilityError, match="corrupt"):
            load_checkpoint(path)

    def test_misshaped_tensor_rejected(self, tmp_path):
        path = self.saved(tmp_path, lambda params: params.update(
            {"dec.h": np.zeros((28, 3))}))
        with pytest.raises(CompatibilityError, match="dec.h"):
            load_checkpoint(path)

    def test_non_finite_tensor_rejected(self, tmp_path):
        data = self.saved(tmp_path, lambda params: None).read_bytes()
        path = tmp_path / "nan.ckpt"
        # The last 8 bytes are the last value of the last tensor.
        path.write_bytes(data[:-8] + struct.pack("<d", float("nan")))
        with pytest.raises(CompatibilityError, match="non-finite"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        data = self.saved(tmp_path, lambda params: None).read_bytes()
        path = tmp_path / "trailing.ckpt"
        path.write_bytes(data + bytes(8))
        with pytest.raises(CompatibilityError, match="8 trailing bytes"):
            load_checkpoint(path)

    def test_invalid_config_rejected(self, tmp_path):
        data = self.saved(tmp_path, lambda params: None).read_bytes()
        magic = b"TREENLG1\n"
        (length,) = struct.unpack_from("<Q", data, len(magic))
        start = len(magic) + 8
        header = json.loads(data[start:start + length])
        header["config"] = {"hidden": -1}
        raw = json.dumps(header).encode()
        path = tmp_path / "config.ckpt"
        path.write_bytes(magic + struct.pack("<Q", len(raw)) + raw + data[start + length:])
        with pytest.raises(CompatibilityError, match="corrupt.*hidden"):
            load_checkpoint(path)

    @given(damage=st.one_of(
        st.tuples(st.just("truncate"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("flip"), st.integers(min_value=0, max_value=10**6),
                  st.integers(min_value=1, max_value=255))))
    @settings(max_examples=300, deadline=None)
    def test_damaged_checkpoint_rejected_or_sound(self, pristine, tmp_path_factory, damage):
        """A truncated checkpoint, or one with a single byte flipped, either
        fails to load with ``CompatibilityError`` or loads as a sound one:
        finite tensors of their declared shapes and a valid config."""
        data = pristine
        if damage[0] == "truncate":
            damaged = data[:damage[1] % len(data)]
        else:
            position = damage[1] % len(data)
            damaged = bytearray(data)
            damaged[position] ^= damage[2]
            damaged = bytes(damaged)
        path = tmp_path_factory.getbasetemp() / "damaged.ckpt"
        path.write_bytes(damaged)
        try:
            ckpt = load_checkpoint(path)
        except CompatibilityError:
            return
        model = ckpt.model
        shapes = param_shapes(model.mode, model.ontology, len(model.vocab), model.hidden)
        assert sorted(model.params) == sorted(shapes)
        for name, value in model.params.items():
            assert value.shape == shapes[name], name
            assert np.isfinite(value).all(), name
        TrainConfig.from_json(ckpt.config)

    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory) -> bytes:
        """The bytes of a hidden-4 checkpoint with a full training config."""
        path = self.saved(tmp_path_factory.mktemp("pristine"), lambda params: None)
        ckpt = load_checkpoint(path)
        save_checkpoint(path, ckpt.model, TrainConfig(hidden=4).to_json(), 1, {"ser": 0.5})
        return path.read_bytes()


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

    @pytest.mark.parametrize("grid", [
        dict(fractions=[0.5, 0.5], seeds=[0], modes=["tree"]),
        dict(fractions=[0.5], seeds=[0, 0], modes=["tree"]),
        dict(fractions=[0.5], seeds=[0], modes=["tree", "tree"]),
        dict(fractions=[0.5, 0.5], seeds=[0, 0], modes=["tree", "tree"])])
    def test_repeated_values_rejected(self, small_corpus, grid):
        """A repeated value would count one cell as several runs."""
        corpus, ontology = small_corpus
        with pytest.raises(ConfigError, match="must not repeat"):
            run_matrix(corpus, ontology, "restaurant", "hotel", config=small_config(),
                       cell_fn=self.stub, **grid)

    @pytest.mark.parametrize("source,target,drop,message", [
        ("restaurant", "hotel", ("hotel", "test"), "'hotel' has no single-domain test"),
        ("restaurant", "hotel", ("hotel", "dev"), "'hotel' has no single-domain dev"),
        ("restaurant", "hotel", ("hotel", "train"), "'hotel' has no single-domain train"),
        ("restaurant", "hotel", ("restaurant", "dev"), "'restaurant' has no single-domain dev"),
        ("restaurant", "hotle", None, "'hotle' has no single-domain train")])
    def test_missing_data_rejected_before_training(self, small_corpus, monkeypatch,
                                                   source, target, drop, message):
        corpus, ontology = small_corpus
        if drop is not None:
            domain, split = drop
            corpus = Corpus([e for e in corpus.examples
                             if not (e.split == split and domain in e.sr.domains)], ontology)

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(training, "train", no_training)
        with pytest.raises(ConfigError, match=message):
            run_matrix(corpus, ontology, source, target, fractions=[0.5], seeds=[0],
                       modes=["tree"], config=small_config())


class TestSweepProgress:
    def test_workers_log_one_line_per_task(self, small_corpus):
        corpus, ontology = small_corpus
        lines = []
        run_matrix(corpus, ontology, "restaurant", "hotel", fractions=[0.1], seeds=[0, 1],
                   modes=["flat-baseline"], config=small_config(max_epochs=1, hidden=4),
                   workers=2, log_fn=lines.append)
        assert lines == ["finished flat-baseline seed 0", "finished flat-baseline seed 1"]


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_facts(_):
    """A pool task: the worker's BLAS thread variables and, where the system
    lists them, its threads (the main thread plus any BLAS threads)."""
    tasks = Path("/proc/self/task")
    return ({name: os.environ.get(name) for name in BLAS_VARIABLES},
            len(list(tasks.iterdir())) if tasks.is_dir() else None)


class TestWorkerPool:
    def test_workers_start_with_one_blas_thread(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        with worker_pool(2) as pool:
            facts = list(pool.map(worker_facts, range(4)))
        for env, threads in facts:
            assert env == dict.fromkeys(BLAS_VARIABLES, "1")
            assert threads in (1, None)
        # This process's own environment is restored.
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
        assert "OMP_NUM_THREADS" not in os.environ


class TestSweepSeeds:
    def test_cell_seeds_are_distinct(self):
        seeds = {(seed, j): cell_seed(seed, j) for seed in range(12) for j in range(12)}
        assert len(set(seeds.values())) == len(seeds)
        assert cell_seed(0, 1) != cell_seed(1, 0)

    def test_modes_of_one_cell_adapt_on_the_same_sample(self, small_corpus, monkeypatch):
        """The sweep hands every mode of a (seed, fraction) cell the same
        adaptation seed, and so the same sample."""
        corpus, ontology = small_corpus
        cells = {}

        class Stub:
            checkpoint = types.SimpleNamespace(model=None)

        def fake_adapt(base, target_corpus, fraction, config, seed):
            sample = sample_adaptation(target_corpus.split("train"), fraction, seed)
            cells.setdefault((fraction, seed), []).append(
                (config.mode, [e.text for e in sample]))
            return Stub()

        monkeypatch.setattr(training, "train", lambda *args, **kwargs: Stub())
        monkeypatch.setattr(training, "clone_checkpoint", lambda checkpoint: None)
        monkeypatch.setattr(training, "adapt", fake_adapt)
        monkeypatch.setattr(training, "evaluate_examples",
                            lambda *args, **kwargs: {"ser": 0.0, "bleu": 0.0})
        run_matrix(corpus, ontology, "restaurant", "hotel", fractions=[0.1, 0.5],
                   seeds=[0, 1], modes=["tree+att", "flat-baseline"], config=small_config())
        assert len(cells) == 4
        for runs in cells.values():
            assert sorted(mode for mode, _ in runs) == ["flat-baseline", "tree+att"]
            assert runs[0][1] == runs[1][1]


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
                                     {"lr_scratch": float("nan")}, {"clip_norm": -1.0},
                                     {"clip_norm": float("nan")}])
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
