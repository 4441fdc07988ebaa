import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treenlg.errors import ConfigError, LexicalizationError, ParseError, ValidationError
from treenlg.semantics import (
    REQUEST,
    Ontology,
    SemanticRepresentation,
    SrEntry,
    delexicalize,
    lexicalize,
    load_corpus,
    load_ontology,
    parse_token,
    token_surface,
    tokenize,
)
from treenlg.synth import DEFAULT_SPEC, SynthSpec, synth_corpus


@pytest.fixture
def ontology():
    return Ontology({
        "attraction": {
            "inform": {"options": "informable", "type": "informable",
                       "area": "informable", "name": "informable"},
            "request": {"price": "requestable"},
        },
        "restaurant": {
            "inform": {"area": "informable", "name": "informable"},
            "suggest": {"name": "informable"},
            "reqmore": {},
        },
        "hotel": {
            "inform": {"options": "informable", "parking": "binary"},
            "select": {"type": "informable"},
        },
    })


def sr_of(ontology, *quads):
    return SemanticRepresentation([SrEntry(*q) for q in quads], ontology)


class TestOntology:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "ont.json"
        path.write_text(json.dumps({"taxi": {"inform": {"phone": "informable"}}}))
        ont = load_ontology(path)
        assert ont.domains == ("taxi",)
        assert ont.acts == ("inform",)
        assert ont.slots == ("phone",)

    def test_property_lookup(self, ontology):
        assert ontology.property_of("restaurant", "inform", "area") == "informable"

    def test_taxi_like_domain_counts(self, tmp_path):
        # Small closed domain: 2 dialogue acts, 6 slots.
        schema = {"taxi": {
            "inform": {"phone": "informable", "cartype": "informable",
                       "departure": "informable", "destination": "informable"},
            "request": {"leaveat": "requestable", "arriveby": "requestable"},
        }}
        path = tmp_path / "taxi.json"
        path.write_text(json.dumps(schema))
        ont = load_ontology(path)
        assert len(ont.schema["taxi"]) == 2
        assert len(ont.slots) == 6

    def test_unknown_property_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"taxi": {"inform": {"phone": "mandatory"}}}))
        with pytest.raises(ParseError, match="mandatory"):
            load_ontology(path)

    def test_uppercase_name_rejected(self):
        with pytest.raises(ParseError):
            Ontology({"Taxi": {"inform": {"phone": "informable"}}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_ontology(tmp_path / "nope.json")

    def test_fingerprint_stable_under_key_order(self):
        a = Ontology({"x": {"inform": {"a": "informable", "b": "binary"}}})
        b = Ontology({"x": {"inform": {"b": "binary", "a": "informable"}}})
        assert a.fingerprint() == b.fingerprint()


class TestSrValidation:
    def test_requestable_must_carry_request(self, ontology):
        with pytest.raises(ValidationError):
            sr_of(ontology, ("attraction", "request", "price", "cheap"))

    def test_unknown_triple(self, ontology):
        with pytest.raises(ValidationError):
            sr_of(ontology, ("attraction", "inform", "parking", "yes"))

    def test_duplicate_identical_entry(self, ontology):
        with pytest.raises(ValidationError, match="duplicate"):
            sr_of(ontology,
                  ("hotel", "select", "type", "motel"),
                  ("hotel", "select", "type", "motel"))

    def test_multi_domain_flag(self, ontology):
        sr = sr_of(ontology,
                   ("restaurant", "inform", "area", "west"),
                   ("hotel", "inform", "options", "two"))
        assert sr.is_multi_domain

    def test_bare_act(self, ontology):
        sr = sr_of(ontology, ("restaurant", "reqmore", None, None))
        assert sr.entries[0].is_bare_act
        assert sr.licensed_tokens() == []


class TestDelexicalize:
    def test_three_informs_plus_request(self, ontology):
        sr = sr_of(ontology,
                   ("attraction", "inform", "options", "five"),
                   ("attraction", "inform", "type", "colleges"),
                   ("attraction", "inform", "area", "west"),
                   ("attraction", "request", "price", REQUEST))
        text = "there are five colleges in the west, do you have a price range in mind?"
        result = delexicalize(sr, text)
        assert result.text == ("there are @attraction-inform-options @attraction-inform-type "
                               "in the @attraction-inform-area, do you have a price range in mind?")
        assert result.unmatched == []

    def test_no_informables_is_identity(self, ontology):
        sr = sr_of(ontology, ("attraction", "request", "price", REQUEST))
        result = delexicalize(sr, "any price in mind?")
        assert result.text == "any price in mind?"
        assert result.unmatched == []

    def test_absent_value_reported(self, ontology):
        sr = sr_of(ontology, ("restaurant", "inform", "name", "golden house"))
        result = delexicalize(sr, "we found a nice place for you")
        assert result.text == "we found a nice place for you"
        assert [(e.domain, e.act, e.slot) for e in result.unmatched] == [
            ("restaurant", "inform", "name")]

    def test_word_boundary_matching(self, ontology):
        sr = sr_of(ontology, ("attraction", "inform", "area", "west"))
        result = delexicalize(sr, "westside is not the west side")
        assert result.text == "westside is not the @attraction-inform-area side"

    def test_case_insensitive(self, ontology):
        sr = sr_of(ontology, ("restaurant", "inform", "name", "golden house"))
        result = delexicalize(sr, "try Golden House tonight")
        assert result.text == "try @restaurant-inform-name tonight"

    def test_repeated_triple_gets_occurrence_indexes(self, ontology):
        sr = sr_of(ontology,
                   ("hotel", "select", "type", "guesthouse"),
                   ("hotel", "select", "type", "motel"))
        result = delexicalize(sr, "would you prefer a guesthouse or motel ?")
        assert result.text == "would you prefer a @hotel-select-type1 or @hotel-select-type2 ?"

    def test_binary_value_not_replaced(self, ontology):
        sr = sr_of(ontology, ("hotel", "inform", "parking", "yes"))
        result = delexicalize(sr, "yes , it has parking .")
        assert result.text == "yes , it has parking ."
        assert result.unmatched == []


class TestLexicalize:
    def test_inverse_of_figure_example(self, ontology):
        sr = sr_of(ontology,
                   ("attraction", "inform", "options", "five"),
                   ("attraction", "inform", "type", "colleges"),
                   ("attraction", "inform", "area", "west"),
                   ("attraction", "request", "price", REQUEST))
        original = "there are five colleges in the west, do you have a price range in mind?"
        delexed = delexicalize(sr, original).text
        restored, flags = lexicalize(sr, delexed)
        assert restored == original
        assert flags == []

    def test_no_tokens_is_identity(self, ontology):
        sr = sr_of(ontology, ("restaurant", "inform", "area", "west"))
        assert lexicalize(sr, "hello there !")[0] == "hello there !"

    def test_unknown_token_raises(self, ontology):
        sr = sr_of(ontology, ("restaurant", "inform", "area", "west"))
        with pytest.raises(LexicalizationError, match="@restaurant-inform-name"):
            lexicalize(sr, "try @restaurant-inform-name today")

    def test_tolerant_mode_flags(self, ontology):
        sr = sr_of(ontology, ("restaurant", "inform", "area", "west"))
        out, flags = lexicalize(sr, "try @restaurant-inform-name today", strict=False)
        assert out == "try @restaurant-inform-name today"
        assert flags == ["@restaurant-inform-name"]

    def test_repeated_triples_consumed_in_order(self, ontology):
        sr = sr_of(ontology,
                   ("hotel", "select", "type", "guesthouse"),
                   ("hotel", "select", "type", "motel"))
        out, _ = lexicalize(sr, "a @hotel-select-type1 or a @hotel-select-type2 ?")
        assert out == "a guesthouse or a motel ?"


class TestRoundTrip:
    def test_roundtrip_on_synthetic_corpus(self):
        corpus, _ = synth_corpus(SynthSpec.default(), seed=3)
        for ex in corpus.examples[:40]:
            delexed = delexicalize(ex.sr, ex.text)
            assert delexed.unmatched == []
            restored, flags = lexicalize(ex.sr, delexed.text)
            assert restored == ex.text
            assert flags == []

    @given(st.sampled_from(["north", "south", "east", "west"]),
           st.sampled_from(["two", "three", "four"]))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, area, options):
        ont = Ontology({"hotel": {"inform": {"area": "informable",
                                             "options": "informable"}}})
        sr = SemanticRepresentation(
            [SrEntry("hotel", "inform", "area", area),
             SrEntry("hotel", "inform", "options", options)], ont)
        text = f"i found {options} hotels in the {area} ."
        delexed = delexicalize(sr, text)
        assert delexed.unmatched == []
        assert lexicalize(sr, delexed.text)[0] == text


class TestTokens:
    def test_surface_forms(self):
        assert token_surface("hotel", "inform", "area", 1, repeated=False) == "@hotel-inform-area"
        assert token_surface("hotel", "select", "type", 2, repeated=True) == "@hotel-select-type2"

    def test_parse_roundtrip(self, ontology):
        assert parse_token("@hotel-select-type2", ontology) == ("hotel", "select", "type", 2)
        assert parse_token("@hotel-inform-options", ontology) == ("hotel", "inform", "options", 1)
        assert parse_token("@not-a", ontology) is None
        assert parse_token("plain", ontology) is None

    def test_tokenize(self):
        assert tokenize("Hello, world! @x-y-z?") == ["hello", ",", "world", "!", "@x-y-z", "?"]


class TestCorpusIO:
    def write_corpus(self, tmp_path, records):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return path

    def test_three_valid_records(self, tmp_path, ontology):
        records = [
            {"sr": [{"domain": "restaurant", "act": "inform", "slot": "area", "value": "west"}],
             "text": "in the west .", "split": "train"},
            {"sr": [{"domain": "attraction", "act": "request", "slot": "price", "value": "?"}],
             "text": "price range ?", "split": "dev"},
            {"sr": [{"domain": "restaurant", "act": "reqmore", "slot": None, "value": None}],
             "text": "anything else ?", "split": "test"},
        ]
        corpus = load_corpus(self.write_corpus(tmp_path, records), ontology)
        assert len(corpus) == 3
        assert [len(corpus.split(s)) for s in ("train", "dev", "test")] == [1, 1, 1]

    def test_unknown_slot_names_record(self, tmp_path, ontology):
        records = [
            {"sr": [{"domain": "restaurant", "act": "inform", "slot": "area", "value": "west"}],
             "text": "in the west .", "split": "train"},
            {"sr": [{"domain": "restaurant", "act": "inform", "slot": "petrol", "value": "x"}],
             "text": "nope", "split": "train"},
        ]
        with pytest.raises(ValidationError, match=r":2.*petrol"):
            load_corpus(self.write_corpus(tmp_path, records), ontology)

    def test_multi_domain_flagged(self, tmp_path, ontology):
        records = [
            {"sr": [{"domain": "restaurant", "act": "inform", "slot": "area", "value": "west"},
                    {"domain": "hotel", "act": "inform", "slot": "options", "value": "two"}],
             "text": "west with two hotels", "split": "train"},
        ]
        corpus = load_corpus(self.write_corpus(tmp_path, records), ontology)
        assert corpus.examples[0].is_multi_domain

    def test_roundtrip_file(self, tmp_path):
        corpus, ont = synth_corpus(SynthSpec.default(), seed=1)
        path = tmp_path / "out.jsonl"
        corpus.to_file(path)
        again = load_corpus(path, ont)
        assert len(again) == len(corpus)
        assert [e.text for e in again.examples] == [e.text for e in corpus.examples]


class TestSynth:
    def test_determinism(self):
        spec = dict(DEFAULT_SPEC)
        spec["srs_per_domain"] = 25
        a, _ = synth_corpus(SynthSpec.from_json(spec), seed=7)
        b, _ = synth_corpus(SynthSpec.from_json(spec), seed=7)
        assert [e.text for e in a.examples] == [e.text for e in b.examples]
        assert [e.split for e in a.examples] == [e.split for e in b.examples]

    def test_all_examples_delexicalize_cleanly(self):
        corpus, _ = synth_corpus(SynthSpec.default(), seed=11)
        for ex in corpus.examples:
            assert delexicalize(ex.sr, ex.text).unmatched == []

    def test_distinct_sr_counts_match_spec(self):
        spec = dict(DEFAULT_SPEC)
        spec["srs_per_domain"] = 47
        corpus, _ = synth_corpus(SynthSpec.from_json(spec), seed=5)
        assert corpus.distinct_sr_counts() == {"hotel": 47, "restaurant": 47}

    def test_undeclared_slot_in_template(self):
        spec = json.loads(json.dumps(DEFAULT_SPEC))
        spec["patterns"].append({"entries": [["inform", "wifi"]], "text": "has {wifi} ."})
        with pytest.raises(ConfigError, match="wifi"):
            SynthSpec.from_json(spec)

    def test_splits_partition_each_domain(self):
        corpus, _ = synth_corpus(SynthSpec.default(), seed=2)
        for domain in ("restaurant", "hotel"):
            sub = corpus.filter_domain(domain)
            sizes = [len(sub.split(s)) for s in ("train", "dev", "test")]
            assert sizes == [30, 10, 10]
