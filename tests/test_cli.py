import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treenlg.cli import main
from treenlg.model import load_checkpoint, save_checkpoint
from treenlg.semantics import delexicalize, load_corpus, load_ontology

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["synth", "--out", str(out), "--seed", "7"]) == 0
    return out


@pytest.fixture(scope="module")
def small_checkpoint(data_dir, tmp_path_factory):
    """A quick low-capacity training run for plumbing tests."""
    out = tmp_path_factory.mktemp("run")
    code = main(["train",
                 "--corpus", str(data_dir / "corpus.jsonl"),
                 "--ontology", str(data_dir / "ontology.json"),
                 "--domain", "restaurant",
                 "--out", str(out),
                 "--hidden", "12", "--max-epochs", "3", "--seed", "1",
                 "--max-length", "25", "--batch-size", "8"])
    assert code == 0
    return out / "checkpoint.ckpt"


class TestSynth:
    def test_outputs_exist(self, data_dir):
        assert (data_dir / "ontology.json").exists()
        assert (data_dir / "corpus.jsonl").exists()
        assert (data_dir / "synth_spec.json").exists()

    def test_rerun_identical(self, data_dir, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--seed", "7"]) == 0
        assert (tmp_path / "corpus.jsonl").read_bytes() == \
            (data_dir / "corpus.jsonl").read_bytes()
        assert (tmp_path / "ontology.json").read_bytes() == \
            (data_dir / "ontology.json").read_bytes()


class TestPrepare:
    def test_valid_corpus(self, data_dir, tmp_path, capsys):
        records = [
            {"sr": [{"domain": "restaurant", "act": "inform", "slot": "area",
                     "value": "west"}],
             "text": "in the west .", "split": "train"},
            {"sr": [{"domain": "hotel", "act": "inform", "slot": "options",
                     "value": "two"}],
             "text": "i found two .", "split": "dev"},
            {"sr": [{"domain": "hotel", "act": "request", "slot": "price",
                     "value": "?"}],
             "text": "price range ?", "split": "test"},
        ]
        corpus_path = tmp_path / "three.jsonl"
        corpus_path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        out = tmp_path / "prep"
        code = main(["prepare", "--corpus", str(corpus_path),
                     "--ontology", str(data_dir / "ontology.json"),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "delex.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        assert "@restaurant-inform-area" in lines[0]

    def test_distinct_sr_counts_for_small_domain_spec(self, tmp_path):
        spec_dir = tmp_path / "spec47"
        assert main(["synth", "--out", str(spec_dir), "--seed", "3",
                     "--srs-per-domain", "47"]) == 0
        out = tmp_path / "prep47"
        assert main(["prepare", "--corpus", str(spec_dir / "corpus.jsonl"),
                     "--ontology", str(spec_dir / "ontology.json"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["distinct_sr_per_domain"] == {"hotel": 47, "restaurant": 47}
        assert report["unmatched_values"] == 0

    def test_missing_ontology_exits_2(self, data_dir, tmp_path, capsys):
        code = main(["prepare", "--corpus", str(data_dir / "corpus.jsonl"),
                     "--ontology", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "missing.json" in capsys.readouterr().err


class TestTrain:
    def test_artifacts_written(self, small_checkpoint):
        run_dir = small_checkpoint.parent
        assert small_checkpoint.exists()
        log_lines = (run_dir / "epochs.jsonl").read_text().strip().splitlines()
        entries = [json.loads(line) for line in log_lines]
        assert all({"epoch", "train_loss", "dev_ser", "dev_bleu"} <= set(e) for e in entries)

    def test_timing_written_per_epoch(self, small_checkpoint):
        """Wall-clock seconds go to their own file, so epochs.jsonl stays
        byte-identical from run to run."""
        run_dir = small_checkpoint.parent
        epochs = [json.loads(line)["epoch"]
                  for line in (run_dir / "epochs.jsonl").read_text().splitlines()]
        timing = [json.loads(line) for line in (run_dir / "timing.jsonl").read_text().splitlines()]
        assert [t["epoch"] for t in timing] == epochs
        for record in timing:
            assert set(record) == {"epoch", "train_seconds", "dev_seconds"}
            assert all(isinstance(record[k], float) and record[k] >= 0.0
                       for k in ("train_seconds", "dev_seconds"))

    def test_idempotent_given_same_seed(self, data_dir, tmp_path):
        args = ["train",
                "--corpus", str(data_dir / "corpus.jsonl"),
                "--ontology", str(data_dir / "ontology.json"),
                "--domain", "hotel",
                "--hidden", "10", "--max-epochs", "2", "--seed", "5",
                "--max-length", "20", "--batch-size", "8"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "checkpoint.ckpt").read_bytes() == (out2 / "checkpoint.ckpt").read_bytes()
        assert (out1 / "epochs.jsonl").read_text() == (out2 / "epochs.jsonl").read_text()

    def test_config_file_with_flag_override(self, data_dir, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"hidden": 10, "max_epochs": 9,
                                           "max_length": 20, "batch_size": 8}))
        out = tmp_path / "run"
        code = main(["train", "--corpus", str(data_dir / "corpus.jsonl"),
                     "--ontology", str(data_dir / "ontology.json"),
                     "--domain", "hotel", "--out", str(out),
                     "--config", str(config_path), "--max-epochs", "2"])
        assert code == 0
        entries = (out / "epochs.jsonl").read_text().strip().splitlines()
        assert len(entries) == 2  # the flag beat the config file

    @pytest.mark.parametrize("raw", [[1, 2], {"bogus": 1}, {"hidden": "100"}])
    def test_malformed_config_exits_2(self, data_dir, tmp_path, capsys, raw):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        code = main(["train", "--corpus", str(data_dir / "corpus.jsonl"),
                     "--ontology", str(data_dir / "ontology.json"),
                     "--out", str(tmp_path / "run"), "--config", str(config_path)])
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


    def test_non_positive_clip_norm_exits_2(self, data_dir, tmp_path, capsys):
        code = main(["train", "--corpus", str(data_dir / "corpus.jsonl"),
                     "--ontology", str(data_dir / "ontology.json"),
                     "--out", str(tmp_path / "run"), "--clip-norm", "-1"])
        assert code == 2
        assert "clip_norm" in capsys.readouterr().err


class TestAdapt:
    def test_adapts_checkpoint(self, data_dir, small_checkpoint, tmp_path):
        out = tmp_path / "adapted"
        code = main(["adapt", "--checkpoint", str(small_checkpoint),
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--domain", "hotel",
                     "--fraction", "0.5", "--out", str(out),
                     "--hidden", "12", "--max-epochs", "2", "--seed", "2",
                     "--max-length", "25", "--batch-size", "8"])
        assert code == 0
        assert (out / "checkpoint.ckpt").exists()

    def test_fingerprint_mismatch_exits_3(self, small_checkpoint, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"zoo": {"inform": {"animal": "informable"}}}))
        code = main(["adapt", "--checkpoint", str(small_checkpoint),
                     "--corpus", str(tmp_path / "irrelevant.jsonl"),
                     "--ontology", str(other),
                     "--fraction", "0.5", "--out", str(tmp_path / "x")])
        assert code == 3
        assert "fingerprint" in capsys.readouterr().err

    def test_zero_fraction_exits_2(self, data_dir, small_checkpoint, tmp_path):
        code = main(["adapt", "--checkpoint", str(small_checkpoint),
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--fraction", "0", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_corrupt_checkpoint_exits_3(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"TREENLG1\n" + b"\x42" * 16)
        code = main(["generate", "--checkpoint", str(bad),
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--out", str(tmp_path / "g.jsonl")])
        assert code == 3
        assert "corrupt" in capsys.readouterr().err


    def test_misshaped_tensor_exits_3(self, data_dir, small_checkpoint, tmp_path, capsys):
        ckpt = load_checkpoint(small_checkpoint)
        hidden = ckpt.model.hidden
        ckpt.model.params["dec.h"] = np.zeros((7 * hidden, hidden - 1))
        bad = tmp_path / "misshaped.ckpt"
        save_checkpoint(bad, ckpt.model, ckpt.config, ckpt.epoch, ckpt.dev_metrics)
        code = main(["generate", "--checkpoint", str(bad),
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--out", str(tmp_path / "g.jsonl")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert len(err) == 1 and "dec.h" in err[0]

    def test_version_1_checkpoint_exits_3(self, data_dir, small_checkpoint, tmp_path, capsys):
        """Version 1 held one tensor per gate; it is refused, not converted."""
        data = small_checkpoint.read_bytes()
        magic = b"TREENLG1\n"
        (length,) = struct.unpack_from("<Q", data, len(magic))
        start = len(magic) + 8
        header = json.loads(data[start:start + length])
        assert header["version"] == 2
        header["version"] = 1
        raw = json.dumps(header).encode()
        old = tmp_path / "v1.ckpt"
        old.write_bytes(magic + struct.pack("<Q", len(raw)) + raw + data[start + length:])
        code = main(["generate", "--checkpoint", str(old),
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--out", str(tmp_path / "g.jsonl")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert len(err) == 1 and "version 1" in err[0]

    def test_non_finite_tensor_exits_3(self, data_dir, small_checkpoint, tmp_path, capsys):
        data = small_checkpoint.read_bytes()
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(data[:-8] + np.float64(np.nan).tobytes())
        code = main(["generate", "--checkpoint", str(bad),
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--out", str(tmp_path / "g.jsonl")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert len(err) == 1 and "non-finite" in err[0]


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--fractions", "abc"], ["sweep", "--fractions", "0.1,,"],
        ["sweep", "--fractions", "1.5"], ["sweep", "--seeds", "x"],
        ["sweep", "--seeds", "-1"], ["sweep", "--workers", "0"], ["sweep", "--workers", "-2"],
        ["synth", "--seed", "-1"], ["synth", "--srs-per-domain", "-3"],
        ["gradcheck", "--hidden", "0"], ["gradcheck", "--step", "0"],
        ["gradcheck", "--tolerance", "nan"], ["train", "--seed", "-1"],
        ["train", "--init-scale", "inf"], ["generate", "--split", "nope"]], ids=" ".join)
    def test_exits_2_with_one_line(self, data_dir, small_checkpoint, tmp_path, capsys, argv):
        data = ["--corpus", str(data_dir / "corpus.jsonl"),
                "--ontology", str(data_dir / "ontology.json")]
        rest = {"sweep": data + ["--source", "restaurant", "--target", "hotel",
                                 "--out", str(tmp_path / "sweep")],
                "synth": ["--out", str(tmp_path / "synth")],
                "gradcheck": [],
                "train": data + ["--out", str(tmp_path / "train")],
                "generate": ["--checkpoint", str(small_checkpoint), "--corpus",
                             str(data_dir / "corpus.jsonl"), "--out", str(tmp_path / "g.jsonl")]}
        code = main(argv + rest[argv[0]])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "synth").exists() and not (tmp_path / "g.jsonl").exists()


class TestNumericWarnings:
    def test_overflowing_init_scale_exits_2_with_one_line(self, tiny_run, tmp_path):
        """numpy's overflow warnings would print lines of their own: the
        package's finiteness checks report the failure, in one line."""
        done = subprocess.run(
            [sys.executable, "-m", "treenlg", "train",
             "--corpus", str(tiny_run / "corpus.jsonl"),
             "--ontology", str(tiny_run / "ontology.json"), "--out", str(tmp_path / "run"),
             "--hidden", "3", "--max-epochs", "1", "--init-scale", "1e200"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])})
        assert done.returncode == 2
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite values"), err


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A five-SR-per-domain corpus and a one-epoch checkpoint trained on it."""
    out = tmp_path_factory.mktemp("tiny")
    assert main(["synth", "--out", str(out), "--seed", "1", "--srs-per-domain", "5"]) == 0
    assert main(["train", "--corpus", str(out / "corpus.jsonl"),
                 "--ontology", str(out / "ontology.json"), "--out", str(out),
                 "--hidden", "3", "--max-epochs", "1"]) == 0
    return out


# Option values: valid and invalid numbers, lists, names and splits.  Sizes
# stay tiny (hidden and counts at most 3), so a run that is accepted takes
# a fraction of a second.
VALUE = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(
    ["0.5", "1e-3", "nan", "inf", "-inf", "1e308", "", "abc", "0.1,,", "0,1", "0.5,1",
     "tree+att", "flat-baseline", "tree+att,tree", "hotel", "restaurant", "test", "nope"]))
FUZZED = {
    "synth": ["--seed", "--srs-per-domain"],
    "train": ["--hidden", "--seed", "--dropout", "--batch-size", "--lr-scratch",
              "--init-scale", "--clip-norm", "--max-length", "--patience", "--domain"],
    "generate": ["--split", "--beam", "--max-length"],
    # --workers stays below 2 here: a valid count would start worker processes.
    "sweep": ["--fractions", "--seeds", "--modes", "--hidden", "--source", "--target"],
}


@st.composite
def command_lines(draw, data):
    command = draw(st.sampled_from(sorted(FUZZED)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(FUZZED[command]), unique=True, max_size=4)):
        argv += [flag, draw(VALUE)]
    if command == "sweep" and draw(st.booleans()):
        argv += ["--workers", draw(st.sampled_from(["-2", "0", "1", "x"]))]
    corpus = ["--corpus", str(data / "corpus.jsonl")]
    ontology = ["--ontology", str(data / "ontology.json")]
    tail = {"synth": ["--out", str(data / "synth")],
            "train": corpus + ontology + ["--out", str(data / "train"), "--max-epochs", "1"],
            "generate": corpus + ["--checkpoint", str(data / "checkpoint.ckpt"),
                                  "--out", str(data / "gen.jsonl")],
            "sweep": corpus + ontology + ["--source", "restaurant", "--target", "hotel",
                                          "--fractions", "0.5", "--seeds", "0",
                                          "--modes", "flat-baseline", "--max-epochs", "1",
                                          "--hidden", "2", "--out", str(data / "sweep")]}
    # argparse keeps the last value of a repeated flag, so the drawn ones win.
    return [command] + tail[command] + argv[1:]


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_command_line_ends_in_a_documented_exit_code(self, tiny_run, data):
        argv = data.draw(command_lines(tiny_run))
        assert main(argv) in (0, 2, 3, 4), argv


class TestGenerateEvaluate:
    def test_generate_caps_hypotheses_at_beam(self, data_dir, small_checkpoint, tmp_path):
        out = tmp_path / "gen.jsonl"
        code = main(["generate", "--checkpoint", str(small_checkpoint),
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--split", "test", "--max-length", "25",
                     "--out", str(out)])
        assert code == 0
        lines = [json.loads(x) for x in out.read_text().strip().splitlines()]
        assert lines
        assert all(1 <= len(line["hyps"]) <= 10 for line in lines)

    def test_generate_beam_defaults_to_checkpoint_config(self, data_dir, small_checkpoint,
                                                         tmp_path):
        ckpt = load_checkpoint(small_checkpoint)
        path = tmp_path / "beam2.ckpt"
        save_checkpoint(path, ckpt.model, {**ckpt.config, "beam_size": 2}, ckpt.epoch,
                        ckpt.dev_metrics)
        args = ["generate", "--checkpoint", str(path),
                "--corpus", str(data_dir / "corpus.jsonl"),
                "--split", "test", "--max-length", "25"]
        assert main(args + ["--out", str(tmp_path / "default.jsonl")]) == 0
        assert main(args + ["--beam", "2", "--out", str(tmp_path / "explicit.jsonl")]) == 0
        default = (tmp_path / "default.jsonl").read_text()
        assert default == (tmp_path / "explicit.jsonl").read_text()
        assert all(len(json.loads(x)["hyps"]) <= 2 for x in default.splitlines())

    def test_evaluate_identity_scores_perfectly(self, data_dir, tmp_path):
        ontology = load_ontology(data_dir / "ontology.json")
        corpus = load_corpus(data_dir / "corpus.jsonl", ontology)
        test_examples = corpus.split("test")
        lines = []
        for ex in test_examples:
            ref = delexicalize(ex.sr, ex.text).text
            lines.append({"sr": ex.sr.to_json(),
                          "hyps": [{"delex": ref, "text": ex.text, "score": 0.0}],
                          "trace": None})
        gen_path = tmp_path / "gen.jsonl"
        gen_path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        out = tmp_path / "metrics.json"
        code = main(["evaluate", "--generations", str(gen_path),
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--ontology", str(data_dir / "ontology.json"),
                     "--split", "test", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["top1"]["bleu"] == pytest.approx(1.0)
        assert report["top1"]["ser"] == 0.0

    def test_evaluate_seen_unseen_partition(self, data_dir, tmp_path):
        ontology = load_ontology(data_dir / "ontology.json")
        corpus = load_corpus(data_dir / "corpus.jsonl", ontology)
        test_examples = corpus.split("test")
        lines = [{"sr": ex.sr.to_json(),
                  "hyps": [{"delex": delexicalize(ex.sr, ex.text).text,
                            "text": ex.text, "score": 0.0}],
                  "trace": None} for ex in test_examples]
        gen_path = tmp_path / "gen.jsonl"
        gen_path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        out = tmp_path / "metrics.json"
        code = main(["evaluate", "--generations", str(gen_path),
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--ontology", str(data_dir / "ontology.json"),
                     "--split", "test", "--seen-unseen", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        counts = report["seen_unseen"]
        assert counts["seen"]["n"] + counts["unseen"]["n"] == len(test_examples)

    def test_mismatched_lengths_exit_3(self, data_dir, tmp_path):
        gen_path = tmp_path / "gen.jsonl"
        gen_path.write_text(json.dumps({"sr": [], "hyps": [
            {"delex": "x", "text": "x", "score": 0.0}], "trace": None}) + "\n")
        code = main(["evaluate", "--generations", str(gen_path),
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--ontology", str(data_dir / "ontology.json"),
                     "--split", "test"])
        assert code == 3

    def evaluate_exit(self, corpus_path, ontology_path, gen_lines, tmp_path, capsys):
        gen_path = tmp_path / "gen.jsonl"
        gen_path.write_text("".join(json.dumps(x) + "\n" for x in gen_lines))
        code = main(["evaluate", "--generations", str(gen_path), "--corpus", str(corpus_path),
                     "--ontology", str(ontology_path), "--split", "test"])
        return code, capsys.readouterr().err.strip().splitlines()

    def test_empty_split_and_generations_exit_2(self, data_dir, tmp_path, capsys):
        corpus_path = tmp_path / "train_only.jsonl"
        corpus_path.write_text("".join(
            line + "\n" for line in (data_dir / "corpus.jsonl").read_text().splitlines()
            if json.loads(line)["split"] == "train"))
        code, err = self.evaluate_exit(corpus_path, data_dir / "ontology.json", [],
                                       tmp_path, capsys)
        assert code == 2 and len(err) == 1

    @pytest.mark.parametrize("line", [{"sr": [], "trace": None},
                                      {"sr": [], "hyps": [], "trace": None},
                                      {"sr": [], "hyps": [{"delex": 5}], "trace": None}])
    def test_line_without_usable_hypotheses_exits_2(self, data_dir, tmp_path, capsys, line):
        n = len(load_corpus(data_dir / "corpus.jsonl",
                            load_ontology(data_dir / "ontology.json")).split("test"))
        code, err = self.evaluate_exit(data_dir / "corpus.jsonl", data_dir / "ontology.json",
                                       [line] * n, tmp_path, capsys)
        assert code == 2 and len(err) == 1


class TestTrace:
    def sr_with_three_informables(self, corpus):
        for ex in corpus.split("train"):
            if len(ex.sr.informable_entries()) == 3 and len(ex.sr) == 3:
                return ex.sr
        raise AssertionError("fixture corpus lacks a 3-informable SR")

    def test_trace_matrices(self, memorized, tmp_path):
        sr = self.sr_with_three_informables(memorized["corpus"])
        sr_path = tmp_path / "sr.json"
        sr_path.write_text(json.dumps(sr.to_json()))
        out = tmp_path / "trace"
        code = main(["trace", "--checkpoint", str(memorized["checkpoint_path"]),
                     "--sr", str(sr_path), "--max-length", "40",
                     "--out", str(out)])
        assert code == 0
        trace = json.loads((out / "trace.json").read_text())
        assert len(trace["steps"]) == 3
        for layer in ("domain", "act", "slot"):
            lines = (out / f"{layer}.csv").read_text().strip().splitlines()
            assert len(lines) == 4  # header + 3 placeholder steps
            for line in lines[1:]:
                values = [float(v) for v in line.split(",")[1:]]
                assert sum(values) == pytest.approx(1.0, abs=1e-9)

    def test_rerun_identical(self, memorized, tmp_path):
        sr = self.sr_with_three_informables(memorized["corpus"])
        sr_path = tmp_path / "sr.json"
        sr_path.write_text(json.dumps(sr.to_json()))
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        for out in (out1, out2):
            assert main(["trace", "--checkpoint", str(memorized["checkpoint_path"]),
                         "--sr", str(sr_path), "--max-length", "40",
                         "--out", str(out)]) == 0
        for name in ("trace.json", "domain.csv", "act.csv", "slot.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_flat_checkpoint_exits_4(self, data_dir, tmp_path, capsys):
        run = tmp_path / "flatrun"
        assert main(["train", "--corpus", str(data_dir / "corpus.jsonl"),
                     "--ontology", str(data_dir / "ontology.json"),
                     "--domain", "hotel", "--mode", "flat-baseline",
                     "--out", str(run), "--hidden", "8", "--max-epochs", "1",
                     "--max-length", "15", "--batch-size", "8"]) == 0
        sr_path = tmp_path / "sr.json"
        sr_path.write_text(json.dumps([{"domain": "hotel", "act": "inform",
                                        "slot": "area", "value": "west"}]))
        code = main(["trace", "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--sr", str(sr_path), "--out", str(tmp_path / "x")])
        assert code == 4
        assert "no attention" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_small_check_passes(self, capsys):
        code = main(["gradcheck", "--hidden", "4", "--seed", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        assert report["objectives"]["plain"]["max_rel_err"] <= 1e-6
        # One entry per parameter tensor, so one per gate stack.
        assert sorted(report["objectives"]["plain"]["per_param"]) == [
            "dec.b", "dec.emb", "dec.h", "dec.out.w", "dec.s", "dec.x",
            "enc.b", "enc.e", "enc.emb", "enc.h"]
