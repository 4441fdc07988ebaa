"""Command-line interface.

Subcommands cover the whole pipeline: synthetic data generation, corpus
preparation, training, adaptation, generation, evaluation, the adaptation
sweep, attention-trace export and a gradient self-check.  Options can come
from a JSON config file (``--config``); explicit flags win over the file.

Exit codes: 0 success, 2 bad input, 3 checkpoint/data incompatibility,
4 wrong model mode for the request.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import CompatibilityError, ConfigError, ModeError, ParseError, TreeNlgError
from .generation import DEFAULT_MAX_LENGTH, beam_decode, greedy_decode
from .metrics import seen_unseen_split
from .model import MODES, load_checkpoint, save_checkpoint
from .semantics import (
    SemanticRepresentation,
    delexicalize,
    load_corpus,
    load_ontology,
)
from .synth import SynthSpec, synth_corpus
from .training import (
    TrainConfig,
    adapt,
    gradient_check_report,
    results_to_csv,
    run_matrix,
    score_hypotheses,
    train,
)


def _write_text(path: Path, text: str) -> None:
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_jsonl(path: Path, records) -> None:
    _write_text(path, "\n".join(json.dumps(r) for r in records) + "\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with TrainConfig fields")
    for f in fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.name == "mode":
            parser.add_argument(flag, default=None, choices=MODES)
        else:
            parser.add_argument(flag, type=int if f.type == "int" else float, default=None)
    parser.add_argument("--no-clip", action="store_true",
                        help="disable gradient-norm clipping")


def _config_from_args(args: argparse.Namespace) -> TrainConfig:
    values = json.loads(Path(args.config).read_text()) if args.config else {}
    if isinstance(values, dict):  # from_json rejects anything else
        for f in fields(TrainConfig):
            if getattr(args, f.name, None) is not None:
                values[f.name] = getattr(args, f.name)
        if getattr(args, "no_clip", False):
            values["clip_norm"] = None
    return TrainConfig.from_json(values)


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _save_outcome(outcome, out: Path, summary: str) -> None:
    checkpoint = outcome.checkpoint
    save_checkpoint(out / "checkpoint.ckpt", checkpoint.model, checkpoint.config,
                    checkpoint.epoch, checkpoint.dev_metrics)
    outcome.write_log(out)
    print(f"{summary}: {checkpoint.dev_metrics}")


def _check_fingerprint(checkpoint, ontology_path: str | None) -> None:
    if ontology_path is None:
        return
    ontology = load_ontology(ontology_path)
    if ontology.fingerprint() != checkpoint.ontology_fingerprint:
        raise CompatibilityError(
            f"ontology {ontology_path} does not match the checkpoint "
            f"(fingerprint {ontology.fingerprint()} vs {checkpoint.ontology_fingerprint})")


def cmd_synth(args) -> int:
    spec = SynthSpec.from_file(args.spec) if args.spec else SynthSpec.default()
    if args.srs_per_domain is not None:
        spec.srs_per_domain = args.srs_per_domain
        spec.validate()
    corpus, ontology = synth_corpus(spec, args.seed)
    out = _out_dir(args.out)
    ontology.to_file(out / "ontology.json")
    corpus.to_file(out / "corpus.jsonl")
    _write_json(out / "synth_spec.json", {
        "domains": spec.domains, "acts": spec.acts,
        "patterns": spec.patterns, "srs_per_domain": spec.srs_per_domain,
        "seed": args.seed})
    print(f"wrote {len(corpus)} examples over {len(ontology.domains)} domains to {out}")
    return 0


def cmd_prepare(args) -> int:
    ontology = load_ontology(args.ontology)
    corpus = load_corpus(args.corpus, ontology)
    out = _out_dir(args.out)
    records = []
    unmatched_total = 0
    informable_total = 0
    multi_domain = 0
    for ex in corpus.examples:
        result = delexicalize(ex.sr, ex.text)
        unmatched_total += len(result.unmatched)
        informable_total += len(ex.sr.informable_entries())
        multi_domain += int(ex.is_multi_domain)
        records.append({"sr": ex.sr.to_json(), "text": result.text,
                        "split": ex.split,
                        "unmatched": [[e.domain, e.act, e.slot] for e in result.unmatched]})
    _write_jsonl(out / "delex.jsonl", records)
    report = {
        "examples": len(corpus),
        "informable_values": informable_total,
        "unmatched_values": unmatched_total,
        "unmatched_rate": (unmatched_total / informable_total) if informable_total else 0.0,
        "multi_domain_turns": multi_domain,
        "distinct_sr_per_domain": corpus.distinct_sr_counts(),
    }
    _write_json(out / "report.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    config = _config_from_args(args)
    ontology = load_ontology(args.ontology)
    corpus = load_corpus(args.corpus, ontology)
    if args.domain:
        corpus = corpus.filter_domain(args.domain)
    out = _out_dir(args.out)
    log_fn = print if args.verbose else None
    outcome = train(corpus, config, ontology, log_fn=log_fn)
    _save_outcome(outcome, out, f"best epoch {outcome.checkpoint.epoch}")
    return 0


def cmd_adapt(args) -> int:
    config = _config_from_args(args)
    checkpoint = load_checkpoint(args.checkpoint)
    _check_fingerprint(checkpoint, args.ontology)
    corpus = load_corpus(args.corpus, checkpoint.model.ontology)
    if args.domain:
        corpus = corpus.filter_domain(args.domain)
    out = _out_dir(args.out)
    log_fn = print if args.verbose else None
    outcome = adapt(checkpoint, corpus, args.fraction, config,
                    seed=args.seed if args.seed is not None else config.seed,
                    log_fn=log_fn)
    _save_outcome(outcome, out, f"adapted on fraction {args.fraction}")
    return 0


def cmd_generate(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    _check_fingerprint(checkpoint, args.ontology)
    model = checkpoint.model
    corpus = load_corpus(args.corpus, model.ontology)
    examples = corpus.split(args.split) if args.split else corpus.examples
    if not examples:
        raise ConfigError(f"no examples to generate in split {args.split!r}")
    beam = args.beam if args.beam is not None else \
        TrainConfig.from_json(checkpoint.config).beam_size
    lines = []
    for ex in examples:
        if args.greedy:
            result = greedy_decode(model, ex.sr, max_length=args.max_length)
        else:
            result = beam_decode(model, ex.sr, beam_size=beam, max_length=args.max_length)
        lines.append(result.to_json(ex.sr, model.ontology))
    _write_jsonl(Path(args.out), lines)
    print(f"wrote {len(lines)} generations to {args.out}")
    return 0


def _read_hypotheses(path: str) -> list[list[str]]:
    """The delexicalized hypotheses of each non-blank generations line, best first."""
    out = []
    for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            hyps = [h["delex"] for h in json.loads(line)["hyps"]]
        except (KeyError, TypeError):
            hyps = []
        if not hyps or not all(isinstance(h, str) for h in hyps):
            raise ParseError(f'{path}:{n}: expected a non-empty "hyps" list of '
                             f'objects with a string "delex"')
        out.append(hyps)
    return out


def cmd_evaluate(args) -> int:
    ontology = load_ontology(args.ontology)
    corpus = load_corpus(args.corpus, ontology)
    examples = corpus.split(args.split) if args.split else corpus.examples
    generations = _read_hypotheses(args.generations)
    if len(generations) != len(examples):
        raise CompatibilityError(
            f"{len(generations)} generation lines for {len(examples)} examples")
    if not examples:
        raise ConfigError(f"no examples to evaluate in split {args.split!r}")

    k = max(len(hyps) for hyps in generations)
    # Lines with fewer than k hypotheses repeat their last one.
    per_rank = [score_hypotheses(examples, [hyps[min(r, len(hyps) - 1)] for hyps in generations])
                for r in range(k)]
    report = {
        "n": len(examples),
        "top1": per_rank[0],
        "topk_average": {
            "k": k,
            "ser": sum(m["ser"] for m in per_rank) / k,
            "bleu": sum(m["bleu"] for m in per_rank) / k,
        },
    }
    if args.seen_unseen:
        top1 = {id(ex): hyps[0] for ex, hyps in zip(examples, generations)}
        subsets = seen_unseen_split(examples, corpus.split("train"))
        report["seen_unseen"] = {
            label: {"n": len(subset),
                    **score_hypotheses(subset, [top1[id(ex)] for ex in subset])}
            if subset else {"n": 0}
            for label, subset in zip(("seen", "unseen"), subsets)}
    if args.out:
        _write_json(Path(args.out), report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _number_list(text: str, convert, flag: str) -> list:
    try:
        return [convert(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of numbers, "
                          f"got {text!r}") from None


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    ontology = load_ontology(args.ontology)
    corpus = load_corpus(args.corpus, ontology)
    fractions = _number_list(args.fractions, float, "--fractions")
    seeds = _number_list(args.seeds, int, "--seeds")
    modes = args.modes.split(",")
    out = _out_dir(args.out)
    log_fn = print if args.verbose else None
    rows, aggregates = run_matrix(corpus, ontology, args.source, args.target,
                                  fractions, seeds, modes, config,
                                  workers=args.workers, log_fn=log_fn)
    _write_text(out / "results.csv", results_to_csv(rows, aggregates))
    _write_json(out / "aggregates.json", aggregates)
    print(f"wrote {len(rows)} rows and {len(aggregates)} aggregates to {out}")
    return 0


def cmd_trace(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    _check_fingerprint(checkpoint, args.ontology)
    model = checkpoint.model
    if not model.uses_attention:
        raise ModeError(f"no attention in mode {model.mode!r}")
    sr_raw = json.loads(Path(args.sr).read_text())
    sr = SemanticRepresentation.from_json(sr_raw, model.ontology)
    result = greedy_decode(model, sr, max_length=args.max_length)
    trace = result.top.trace
    out = _out_dir(args.out)
    _write_json(out / "trace.json", trace.to_json(model.ontology))
    for layer in ("domain", "act", "slot"):
        _write_text(out / f"{layer}.csv", trace.to_csv(layer, model.ontology))
    print(f"wrote trace with {len(trace.entries)} placeholder steps to {out}")
    return 0


def cmd_gradcheck(args) -> int:
    report = gradient_check_report(hidden=args.hidden, seed=args.seed,
                                   h=args.step, tolerance=args.tolerance)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treenlg",
        description="Tree-structured semantic encoding and generation for dialogue NLG")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit a synthetic corpus and ontology")
    p.add_argument("--out", required=True)
    p.add_argument("--spec", help="synthetic-spec JSON (defaults to the built-in spec)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--srs-per-domain", type=int, default=None)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("prepare", help="delexicalize a corpus and report data quality")
    p.add_argument("--corpus", required=True)
    p.add_argument("--ontology", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train from scratch")
    p.add_argument("--corpus", required=True)
    p.add_argument("--ontology", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--domain", help="restrict to one domain's examples")
    p.add_argument("--verbose", action="store_true")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("adapt", help="fine-tune a checkpoint on a target domain")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--ontology", help="optional cross-check against the checkpoint")
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--domain", help="restrict to one domain's examples")
    p.add_argument("--out", required=True)
    p.add_argument("--verbose", action="store_true")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_adapt)

    p = sub.add_parser("generate", help="decode a corpus split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--ontology", help="optional cross-check against the checkpoint")
    p.add_argument("--split", default="test")
    p.add_argument("--beam", type=int, default=None,
                   help="beam size (default: the checkpoint config's beam_size)")
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--max-length", type=int, default=DEFAULT_MAX_LENGTH)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("evaluate", help="score generations against references")
    p.add_argument("--generations", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--ontology", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--seen-unseen", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("sweep", help="mode x fraction x seed adaptation matrix")
    p.add_argument("--corpus", required=True)
    p.add_argument("--ontology", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--fractions", default="0.0125,0.05,0.1,0.5")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--modes", default="tree+att,flat-baseline")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--verbose", action="store_true")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("trace", help="export attention distributions for one SR")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sr", required=True, help="JSON file with the SR entry list")
    p.add_argument("--ontology", help="optional cross-check against the checkpoint")
    p.add_argument("--max-length", type=int, default=DEFAULT_MAX_LENGTH)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("gradcheck", help="finite-difference check on a small model")
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Overflow and invalid-value warnings would print lines of their
        # own; the package's finiteness checks report such a failure.
        with np.errstate(all="ignore"):
            return args.fn(args)
    except ModeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CompatibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TreeNlgError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
