"""Command-line entry point.

Subcommands wire the full workflow: inject patterns into a test corpus,
build per-pattern ablation sets, report corpus statistics, sample dialogs
for manual review, produce retrieval-baseline predictions, and score
predictions under the masked evaluation protocol.

Exit codes: 0 success, 1 usage/configuration error, 2 parse or data error,
3 planner shortfall (too few eligible dialogs, or too few under the
per-dialog cap). Diagnostics go to stderr; stdout carries data only when
--output is absent.

Inputs are UTF-8. A bAbI corpus, its .origin sidecar, a manifest, a candidate
file and a prediction file are read line by line, and a line ends at LF, CR
or CRLF only; an SMD corpus, --config and --compare files are JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from . import NatvarError, __version__

# Each command imports the natvar modules it runs inside its own function, so
# a process pays the import (and, without a bytecode cache, the compile) of
# its own path only.


class UsageError(NatvarError):
    exit_code = 1
    label = "usage error"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="natvar", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"natvar {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_corpus_args(sp):
        sp.add_argument("--input", required=True, help="corpus file")
        sp.add_argument("--format", required=True, choices=("babi", "smd"))

    def add_plan_args(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--preset", choices=("smd-table1", "babi-table1"))
        g.add_argument("--config", help="plan config JSON file")
        sp.add_argument("--seed", type=int, help="plan seed; overrides the config's (default: its seed, or 0)")
        sp.add_argument("--allow-shortfall", action="store_true")

    sp = sub.add_parser("inject", help="apply a full injection plan to a test corpus")
    add_corpus_args(sp)
    add_plan_args(sp)
    sp.add_argument("--output", help="updated corpus path (stdout when absent; SMD only)")

    sp = sub.add_parser("ablate", help="one updated corpus per single pattern")
    add_corpus_args(sp)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--pattern", help="pattern name (see `natvar patterns`)")
    g.add_argument("--all", action="store_true", help="every pattern valid for the format")
    add_plan_args(sp)
    sp.add_argument("--output-dir", required=True)

    sp = sub.add_parser("stats", help="corpus statistics (counts, overlap, mean utterances)")
    add_corpus_args(sp)
    sp.add_argument("--output")

    sp = sub.add_parser("eval", help="masked evaluation of a prediction file")
    sp.add_argument("--predictions", required=True)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--format", required=True, choices=("babi", "smd"))
    sp.add_argument("--entity-scope", choices=("global", "dialog"), default="global")
    sp.add_argument("--compare", help="report JSON of the original run to compare against")
    sp.add_argument("--output", help="base path; writes BASE.report.txt/.report.json")

    sp = sub.add_parser("review", help="sample updated dialogs for manual review")
    add_corpus_args(sp)
    sp.add_argument("--fraction", type=float, default=0.2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output")

    sp = sub.add_parser("baseline", help="tf-idf retrieval predictions for a corpus")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--format", required=True, choices=("babi", "smd"))
    sp.add_argument("--candidates", help="candidate file; defaults to the corpus gold responses")
    sp.add_argument("--manifest", help="manifest file; defaults to exporting from the corpus")
    sp.add_argument("--out", required=True, help="predictions output path")

    sp = sub.add_parser("patterns", help="print the pattern catalog")
    return p


def _resolve_config(args, fmt: str):
    from .planner import PlanError, config_from_dict, preset_config

    if args.preset:
        cfg = preset_config(args.preset, seed=args.seed or 0,
                            allow_shortfall=args.allow_shortfall)
        expected = "smd" if args.preset.startswith("smd") else "babi"
        if expected != fmt:
            raise UsageError(f"preset {args.preset} does not match --format {fmt}")
        return cfg
    try:
        with open(args.config, "r", encoding="utf-8") as f:
            d = json.load(f)
    except (OSError, ValueError, RecursionError) as e:
        raise PlanError(f"cannot read config {args.config}: {e}") from e
    if not isinstance(d, dict):
        raise PlanError(f"config {args.config}: expected a JSON object")
    if args.seed is not None:
        d["seed"] = args.seed
    d["allow_shortfall"] = args.allow_shortfall or d.get("allow_shortfall", False)
    try:
        return config_from_dict(d)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as e:
        raise PlanError(f"invalid config {args.config}: {type(e).__name__}: {e}") from e


def _plan_dump(pln) -> bytes:
    lines = [f"{a.dialog_id}\t{a.pattern}\t{a.anchor.turn_index}" for a in pln.assignments]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def _inject_diagnostics(pln, updated, cfg) -> list[str]:
    from .planner import overlap_histogram, shortfall_text

    notes = []
    counts: dict[str, int] = {}
    for a in pln.assignments:
        counts[a.pattern] = counts.get(a.pattern, 0) + 1
    notes.append("assignments per pattern: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    hist = overlap_histogram(updated)
    notes.append("overlap histogram (>=k): " + ", ".join(f">={k}:{v}" for k, v in sorted(hist.items())))
    if cfg.histogram_targets:
        notes.append(f"overlap bucket targets: {list(cfg.histogram_targets)}")
    if pln.histogram_note:
        notes.append(pln.histogram_note)
    for shortfall in pln.shortfalls:
        notes.append(f"shortfall recorded: {shortfall_text(shortfall)}")
    return notes


def _write_run(base, subcommand: str, config: dict, inputs: dict, seed: int | None,
               outputs: list[str], notes=()) -> None:
    """Write BASE.run.json, the reproducibility record of one run.

    `inputs` maps each input's name to the sha256 of its bytes.
    """
    record = {
        "tool": "natvar",
        "tool_version": __version__,
        "subcommand": subcommand,
        "config": config,
        "input_checksums": inputs,
        "seed": seed,
        "outputs": outputs,
        "notes": list(notes),
    }
    Path(f"{base}.run.json").write_text(json.dumps(record, sort_keys=True, indent=2) + "\n",
                                        encoding="utf-8")


def _save_with_manifest(corpus, out: Path) -> list[str]:
    """Write the corpus, its bAbI sidecar and OUT.manifest.tsv, each streamed; returns the paths."""
    from .io import save_corpus, write_chunks
    from .manifest import export_chunks

    written = [str(p) for p in save_corpus(corpus, out)]
    write_chunks(f"{out}.manifest.tsv", export_chunks(corpus))
    written.append(f"{out}.manifest.tsv")
    return written


def cmd_inject(args) -> int:
    if args.format == "babi" and not args.output:
        raise UsageError("inject --format babi needs --output: the injection marks go to "
                         "OUTPUT.origin and OUTPUT.manifest.tsv, not to stdout")
    from .io import corpus_chunks, load_corpus, sha256_hex
    from .planner import execute, plan

    corpus = load_corpus(args.input, args.format)
    cfg = _resolve_config(args, args.format)
    pln = plan(corpus, cfg)
    updated = execute(corpus, pln)
    notes = _inject_diagnostics(pln, updated, cfg)
    for note in notes:
        print(note, file=sys.stderr)
    if args.output:
        out = Path(args.output)
        written = _save_with_manifest(updated, out)
        Path(f"{out}.plan.tsv").write_bytes(_plan_dump(pln))
        written.append(f"{out}.plan.tsv")
        _write_run(out, "inject", cfg.to_dict(),
                   {args.input: sha256_hex(corpus.source_bytes)}, cfg.seed, written, notes)
    else:
        sys.stdout.buffer.writelines(corpus_chunks(updated))
    return 0


def cmd_ablate(args) -> int:
    from .io import load_corpus, sha256_hex
    from .model import mean_utterances
    from .planner import PlanError, ablate, check_patterns
    from .recipes import patterns_for_dataset

    corpus = load_corpus(args.input, args.format)
    cfg = _resolve_config(args, args.format)
    check_patterns(cfg.targets, args.format)  # --all runs only the valid names
    if args.all:
        names = [p for p in patterns_for_dataset(args.format) if cfg.targets.get(p, 0) > 0]
        if not names:
            raise PlanError("ablate --all: no pattern has a target above 0")
    else:
        names = [args.pattern]
    outdir = Path(args.output_dir)
    ext = "txt" if args.format == "babi" else "json"
    inputs = {args.input: sha256_hex(corpus.source_bytes)}
    for name in names:
        updated = ablate(corpus, cfg, name)  # checks the name before any output
        outdir.mkdir(parents=True, exist_ok=True)
        out = outdir / f"{name}.{ext}"
        written = _save_with_manifest(updated, out)
        print(f"{name}: mean utterances/dialog = {mean_utterances(updated):.2f}", file=sys.stderr)
        _write_run(out, "ablate", dict(cfg.to_dict(), pattern=name), inputs, cfg.seed, written)
    return 0


def cmd_stats(args) -> int:
    from .io import load_corpus
    from .stats import corpus_stats

    text = corpus_stats(load_corpus(args.input, args.format))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_eval(args) -> int:
    from .io import load_corpus, sha256_hex
    from .manifest import check_corpus, parse_manifest, read_predictions
    from .metrics import compare, evaluate, read_report, render_comparison

    corpus = load_corpus(args.corpus, args.format)
    manifest_bytes = Path(args.manifest).read_bytes()
    manifest = parse_manifest(manifest_bytes)
    check_corpus(manifest, corpus)
    preds_bytes = Path(args.predictions).read_bytes()
    preds = read_predictions(preds_bytes, manifest)
    checksums = tuple((name, sha256_hex(data)) for name, data in (
        ("corpus", corpus.source_bytes), ("manifest", manifest_bytes),
        ("predictions", preds_bytes)))
    report = evaluate(preds, manifest, corpus, scope=args.entity_scope, checksums=checksums)
    out_text = report.render()
    if args.compare:
        original = read_report(Path(args.compare).read_bytes())
        out_text += "\n" + render_comparison(compare(original, report.to_dict()))
    if args.output:
        Path(args.output + ".report.txt").write_text(out_text, encoding="utf-8")
        Path(args.output + ".report.json").write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8")
        _write_run(args.output, "eval", {"entity_scope": args.entity_scope}, dict(checksums),
                   None, [args.output + ".report.txt", args.output + ".report.json"])
    else:
        sys.stdout.write(out_text)
    return 0


def cmd_review(args) -> int:
    from .io import load_corpus, sha256_hex
    from .planner import render_review

    corpus = load_corpus(args.input, args.format)
    text = render_review(corpus, args.fraction, args.seed)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        _write_run(args.output, "review", {"fraction": args.fraction},
                   {args.input: sha256_hex(corpus.source_bytes)}, args.seed, [args.output])
    else:
        sys.stdout.write(text)
    return 0


def cmd_baseline(args) -> int:
    from .baseline import candidates_from_corpus, load_candidates, predict
    from .io import load_corpus, sha256_hex
    from .manifest import check_corpus, export_manifest, parse_manifest

    corpus = load_corpus(args.corpus, args.format)
    if args.candidates:
        candidates = load_candidates(Path(args.candidates).read_bytes())
    else:
        candidates = candidates_from_corpus(corpus)
    if args.manifest:
        manifest = parse_manifest(Path(args.manifest).read_bytes())
        check_corpus(manifest, corpus)
    else:
        manifest = export_manifest(corpus)
    preds = predict(corpus, manifest, candidates)
    Path(args.out).write_bytes(("\n".join(preds.responses) + "\n").encode("utf-8")
                               if preds.responses else b"")
    _write_run(args.out, "baseline",
               {"candidates": args.candidates or "(corpus gold responses)"},
               {args.corpus: sha256_hex(corpus.source_bytes)}, None, [args.out])
    return 0


def cmd_patterns(args) -> int:
    from .catalog import CATALOG

    rows = [f"{'code':<8}{'class':<7}{'recipe':<8}name"]
    for e in CATALOG:
        rows.append(f"{e.code:<8}{e.klass:<7}{'yes' if e.has_recipe else '-':<8}{e.name}")
    sys.stdout.write("\n".join(rows) + "\n")
    return 0


_COMMANDS = {
    "inject": cmd_inject,
    "ablate": cmd_ablate,
    "stats": cmd_stats,
    "eval": cmd_eval,
    "review": cmd_review,
    "baseline": cmd_baseline,
    "patterns": cmd_patterns,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # The model is frozen values, tuples and strings, so a command makes no
    # reference cycles, yet the cyclic collector's passes over the growing
    # corpus cost about a tenth of a bAbI command, mostly during the parse.
    # Pause it for the command and give the caller back the state it had.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.cmd](args)
    except (NatvarError, OSError) as e:
        kind = type(e) if isinstance(e, NatvarError) else NatvarError
        print(f"{kind.label}: {e}", file=sys.stderr)
        if isinstance(e, UsageError):
            parser.print_usage(sys.stderr)
        return kind.exit_code
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
