"""The CLI success path end to end: the files each subcommand writes, the
run records beside them, and byte-identical `inject` output whatever the
interpreter's hash seed."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from natvar import cli
from natvar.manifest import export_chunks
from natvar.metrics import render_comparison
from natvar.planner import PRESETS
from natvar.synthetic import make_babi_bytes, make_smd_bytes

SRC = Path(__file__).resolve().parents[1] / "src"

CASES = {
    "smd": (lambda: make_smd_bytes(n_dialogs=30), "json", "misunderstanding_report",
            {"open_request_screening": 3, "misunderstanding_report": 3,
             "recipient_correction": 2}),
    "babi": (lambda: make_babi_bytes(n_dialogs=20), "txt", "other_correction",
             {"open_request_screening": 3, "other_correction": 3,
              "capability_expansion": 2}),
}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _step(root: Path, argv: list) -> set[str]:
    """Run one subcommand; returns the paths (relative to root) it created."""
    before = {p for p in root.rglob("*") if p.is_file()}
    assert cli.main([str(a) for a in argv]) == 0
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()} - {
        str(p.relative_to(root)) for p in before}


def _check_record(root: Path, name: str, subcommand: str, inputs: dict) -> None:
    record = json.loads((root / f"{name}.run.json").read_text(encoding="utf-8"))
    assert record["subcommand"] == subcommand
    assert record["input_checksums"] == {k: _sha(Path(p)) for k, p in inputs.items()}
    assert record["outputs"] and all(Path(p).is_file() for p in record["outputs"])


def test_ablate_all_writes_what_each_single_pattern_run_writes(capsys, tmp_path):
    # `ablate --all` reuses across its corpora the outputs of the dialogs it
    # does not splice; none of one corpus's outputs may reach another. Each
    # single-pattern run is its own interpreter, so it starts with no outputs.
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(make_babi_bytes(n_dialogs=40))
    plan_args = ["--input", corpus, "--format", "babi", "--preset", "babi-table1",
                 "--allow-shortfall"]
    assert cli.main([str(a) for a in ["ablate", *plan_args, "--all", "--output-dir",
                                      tmp_path / "all"]]) == 0
    capsys.readouterr()
    patterns = list(PRESETS["babi-table1"]["targets"])
    assert len(patterns) == 7 and len(list((tmp_path / "all").iterdir())) == 7 * 5
    for pattern in patterns:
        one = tmp_path / pattern
        subprocess.run([sys.executable, "-m", "natvar.cli", "ablate", *map(str, plan_args),
                        "--pattern", pattern, "--output-dir", str(one)], check=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC)), stderr=subprocess.DEVNULL)
        names = sorted(p.name for p in one.iterdir() if not p.name.endswith(".run.json"))
        assert names == sorted(f"{pattern}.txt{ext}"
                               for ext in ("", ".origin", ".manifest.tsv", ".plan.tsv"))
        for name in names:
            assert (tmp_path / "all" / name).read_bytes() == (one / name).read_bytes(), name


@pytest.mark.parametrize("fmt", sorted(CASES))
def test_each_ablation_corpus_is_its_patterns_solo_inject(capsys, tmp_path, fmt):
    # An ablation corpus is the testbed `inject` writes for a config that keeps
    # only its pattern's target, at the same seed and cap, without bucket targets.
    make, ext, _, targets = CASES[fmt]
    corpus = tmp_path / f"corpus.{ext}"
    corpus.write_bytes(make())
    shared = {"seed": 1, "max_patterns_per_dialog": 2}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(shared, targets=targets, histogram_targets=[6, 2, 0])),
                      encoding="utf-8")
    corpus_args = ["--input", corpus, "--format", fmt]
    assert cli.main([str(a) for a in ["ablate", *corpus_args, "--config", config, "--all",
                                      "--output-dir", tmp_path / "all"]]) == 0
    notes = capsys.readouterr().err.splitlines()
    assert len(notes) == len(targets)
    for pattern, target in targets.items():
        solo = tmp_path / f"{pattern}.config.json"
        solo.write_text(json.dumps(dict(shared, targets={pattern: target})), encoding="utf-8")
        out = tmp_path / f"{pattern}.{ext}"
        assert cli.main([str(a) for a in ["inject", *corpus_args, "--config", solo,
                                          "--output", out]]) == 0
        ablated = tmp_path / "all" / f"{pattern}.{ext}"
        for suffix in ("", ".manifest.tsv", ".plan.tsv") + ((".origin",) if fmt == "babi" else ()):
            assert Path(f"{ablated}{suffix}").read_bytes() == Path(f"{out}{suffix}").read_bytes()
        rows = [line.split("\t") for line in Path(f"{ablated}.plan.tsv").read_text().splitlines()]
        assert len(rows) == target and all(row[1] == pattern for row in rows)
        record = json.loads(Path(f"{ablated}.run.json").read_text(encoding="utf-8"))
        assert record["notes"] == [n for n in notes if n.startswith(f"{pattern}: ")]
        assert record["outputs"][-1] == f"{ablated}.plan.tsv"


@pytest.mark.parametrize("fmt", ["babi", "smd"])
def test_an_empty_plan_writes_the_original_testbed(capsys, request, tmp_path, fmt):
    # The original row of a pattern table: no target, so the corpus is the
    # input's bytes, the plan is empty and the manifest is the input's.
    data = request.getfixturevalue(f"{fmt}_bytes")
    corpus = tmp_path / f"corpus.{fmt}"
    corpus.write_bytes(data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"targets": {}}), encoding="utf-8")
    out = tmp_path / "out"
    assert _step(tmp_path, ["inject", "--input", corpus, "--format", fmt, "--config", config,
                            "--output", out]) == {"out", "out.manifest.tsv", "out.plan.tsv",
                                                  "out.run.json"}
    assert out.read_bytes() == data
    assert (tmp_path / "out.plan.tsv").read_bytes() == b""
    source = request.getfixturevalue(f"{fmt}_corpus")
    assert (tmp_path / "out.manifest.tsv").read_bytes() == b"".join(export_chunks(source))


@pytest.mark.parametrize("fmt", sorted(CASES))
def test_round_trip(capsys, tmp_path, fmt):
    make, ext, pattern, targets = CASES[fmt]
    corpus = tmp_path / f"corpus.{ext}"
    corpus.write_bytes(make())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"targets": targets}), encoding="utf-8")
    updated = tmp_path / f"updated.{ext}"
    origin = {f"updated.{ext}.origin"} if fmt == "babi" else set()
    plan_args = ["--input", corpus, "--format", fmt, "--config", config, "--seed", 2]

    assert _step(tmp_path, ["inject", *plan_args, "--output", updated]) == {
        f"updated.{ext}", f"updated.{ext}.manifest.tsv", f"updated.{ext}.plan.tsv",
        f"updated.{ext}.run.json"} | origin
    _check_record(tmp_path, f"updated.{ext}", "inject", {str(corpus): corpus})

    manifest = tmp_path / f"updated.{ext}.manifest.tsv"
    preds = tmp_path / "predictions.txt"
    assert _step(tmp_path, ["baseline", "--corpus", updated, "--format", fmt,
                            "--manifest", manifest, "--out", preds]) == {
        "predictions.txt", "predictions.txt.run.json"}
    _check_record(tmp_path, "predictions.txt", "baseline", {str(updated): updated})

    eval_args = ["eval", "--predictions", preds, "--manifest", manifest,
                 "--corpus", updated, "--format", fmt]
    eval_inputs = {"corpus": updated, "manifest": manifest, "predictions": preds}
    assert _step(tmp_path, [*eval_args, "--output", tmp_path / "first"]) == {
        "first.report.txt", "first.report.json", "first.run.json"}
    _check_record(tmp_path, "first", "eval", eval_inputs)

    assert _step(tmp_path, [*eval_args, "--entity-scope", "dialog",
                            "--compare", tmp_path / "first.report.json",
                            "--output", tmp_path / "second"]) == {
        "second.report.txt", "second.report.json", "second.run.json"}
    _check_record(tmp_path, "second", "eval", eval_inputs)
    first, second = (json.loads((tmp_path / f"{n}.report.json").read_text(encoding="utf-8"))
                     for n in ("first", "second"))
    text = (tmp_path / "second.report.txt").read_text(encoding="utf-8")
    assert text.endswith("\n\n" + render_comparison(first, second))

    ablated = f"ablate/{pattern}.{ext}"
    assert _step(tmp_path, ["ablate", *plan_args, "--pattern", pattern,
                            "--output-dir", tmp_path / "ablate"]) == {
        ablated, f"{ablated}.manifest.tsv", f"{ablated}.plan.tsv", f"{ablated}.run.json"} | (
        {f"{ablated}.origin"} if fmt == "babi" else set())
    _check_record(tmp_path, ablated, "ablate", {str(corpus): corpus})

    review = tmp_path / "review.md"
    assert _step(tmp_path, ["review", "--input", updated, "--format", fmt,
                            "--fraction", 0.5, "--output", review]) == {
        "review.md", "review.md.run.json"}
    _check_record(tmp_path, "review.md", "review", {str(updated): updated})

    assert _step(tmp_path, ["stats", "--input", updated, "--format", fmt,
                            "--output", tmp_path / "stats.txt"]) == {"stats.txt"}
    assert capsys.readouterr().out == ""


def _start_inject(tmp: Path, name: str, corpus: Path, fmt: str, plan_args: list,
                  hash_seed: int) -> tuple[Path, subprocess.Popen]:
    """Start `natvar inject` in a child interpreter; returns its output path and process."""
    out = tmp / f"{name}-{hash_seed}" / f"updated.{corpus.suffix[1:]}"
    out.parent.mkdir()
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    return out, subprocess.Popen(
        [sys.executable, "-m", "natvar.cli", "inject", "--input", str(corpus), "--format", fmt,
         *map(str, plan_args), "--output", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def test_inject_bytes_do_not_depend_on_hash_seed(tmp_path):
    smd = tmp_path / "smd.json"
    smd.write_bytes(make_smd_bytes())
    babi = tmp_path / "babi.txt"
    babi.write_bytes(make_babi_bytes(n_dialogs=50))
    preset = PRESETS["babi-table1"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "targets": {k: int(v * 0.05 + 0.5) for k, v in preset["targets"].items()},
        "max_patterns_per_dialog": preset["max_patterns_per_dialog"],
        "histogram_targets": [int(v * 0.05 + 0.5) for v in preset["histogram_targets"]],
    }), encoding="utf-8")
    inputs = {"smd": (smd, "smd", ["--preset", "smd-table1"]),
              "babi": (babi, "babi", ["--config", config])}
    # All six runs at once: each is a separate interpreter with its own hash seed.
    runs = [(name, *_start_inject(tmp_path, name, *args, hash_seed=s))
            for name, args in inputs.items() for s in (1, 2, 3)]
    for _, _, proc in runs:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err.decode("utf-8", "replace")
    for name in inputs:
        outs = [out for n, out, _ in runs if n == name]
        suffixes = ["", ".manifest.tsv", ".plan.tsv"] + ([".origin"] if name == "babi" else [])
        for suffix in suffixes:
            first, *rest = (Path(str(o) + suffix).read_bytes() for o in outs)
            assert first and all(r == first for r in rest), (name, suffix)
