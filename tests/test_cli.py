"""Exit codes and diagnostics of `natvar.cli.main` on bad input: one line on
stderr and the code the module docstring assigns, never a traceback."""

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natvar import cli, manifest as nman, phrasebank
from natvar.babi import ParseError, serialize_origin_sidecar
from natvar.baseline import BaselineError
from natvar.io import load_corpus, parse_corpus, serialize_corpus
from natvar.manifest import export_manifest, read_predictions, serialize_manifest
from natvar.metrics import MetricError, evaluate
from natvar.model import ModelError
from natvar.planner import (PlanError, PlanMismatchError, ShortfallError, config_from_dict,
                            execute, plan)
from natvar.recipes import InjectionError
from natvar.synthetic import make_babi_bytes, make_smd_bytes

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(capsys, argv):
    code = cli.main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err.strip().splitlines()


@pytest.fixture
def smd_file(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_bytes(make_smd_bytes(n_dialogs=5))
    return path


@pytest.mark.parametrize("config", [b"{not json", b"[1, 2]", b'{"seed": 1}', b'{"targets": [1]}',
                                    b'{"targets": {"example_request": "many"}}', b"\xff\xfe",
                                    b'{"targets": {"example_request": 1e999}}',
                                    b'{"targets": {}, "histogram_targets": [1, null]}',
                                    b'{"targets": {"other_correction": -3}}',
                                    b'{"targets": {}, "histogram_targets": [1, -1]}',
                                    b'{"targets": {}, "pattern_order": []}',
                                    b'{"targets": {}, "max_patterns_per_dialog": 0}',
                                    # not integers, though int() takes each of them
                                    b'{"targets": {}, "seed": 1.5}',
                                    b'{"targets": {}, "seed": true}',
                                    b'{"targets": {"other_correction": true}}',
                                    b'{"targets": {"other_correction": 2.5}}',
                                    b'{"targets": {}, "max_patterns_per_dialog": 2.5}',
                                    b'{"targets": {}, "histogram_targets": [1, false]}',
                                    b'{"targets": {}, "histogram_targets": [0.5]}',
                                    # JSON strings and objects are not numbers or arrays
                                    b'{"targets": {"capability_expansion": "5"}}',
                                    b'{"targets": {}, "seed": "3"}',
                                    b'{"targets": {}, "max_patterns_per_dialog": "4"}',
                                    b'{"targets": {}, "histogram_targets": "5000"}',
                                    b'{"targets": {}, "histogram_targets": ["5"]}',
                                    b'{"targets": {}, "histogram_targets": {"5": 1}}',
                                    # not booleans, though bool() takes each of them
                                    b'{"targets": {}, "allow_shortfall": "no"}',
                                    b'{"targets": {}, "allow_shortfall": 0}',
                                    pytest.param(b"[" * 100_000, id="deep-nesting")])
def test_bad_config_is_a_configuration_error(capsys, tmp_path, smd_file, config):
    path = tmp_path / "config.json"
    path.write_bytes(config)
    code, lines = _run(capsys, ["inject", "--input", smd_file, "--format", "smd",
                                "--config", path, "--output", tmp_path / "out.json"])
    assert code == 1
    assert len(lines) == 1 and str(path) in lines[0]


def _inject_with_bank(capsys, tmp_path, monkeypatch, smd_file, data: bytes):
    """Run `inject` with `data` as the packaged phrase bank file."""
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "phrase_bank.json").write_bytes(data)
    monkeypatch.setattr(phrasebank, "resources", SimpleNamespace(files=lambda package: tmp_path))
    phrasebank.load_bank.cache_clear()
    try:
        return _run(capsys, ["inject", "--input", smd_file, "--format", "smd", "--preset",
                             "smd-table1", "--allow-shortfall", "--output", tmp_path / "out.json"])
    finally:
        phrasebank.load_bank.cache_clear()


@pytest.mark.parametrize("edit, problem", [
    (lambda entry: {k: v for k, v in entry.items() if k != "SLIP"},
     "no phrase bank entry for (other_correction, SLIP)"),
    (lambda entry: dict(entry, SLIP=["a list, not an object of domains"]),
     "(other_correction, SLIP) is not an object of domains"),
    (lambda entry: [entry], "other_correction is not an object of actions"),
    # a string would be split into one-letter turns
    (lambda entry: dict(entry, SLIP={"*": "oops"}),
     "(other_correction, SLIP, *) is not a non-empty list of strings"),
    (lambda entry: dict(entry, SLIP={"*": []}),
     "(other_correction, SLIP, *) is not a non-empty list of strings"),
], ids=["no-action", "action-not-an-object", "pattern-not-an-object", "variants-not-a-list",
        "no-variants"])
def test_phrase_bank_without_an_entry_is_a_data_error(capsys, tmp_path, monkeypatch, smd_file,
                                                       edit, problem):
    bank = dict(phrasebank.load_bank())
    bank["other_correction"] = edit(bank["other_correction"])
    code, lines = _inject_with_bank(capsys, tmp_path, monkeypatch, smd_file,
                                    json.dumps(bank).encode())
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith(problem)


def test_phrase_bank_that_is_not_json_is_a_data_error(capsys, tmp_path, monkeypatch, smd_file):
    code, lines = _inject_with_bank(capsys, tmp_path, monkeypatch, smd_file,
                                    b'{"other_correction": ')
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: phrase bank ")
    assert lines[0].endswith("phrase_bank.json is not valid JSON: Expecting value: line 1 column 22 (char 21)")


def test_directory_as_input_is_a_data_error(capsys, tmp_path):
    code, lines = _run(capsys, ["inject", "--input", tmp_path, "--format", "smd",
                                "--preset", "smd-table1"])
    assert code == 2
    assert len(lines) == 1


def test_malformed_smd_kb_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "corpus.json"
    doc = json.loads(make_smd_bytes(n_dialogs=2))
    doc[1]["scenario"]["kb"] = [1]
    path.write_text(json.dumps(doc))
    code, lines = _run(capsys, ["stats", "--input", path, "--format", "smd"])
    assert (code, lines) == (2, ["error: dialog 1: malformed KB"])


@pytest.mark.parametrize("edit", [
    lambda item: item.update(today="  "),
    lambda item: item.update(location=" "),
    lambda item: item.update({" ": "sunny"}),
], ids=["blank-value", "blank-subject", "blank-key"])
def test_blank_smd_kb_entity_names_its_dialog(capsys, tmp_path, edit):
    path = tmp_path / "corpus.json"
    doc = json.loads(make_smd_bytes(n_dialogs=2))
    edit(doc[1]["scenario"]["kb"]["items"][0])
    path.write_text(json.dumps(doc))
    code, lines = _run(capsys, ["stats", "--input", path, "--format", "smd"])
    assert (code, lines) == (2, ["error: dialog 1: malformed KB item (empty entity)"])


@pytest.mark.parametrize("pattern, message", [
    ("bogus", "error: unknown pattern 'bogus'"),
    ("open_request_user_detail_request",
     "error: pattern not applicable to smd: open_request_user_detail_request"),
])
def test_ablate_bad_pattern_is_a_configuration_error(capsys, tmp_path, smd_file, pattern,
                                                     message):
    out = tmp_path / "ablate"
    code, lines = _run(capsys, ["ablate", "--input", smd_file, "--format", "smd", "--preset",
                                "smd-table1", "--pattern", pattern, "--output-dir", out])
    assert (code, lines) == (1, [message])
    assert not out.exists()


@pytest.mark.parametrize("targets", [
    {"other_corection": 3, "capability_expansion": 2, "recipient_correction": 4},
    {"other_corection": 3},
], ids=["with-valid-names", "alone"])
@pytest.mark.parametrize("cmd", ["inject", "ablate"])
def test_config_naming_a_bad_pattern_is_a_configuration_error(capsys, tmp_path, cmd, targets):
    corpus, config, out = tmp_path / "corpus.txt", tmp_path / "config.json", tmp_path / "out"
    corpus.write_bytes(make_babi_bytes(n_dialogs=20))
    config.write_text(json.dumps({"targets": targets}))
    where = ["--all", "--output-dir", out] if cmd == "ablate" else ["--output", out]
    code, lines = _run(capsys, [cmd, "--input", corpus, "--format", "babi", "--config", config,
                                *where])
    assert (code, lines) == (1, ["error: unknown pattern 'other_corection'"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "corpus.txt"]


@pytest.mark.parametrize("targets", [{"capability_expansion": 0}, {}], ids=["zero", "empty"])
def test_ablate_all_with_no_target_is_a_configuration_error(capsys, tmp_path, targets):
    corpus, config, out = tmp_path / "corpus.txt", tmp_path / "config.json", tmp_path / "out"
    corpus.write_bytes(make_babi_bytes(n_dialogs=20))
    config.write_text(json.dumps({"targets": targets}))
    code, lines = _run(capsys, ["ablate", "--all", "--input", corpus, "--format", "babi",
                                "--config", config, "--output-dir", out])
    assert (code, lines) == (1, ["error: ablate --all: no pattern has a target above 0"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "corpus.txt"]


@pytest.mark.parametrize("cmd, options", [
    ("ablate", ["--preset", "smd-table1"]),
    ("ablate", ["--preset", "smd-table1", "--pattern", "example_request", "--all"]),
    ("inject", []),
    ("inject", ["--preset", "smd-table1", "--config", "config.json"]),
], ids=["ablate-neither", "ablate-both", "inject-neither", "inject-both"])
def test_exclusive_options_need_exactly_one(capsys, tmp_path, smd_file, cmd, options):
    code, lines = _run(capsys, [cmd, "--input", smd_file, "--format", "smd", *options,
                                "--output-dir" if cmd == "ablate" else "--output",
                                tmp_path / "out"])
    assert code == 1
    assert lines[0].startswith("usage error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed_args, seed", [([], 7), (["--seed", 0], 0), (["--seed", 1], 1)])
def test_a_given_seed_overrides_the_config_seed(capsys, tmp_path, smd_file, seed_args, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"targets": {"open_request_screening": 1}, "seed": 7}))
    out = tmp_path / "out.json"
    code, _ = _run(capsys, ["inject", "--input", smd_file, "--format", "smd", "--config", config,
                            *seed_args, "--output", out])
    assert code == 0
    assert json.loads(Path(f"{out}.run.json").read_text())["seed"] == seed


def test_per_dialog_cap_shortfall_exits_3_unless_allowed(capsys, tmp_path, smd_file):
    # Both patterns are eligible in all 5 dialogs, so eligibility meets the
    # targets; with one pattern per dialog, the first takes every dialog and
    # leaves the second no candidate.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"targets": {"open_request_screening": 5, "capability_expansion": 5},
                                  "max_patterns_per_dialog": 1}))
    out = tmp_path / "out.json"
    argv = ["inject", "--input", smd_file, "--format", "smd", "--config", config, "--output", out]
    shortfall = "capability_expansion: 0 eligible dialogs under the per-dialog cap of 1 < target 5"
    code, lines = _run(capsys, argv)
    assert code == 3
    assert lines == [f"plan shortfall: per-dialog cap shortfall ({shortfall})"]
    assert not out.exists()
    code, _ = _run(capsys, [*argv, "--allow-shortfall"])
    assert code == 0
    assert f"shortfall recorded: {shortfall}" in json.loads(Path(f"{out}.run.json").read_text())["notes"]
    assert Path(f"{out}.plan.tsv").read_text().count("\topen_request_screening\t") == 5
    assert "capability_expansion" not in Path(f"{out}.plan.tsv").read_text()


def test_ablate_all_shortfall_writes_nothing(capsys, tmp_path):
    # open_request_screening alone would plan; capability_expansion cannot
    # reach 100 in 40 dialogs, and no pattern's files may precede that refusal.
    corpus, config, out = tmp_path / "corpus.txt", tmp_path / "config.json", tmp_path / "out"
    corpus.write_bytes(make_babi_bytes(n_dialogs=40))
    config.write_text(json.dumps({"targets": {"open_request_screening": 10,
                                              "capability_expansion": 100}}))
    code, lines = _run(capsys, ["ablate", "--all", "--input", corpus, "--format", "babi",
                                "--config", config, "--output-dir", out])
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith(
        "plan shortfall: eligibility shortfall (capability_expansion: eligible ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "corpus.txt"]


def test_babi_inject_to_stdout_is_a_usage_error(capsys, tmp_path):
    # bAbI text has no place for the injection marks: without --output they
    # would be lost and the updated corpus would read back as pristine.
    path = tmp_path / "corpus.txt"
    path.write_bytes(make_babi_bytes(n_dialogs=2))
    code, lines = _run(capsys, ["inject", "--input", path, "--format", "babi", "--preset",
                                "babi-table1", "--allow-shortfall"])
    assert code == 1
    assert lines[0].startswith("usage error: inject --format babi needs --output")
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt"]


def test_empty_babi_file_round_trips(capsys, tmp_path):
    # An empty file is a corpus of no dialogs; written back, it is empty again.
    path, out = tmp_path / "corpus.txt", tmp_path / "updated.txt"
    path.write_bytes(b"")
    code, _ = _run(capsys, ["inject", "--input", path, "--format", "babi", "--preset",
                            "babi-table1", "--allow-shortfall", "--output", out])
    assert code == 0
    assert out.read_bytes() == b""
    assert cli.main(["stats", "--input", str(out), "--format", "babi"]) == 0
    assert f"checksum: sha256:{hashlib.sha256(b'').hexdigest()}\n" in capsys.readouterr().out


def test_non_utf8_babi_corpus_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"1 hello \xff there\tgood morning\n")
    code, lines = _run(capsys, ["stats", "--input", path, "--format", "babi"])
    assert code == 2
    assert lines == ["error: bAbI file is not valid UTF-8 at byte 8"]


def test_non_utf8_smd_corpus_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "corpus.json"
    path.write_bytes(b'[{"dialogue": [], "scenario": {"task": {"intent": "we\xffther"}}}]')
    code, lines = _run(capsys, ["stats", "--input", path, "--format", "smd"])
    assert code == 2
    assert lines == ["error: SMD file is not valid UTF-8 at byte 53"]


def test_deeply_nested_smd_corpus_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "corpus.json"
    path.write_bytes(b"[" * 100_000)
    code, lines = _run(capsys, ["stats", "--input", path, "--format", "smd"])
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: not valid SMD JSON")


def test_bad_sidecar_index_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"1 hello\tgood morning\n")
    (tmp_path / "corpus.txt.origin").write_bytes(b"babi-0: x=open_request_screening\n")
    code, lines = _run(capsys, ["stats", "--input", path, "--format", "babi"])
    assert code == 2
    assert len(lines) == 1 and "sidecar line 1" in lines[0]


def test_sidecar_outside_the_corpus_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"1 hello\tgood morning\n")
    (tmp_path / "corpus.txt.origin").write_bytes(b"babi-7: 0=open_request_screening\n")
    code, lines = _run(capsys, ["stats", "--input", path, "--format", "babi"])
    assert code == 2
    assert len(lines) == 1 and "babi-7" in lines[0]


def test_unknown_sidecar_pattern_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"1 hello\tgood morning\n")
    (tmp_path / "corpus.txt.origin").write_bytes(b"babi-0: 1=bogus\n")
    code, lines = _run(capsys, ["stats", "--input", path, "--format", "babi"])
    assert code == 2
    assert lines == ["error: sidecar line 1: unknown pattern 'bogus'"]


def test_sidecar_naming_an_smd_pattern_is_a_parse_error(capsys, tmp_path):
    # recipient_correction has a recipe, but not for bAbI: a sidecar marking
    # an injected exchange with it does not describe a bAbI updated corpus.
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"1 hello\tgood morning\n2 table for two\tin which city\n")
    (tmp_path / "corpus.txt.origin").write_bytes(
        b"babi-0: 0=recipient_correction,1=recipient_correction\n")
    code, lines = _run(capsys, ["stats", "--input", path, "--format", "babi"])
    assert (code, lines) == (
        2, ["error: sidecar line 1: pattern not applicable to babi: recipient_correction"])


def test_braced_corpus_text_is_injected_verbatim(capsys, tmp_path):
    # Recipes quote corpus utterances (a prior request, a corrupted answer);
    # a brace in one is text, not a slot marker.
    path = tmp_path / "corpus.json"
    path.write_bytes(make_smd_bytes(n_dialogs=20).replace(b"where", b"where {"))
    out = tmp_path / "o.json"
    code, _ = _run(capsys, ["inject", "--input", path, "--format", "smd", "--preset",
                            "smd-table1", "--allow-shortfall", "--output", out])
    assert code == 0
    injected = [t.text for d in load_corpus(out, "smd").dialogs for t in d.turns
                if t.injected_by]
    assert any(text.startswith("where { is the nearest") for text in injected)


@pytest.mark.parametrize("manifest", [b"smd-0\tone\thello\n", b"\xff\n"])
def test_bad_manifest_is_a_parse_error(capsys, tmp_path, smd_file, manifest):
    (tmp_path / "m.tsv").write_bytes(manifest)
    (tmp_path / "p.txt").write_bytes(b"hello\n")
    code, lines = _run(capsys, ["eval", "--predictions", tmp_path / "p.txt",
                                "--manifest", tmp_path / "m.tsv", "--corpus", smd_file,
                                "--format", "smd"])
    assert code == 2
    assert len(lines) == 1 and "manifest" in lines[0]


def test_response_holding_a_unicode_line_break_survives_the_pipeline(capsys, tmp_path):
    # The manifest ends lines at LF only; U+2028 is text, as in the corpus.
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(make_babi_bytes(n_dialogs=40).replace(
        b"\thello what can i help", "\thello\u2028what can i help".encode(), 1))
    out = tmp_path / "updated.txt"
    code, _ = _run(capsys, ["inject", "--input", corpus, "--format", "babi", "--preset",
                            "babi-table1", "--allow-shortfall", "--output", out])
    assert code == 0
    manifest = f"{out}.manifest.tsv"
    golds = [e.gold_text for e in nman.parse_manifest(Path(manifest).read_bytes()).entries]
    assert golds[0] == "hello\u2028what can i help you with today"
    (tmp_path / "gold.txt").write_text("".join(g + "\n" for g in golds), encoding="utf-8")
    code, _ = _run(capsys, ["eval", "--predictions", tmp_path / "gold.txt", "--manifest",
                            manifest, "--corpus", out, "--format", "babi", "--output",
                            tmp_path / "gold"])
    assert code == 0
    assert json.loads((tmp_path / "gold.report.json").read_text())["per_dialog_acc"] == 1.0
    code, _ = _run(capsys, ["baseline", "--corpus", out, "--format", "babi", "--manifest",
                            manifest, "--out", tmp_path / "baseline.txt"])
    assert code == 0


def _eval_inputs(tmp_path, seed: int, n_dialogs: int, fmt: str = "babi"):
    """A corpus file with its exported manifest and gold predictions."""
    make, suffix = (make_babi_bytes, "txt") if fmt == "babi" else (make_smd_bytes, "json")
    corpus = parse_corpus(make(seed=seed, n_dialogs=n_dialogs), fmt)
    manifest = export_manifest(corpus)
    paths = [tmp_path / f"{seed}-{n_dialogs}.{ext}" for ext in (suffix, "tsv", "preds")]
    paths[0].write_bytes(corpus.source_bytes)
    paths[1].write_bytes(serialize_manifest(manifest))
    paths[2].write_bytes("".join(f"{e.gold_text}\n" for e in manifest.entries).encode())
    return paths


@pytest.mark.parametrize("edit, message", [
    (None, "manifest entry babi-"),
    (lambda m: m.replace(b"babi-1\t1\t", b"babi-1\t99\t", 1), "manifest entry babi-1@99 is not in"),
    (lambda m: m.replace(b"babi-1\t1\t", b"babi-1\t-1\t", 1), "manifest entry babi-1@-1 is not in"),
    (lambda m: m.replace(b"babi-2\t1\t", b"babi-9\t1\t", 1), "manifest entry babi-9@1 is not in"),
    (lambda m: m.replace(b"babi-2\t1\thello", b"babi-2\t1\thi", 1),
     "manifest entry babi-2@1 does not match the corpus turn's text"),
], ids=["other-corpus", "index-past-end", "negative-index", "unknown-dialog", "other-gold"])
def test_eval_against_a_corpus_the_manifest_does_not_fit(capsys, tmp_path, edit, message):
    corpus, manifest, preds = _eval_inputs(tmp_path, seed=1, n_dialogs=6)
    if edit is None:  # the whole manifest and predictions of another corpus
        corpus = _eval_inputs(tmp_path, seed=2, n_dialogs=3)[0]
    else:
        manifest.write_bytes(edit(manifest.read_bytes()))
    code, lines = _run(capsys, ["eval", "--predictions", preds, "--manifest", manifest,
                                "--corpus", corpus, "--format", "babi"])
    assert code == 2
    assert len(lines) == 1 and message in lines[0], lines


def test_baseline_against_a_corpus_the_manifest_does_not_fit(capsys, tmp_path):
    # The pristine corpus's manifest names turns that injection has shifted.
    corpus, manifest, preds = _eval_inputs(tmp_path, seed=1, n_dialogs=6)
    updated = tmp_path / "updated.txt"
    code, _ = _run(capsys, ["inject", "--input", corpus, "--format", "babi", "--preset",
                            "babi-table1", "--allow-shortfall", "--output", updated])
    assert code == 0
    code, eval_lines = _run(capsys, ["eval", "--predictions", preds, "--manifest", manifest,
                                     "--corpus", updated, "--format", "babi"])
    assert code == 2
    out = tmp_path / "baseline.txt"
    code, lines = _run(capsys, ["baseline", "--corpus", updated, "--format", "babi",
                                "--manifest", manifest, "--out", out])
    assert code == 2
    assert lines == eval_lines and len(lines) == 1 and "manifest entry babi-" in lines[0]
    assert not out.exists()


def test_eval_serializes_the_manifest_once(capsys, tmp_path, monkeypatch):
    # read_predictions and the metric walk both check the manifest digest,
    # which walks the manifest's lines.
    corpus, manifest, preds = _eval_inputs(tmp_path, seed=1, n_dialogs=6)
    calls = []
    real = nman.manifest_chunks
    monkeypatch.setattr(nman, "manifest_chunks", lambda *m: calls.append(m) or real(*m))
    code, _ = _run(capsys, ["eval", "--predictions", preds, "--manifest", manifest,
                            "--corpus", corpus, "--format", "babi"])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("report", [b"\xff{}", b"not json", b"5", b'{"bleu": "x"}',
                                    b'{"entity_f1": 1' + b"0" * 400 + b"}", b"[" * 100_000,
                                    # ratios are in [0, 1], not percentages
                                    b'{"entity_f1": 55.38, "per_dialog_acc": 88.5}',
                                    b'{"bleu": 100.5}', b'{"per_response_acc": -0.1}'],
                         ids=["utf8", "json", "non-object", "non-numeric", "overflow", "nesting",
                              "percentages", "bleu-above-100", "negative"])
def test_bad_compare_report_is_a_parse_error(capsys, tmp_path, report):
    corpus = parse_corpus(make_smd_bytes(n_dialogs=2), "smd")
    manifest = export_manifest(corpus)
    (tmp_path / "c.json").write_bytes(corpus.source_bytes)
    (tmp_path / "m.tsv").write_bytes(serialize_manifest(manifest))
    (tmp_path / "p.txt").write_bytes("".join(f"{e.gold_text}\n" for e in manifest.entries).encode())
    (tmp_path / "orig.report.json").write_bytes(report)
    code, lines = _run(capsys, ["eval", "--predictions", tmp_path / "p.txt", "--manifest",
                                tmp_path / "m.tsv", "--corpus", tmp_path / "c.json", "--format",
                                "smd", "--compare", tmp_path / "orig.report.json",
                                "--output", tmp_path / "upd"])
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: report ")


def test_non_utf8_candidate_file_is_a_parse_error(capsys, tmp_path, smd_file):
    (tmp_path / "cands.txt").write_bytes(b"\xff\xfe abc\n")
    code, lines = _run(capsys, ["baseline", "--corpus", smd_file, "--format", "smd",
                                "--candidates", tmp_path / "cands.txt", "--out", tmp_path / "p.txt"])
    assert code == 2
    assert lines == ["error: candidate file is not valid UTF-8 at byte 0"]


@pytest.mark.parametrize("error, code", [(PlanMismatchError("plan/corpus mismatch"), 2),
                                         (PlanError("bad target"), 1),
                                         (ShortfallError("eligibility",
                                                         ["example_request: eligible 2 < target 5"]), 3),
                                         (ParseError("bad line"), 2),
                                         (MetricError("misaligned"), 2),
                                         (ModelError("bad turn"), 2),
                                         (BaselineError("no candidates"), 2),
                                         (InjectionError("bad anchor"), 2),
                                         (OSError("disk full"), 2)])
def test_plan_errors_map_by_type(capsys, monkeypatch, error, code):
    def fail(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "patterns", fail)
    prefix = "plan shortfall" if code == 3 else "error"
    assert _run(capsys, ["patterns"]) == (code, [f"{prefix}: {error}"])


def test_other_exceptions_propagate(monkeypatch):
    def fail(args):
        raise RuntimeError("a bug")

    monkeypatch.setitem(cli._COMMANDS, "patterns", fail)
    with pytest.raises(RuntimeError, match="a bug"):
        cli.main(["patterns"])


@pytest.mark.parametrize("argv, error, code", [
    (["patterns"], None, 0),
    (["no-such-command"], None, 1),
    (["patterns"], ParseError("bad line"), 2),
    (["patterns"], RuntimeError("a bug"), None),
], ids=["ok", "usage", "parse", "raise"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_pauses_the_gc_and_restores_its_state(capsys, monkeypatch, argv, error, code,
                                                   enabled):
    inside = []

    def run(args):
        inside.append(gc.isenabled())
        if error:
            raise error
        return 0

    monkeypatch.setitem(cli._COMMANDS, "patterns", run)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is None:
            with pytest.raises(RuntimeError, match="a bug"):
                cli.main(argv)
        else:
            assert cli.main(argv) == code
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is enabled
    assert inside == ([False] if argv == ["patterns"] else [])


_REPORT_MODULES = """
import json, sys
from natvar import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("natvar."))]))
"""


@pytest.mark.parametrize("fmt, cmd, unused", [
    ("babi", "eval", {"planner", "recipes", "phrasebank", "stats", "baseline", "smd"}),
    ("babi", "baseline", {"planner", "recipes", "phrasebank", "stats", "metrics", "smd"}),
    ("babi", "inject", {"metrics", "baseline", "smd"}),
    ("smd", "eval", {"planner", "recipes", "phrasebank", "stats", "baseline", "babi"}),
    ("smd", "baseline", {"planner", "recipes", "phrasebank", "stats", "metrics", "babi"}),
], ids=["eval", "baseline", "inject", "smd-eval", "smd-baseline"])
def test_each_command_imports_only_its_own_modules(tmp_path, fmt, cmd, unused):
    corpus, manifest, preds = _eval_inputs(tmp_path, seed=1, n_dialogs=3, fmt=fmt)
    argv = {
        "eval": ["eval", "--predictions", preds, "--manifest", manifest, "--corpus", corpus,
                 "--format", fmt, "--output", tmp_path / "eval"],
        "baseline": ["baseline", "--corpus", corpus, "--format", fmt, "--manifest", manifest,
                     "--out", tmp_path / "baseline.txt"],
        "inject": ["inject", "--input", corpus, "--format", "babi", "--preset", "babi-table1",
                   "--allow-shortfall", "--output", tmp_path / "updated.txt"],
    }[cmd]
    # A fresh interpreter: this one has imported every module already.
    proc = subprocess.run([sys.executable, "-c", _REPORT_MODULES, *map(str, argv)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert not unused & {m.removeprefix("natvar.") for m in loaded}


# --- fuzzing ------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_seeds():
    """Valid input files per format, the starting points of the mutations."""
    seeds = {}
    for fmt, data in (("smd", make_smd_bytes(n_dialogs=3)), ("babi", make_babi_bytes(n_dialogs=2))):
        corpus = parse_corpus(data, fmt)
        updated = execute(corpus, plan(corpus, config_from_dict(
            {"targets": {"open_request_screening": 1}})))
        manifest = export_manifest(updated)
        golds = "".join(f"{e.gold_text}\n" for e in manifest.entries).encode()
        preds = read_predictions(golds, manifest)
        seeds[fmt] = {
            "corpus": serialize_corpus(updated),
            "manifest": serialize_manifest(manifest),
            "predictions": golds,
            "candidates": "".join(f"{i} {e.gold_text}\n"
                                  for i, e in enumerate(manifest.entries, 1)).encode(),
            "compare": json.dumps(evaluate(preds, manifest, updated)).encode(),
            "config": b'{"targets": {"open_request_screening": 1}, "seed": 3, '
                      b'"max_patterns_per_dialog": 2, "histogram_targets": [1, 0]}',
        }
        if fmt == "babi":
            seeds[fmt]["sidecar"] = serialize_origin_sidecar(updated)
    return seeds


def _mutated(seed: bytes):
    """Arbitrary bytes, or the seed with a short run of bytes spliced in."""
    splice = st.tuples(st.integers(0, len(seed)), st.integers(0, 6), st.binary(max_size=6))
    return st.one_of(st.binary(max_size=40),
                     splice.map(lambda t: seed[:t[0]] + t[2] + seed[t[0] + t[1]:]))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_arbitrary_input_files_exit_cleanly(tmp_path_factory, fuzz_seeds, data):
    fmt = data.draw(st.sampled_from(["babi", "smd"]), label="format")
    files = {name: data.draw(_mutated(seed), label=name) for name, seed in fuzz_seeds[fmt].items()}
    work = tmp_path_factory.mktemp("fuzz")
    corpus = work / "corpus"
    corpus.write_bytes(files["corpus"])
    if "sidecar" in files:
        (work / "corpus.origin").write_bytes(files["sidecar"])
    for name in ("manifest", "predictions", "candidates", "compare", "config"):
        (work / name).write_bytes(files[name])
    for argv in (["stats", "--input", corpus, "--format", fmt],
                 ["inject", "--input", corpus, "--format", fmt, "--config", work / "config",
                  "--output", work / "out"],
                 ["eval", "--predictions", work / "predictions", "--manifest", work / "manifest",
                  "--corpus", corpus, "--format", fmt, "--compare", work / "compare",
                  "--output", work / "eval"],
                 ["baseline", "--corpus", corpus, "--format", fmt, "--candidates",
                  work / "candidates", "--manifest", work / "manifest", "--out", work / "preds"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        assert code in (0, 1, 2, 3), (argv[0], code)
        assert "Traceback" not in err.getvalue()
