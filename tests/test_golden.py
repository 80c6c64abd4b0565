"""Golden digests of the baseline and evaluation outputs on the synthetic
corpora (seed 0). A change to any digest is a behaviour change: say why in
CHANGES.md before re-pinning."""

import hashlib
import json

import pytest

from natvar.baseline import candidates_from_corpus, predict
from natvar.cli import main
from natvar.manifest import export_manifest
from natvar.metrics import evaluate
from natvar.planner import execute, plan, preset_config
from natvar.synthetic import make_babi_bytes, make_smd_bytes

SMD_PREDICTIONS = "030d82e3b63d99ba8a2e30447cf04baf6a5ba75bb7e70bcfe8a53987435f1312"
SMD_REPORTS = {
    "global": "13f29408d244dbd8a809da9f34f65f84c3205e38bc7e5f1c1a82fd49464a62c0",
    "dialog": "b9c27ed274a1df33755ca302c92b206bb99b8d6d5f3c5db5d268c6c1e2e7d26a",
}
BABI_PREDICTIONS = "de0995dfe52dbb693fdba18a43f4d410e13e8e947772d37e95b15cfe2a0cec36"
# The synthetic corpora every other digest is computed on.
SYNTHETIC = {
    "smd-304": (lambda: make_smd_bytes(),
                "f8cd86fabce1527a87844ec7f147a4ea95a4174122bacbe5dd7ecdc29f6f44b8"),
    "smd-30": (lambda: make_smd_bytes(n_dialogs=30),
               "c96c8d02479044a9a1614b2064eb70438622022e860bc9922fdb0dd1bd40b873"),
    "babi-40": (lambda: make_babi_bytes(n_dialogs=40),
                "a018e32cc8e60bf9bdee6f048d2209487ce33f0f0af2266ace8c4c97fd7318be"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _predictions_bytes(preds) -> bytes:
    """Prediction file as `natvar baseline` writes it."""
    return ("\n".join(preds.responses) + "\n").encode("utf-8")


@pytest.mark.parametrize("name", SYNTHETIC)
def test_synthetic_corpus_bytes(name):
    make, digest = SYNTHETIC[name]
    assert _digest(make()) == digest


@pytest.fixture(scope="module")
def smd_run(smd_corpus):
    updated = execute(smd_corpus, plan(smd_corpus, preset_config("smd-table1", seed=0)))
    manifest = export_manifest(updated)
    return updated, manifest, predict(updated, manifest, candidates_from_corpus(updated))


def test_smd_baseline_predictions(smd_run):
    _, _, preds = smd_run
    assert _digest(_predictions_bytes(preds)) == SMD_PREDICTIONS


@pytest.mark.parametrize("scope", ["global", "dialog"])
def test_smd_report(smd_run, scope):
    updated, manifest, preds = smd_run
    report = evaluate(preds, manifest, updated, scope=scope)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    assert _digest(text.encode("utf-8")) == SMD_REPORTS[scope]


def test_babi_baseline_predictions(small_babi_corpus):
    # Long bAbI histories exercise the per-dialog running term count.
    manifest = export_manifest(small_babi_corpus)
    preds = predict(small_babi_corpus, manifest, candidates_from_corpus(small_babi_corpus))
    assert _digest(_predictions_bytes(preds)) == BABI_PREDICTIONS


# `natvar stats` and `natvar review --fraction 0.5 --seed 3` on the seed-0
# `inject` output of each preset.
CLI_REPORTS = {
    ("babi", "stats"):
        "5b438ae2e18a08e3306677bca3c72f1bdba2a304a751e396bc92a65e9da29de0",
    ("babi", "review"):
        "8cb98263689d87dc56d842d805482f74bcda35e6498cb5ab807b730d690c780c",
    ("smd", "stats"):
        "cf92d18df517fafcd6f5ac683621e89b6ff2b0e4570cd074485d9973a8b08fc8",
    ("smd", "review"):
        "1e6c9d97f1684e3509f215a1f01e890d9463a07eb83bf326cb460ecdfc448d34",
}
REVIEW_ARGS = ["--fraction", "0.5", "--seed", "3"]


@pytest.fixture(scope="module", params=["babi", "smd"])
def preset_run(request, tmp_path_factory, babi_bytes, smd_bytes):
    fmt = request.param
    tmp = tmp_path_factory.mktemp(fmt)
    source, updated = tmp / f"source.{fmt}", tmp / f"updated.{fmt}"
    source.write_bytes(babi_bytes if fmt == "babi" else smd_bytes)
    assert main(["inject", "--input", str(source), "--format", fmt, "--preset",
                 f"{fmt}-table1", "--seed", "0", "--output", str(updated)]) == 0
    return fmt, source, updated


@pytest.mark.parametrize("cmd", ["stats", "review"])
def test_stats_and_review_output(capsys, preset_run, cmd):
    fmt, _, updated = preset_run
    extra = REVIEW_ARGS if cmd == "review" else []
    assert main([cmd, "--input", str(updated), "--format", fmt, *extra]) == 0
    assert _digest(capsys.readouterr().out.encode("utf-8")) == CLI_REPORTS[fmt, cmd]


def test_review_of_a_pristine_corpus_is_a_plan_error(capsys, preset_run):
    fmt, source, _ = preset_run
    assert main(["review", "--input", str(source), "--format", fmt, *REVIEW_ARGS]) == 1
    assert capsys.readouterr() == ("", "error: no updated dialogs to review\n")
