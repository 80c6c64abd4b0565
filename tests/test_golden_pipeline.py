"""The seed-0 `inject` outputs of both Table-1 presets, and the bAbI
`ablate --all` corpora and eval report, against the digests the benchmark
pins in `perfbench/golden.json`.

The inputs are made as `perfbench/run.py` makes them for seed 0: the
generators' default corpora and, for bAbI, the same prediction mix. Their
digests are checked too, so a drift in the inputs is told apart from a
change in the outputs.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from natvar import cli

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json")
                    .read_text(encoding="utf-8"))


def _digests(root: Path) -> dict[str, str]:
    return {f.relative_to(root).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in root.rglob("*") if f.is_file() and not f.name.endswith(".run.json")}


def _prediction_mix(golds: list[str], seed: int) -> list[str]:
    """About half the entries keep their gold; the rest take another entry's gold."""
    rng = random.Random(seed)
    out = []
    for i, gold in enumerate(golds):
        if rng.random() < 0.5:
            out.append(gold)
        else:
            j = rng.randrange(len(golds) - 1)
            out.append(golds[j + (j >= i)])
    return out


@pytest.mark.parametrize("workload, fmt, ext", [("smd-pipeline", "smd", "json"),
                                                ("babi-preset", "babi", "txt")])
def test_seed0_outputs_match_benchmark_golden(tmp_path, smd_bytes, babi_bytes, workload, fmt, ext):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    corpus = inputs / f"corpus.{ext}"
    corpus.write_bytes(smd_bytes if fmt == "smd" else babi_bytes)
    updated = out / f"updated.{ext}"
    assert cli.main(["inject", "--input", str(corpus), "--format", fmt, "--preset",
                     f"{fmt}-table1", "--seed", "0", "--output", str(updated)]) == 0
    names = [f"inputs/corpus.{ext}", f"updated.{ext}", f"updated.{ext}.manifest.tsv",
             f"updated.{ext}.plan.tsv"]
    if fmt == "babi":
        golds = [line.split("\t", 1)[1] for line in babi_bytes.decode("utf-8").splitlines()
                 if "\t" in line]
        preds = inputs / "predictions.txt"
        preds.write_text("\n".join(_prediction_mix(golds, 0)) + "\n", encoding="utf-8")
        assert cli.main(["eval", "--predictions", str(preds), "--manifest",
                         f"{updated}.manifest.tsv", "--corpus", str(updated), "--format", fmt,
                         "--entity-scope", "global", "--output", str(out / "eval-global")]) == 0
        names += ["inputs/predictions.txt", f"updated.{ext}.origin", "eval-global.report.json",
                  "eval-global.report.txt"]
        assert cli.main(["ablate", "--input", str(corpus), "--format", fmt, "--preset",
                         f"{fmt}-table1", "--seed", "0", "--all",
                         "--output-dir", str(out / "ablate")]) == 0
        ablated = sorted(n for n in GOLDEN[workload] if n.startswith("ablate/"))
        assert len(ablated) == 21  # corpus, sidecar and manifest of each of 7 patterns
        names += ablated

    got = _digests(out) | {f"inputs/{k}": v for k, v in _digests(inputs).items()}
    assert {n: got.get(n) for n in names} == {n: GOLDEN[workload][n] for n in names}
