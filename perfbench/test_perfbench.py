"""Self-tests of the benchmark: corrupted outputs must count as failed
operations, never as timings.

Run from the repository root: python3 -m pytest perfbench -q
(about half a minute; they run the small babi-baseline workload).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import traced  # noqa: E402

W = run.WORKLOADS["babi-baseline"]


def out_dir() -> Path:
    run.OUT.mkdir(exist_ok=True)
    return run.OUT


def truncate_predictions(out: Path) -> None:
    path = out / "predictions.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def tamper_manifest(out: Path) -> None:
    path = out / f"updated.{W.ext}.manifest.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    dialog_id, turn, _ = lines[3].split("\t", 2)
    lines[3] = f"{dialog_id}\t{turn}\ttampered gold response\n"
    path.write_text("".join(lines), encoding="utf-8")


class TestFaultsAreFailures(unittest.TestCase):
    def test_truncated_predictions_fail_and_give_no_timing(self):
        result = run.run(W, 0, 0.0, False, tamper={"baseline": truncate_predictions})
        self.assertFalse(result["correct"])
        # At least: eval exits non-zero, the prediction count is off, the
        # report is missing.
        self.assertGreaterEqual(result["failed"], 3)
        self.assertEqual(result["metrics"], {})

    def test_tampered_manifest_fails_the_invariant(self):
        with tempfile.TemporaryDirectory(dir=out_dir()) as tmp:
            inp, out = Path(tmp) / "inputs", Path(tmp) / "pass"
            run.make_inputs(W, 0, inp)
            p = run.cli_pass(W, 0, inp, out, tamper={"inject": tamper_manifest})
        self.assertTrue(any("scored (dialog id, gold) sequence" in f for f in p.ledger.failures),
                        p.ledger.failures)

    def test_clean_pass_has_no_failures(self):
        with tempfile.TemporaryDirectory(dir=out_dir()) as tmp:
            inp, out = Path(tmp) / "inputs", Path(tmp) / "pass"
            run.make_inputs(W, 0, inp)
            p = run.cli_pass(W, 0, inp, out)
            golden = run.json.loads(run.GOLDEN.read_text(encoding="utf-8"))[W.name]
            run.check_golden(golden, p.digests, p.ledger)
        self.assertEqual(p.ledger.failures, [])
        self.assertGreater(p.ledger.attempted, len(golden))


class TestWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=out_dir()) as tmp:
            bench = Path(tmp) / run.BENCH.name
            bench.mkdir()
            for f in run.BENCH.iterdir():
                if f.is_file():
                    shutil.copy(f, bench / f.name)
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, str(bench / "run.py"), "--workload", W.name, "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class TestBenchmarkJson(unittest.TestCase):
    def test_declares_what_the_run_reports(self):
        doc = run.json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(x["name"], x["why"]) for x in doc["workloads"]],
                         [(w.name, w.why) for w in run.WORKLOADS.values()])
        one = run.Pass(seconds={"inject": 1.0, "eval": 1.0}, total=2.0, peak_rss_kib=1024)
        reported = run.end_to_end(W, [one], [0.1])
        self.assertEqual({(x["name"], x["unit"]) for x in doc["end_to_end"]},
                         {(k, m["unit"]) for k, m in reported.items()})
        layers = traced._pass_metrics([], [], {}, 1.0, 0.0)
        self.assertEqual([(x["name"], x["unit"]) for x in doc["per_layer"]],
                         [(k, unit) for k, (_, unit) in layers.items()])


class TestSelfTimes(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
            {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},  # overlaps its sibling
            {"id": 3, "parent": 1, "start": 2.0, "end": 3.0},
        ]
        self.assertEqual(traced.self_times(spans), [5.0, 2.0, 3.0, 1.0])


if __name__ == "__main__":
    unittest.main()
