#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the natvar CLI pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload smd-pipeline --seed 0 --seconds 20 --trace 0

A pass runs the workload's command sequence the way a user does: one child
process per subcommand (`python -m natvar.cli ...`), one at a time, from this
single parent process, i.e. a closed loop with one client. Passes repeat until
`--seconds` have been measured; every pass after the first must write the same
bytes as the first. End-to-end metrics are medians over the passes.

With `--trace 1` every pass is followed by an in-process replay of the same
sequence through the modules' public functions, with a span around each call
(see `traced.py`); that run reports the per-layer metrics and writes its spans
to `perfbench/out/<workload>/spans-seed<N>.json`.

The seed drives the synthetic corpus (`natvar.synthetic.make_*_bytes`), the
CLI `--seed` and the prediction mix; seed 0 gives the generators' default
corpora, whose output digests are pinned in `golden.json`. The program only
ever sees the generated files.

Every command and every output check is one operation. Human-readable lines
go to stdout; the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Timings come only from passes
in which no operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

SETUP_REPS = 5
SETUP_S = 0.5
STARTUP_REPS = 3
# A short command is run again, rewriting the same bytes, until its fastest run
# times the number of runs reaches REPEAT_S or it has run MAX_REPS times, and is
# timed by the median of its runs: one start-up of a sub-second command is too
# noisy to gate on.
REPEAT_S = 1.5
MAX_REPS = 7
# Default seeds of make_smd_bytes / make_babi_bytes: workload seed 0 maps to them.
SMD_BASE_SEED = 20304
BABI_BASE_SEED = 51000

# Table 1 of the paper: dialogs per pattern, and dialogs carrying >= k patterns.
SMD_TABLE1 = {
    "open_request_screening": 64,
    "example_request": 23,
    "misunderstanding_report": 35,
    "other_correction": 24,
    "sequence_closer_not_helped": 6,
    "sequence_closer_repaired": 139,
    "capability_expansion": 151,
    "recipient_correction": 100,
}
BABI_TABLE1 = {
    "open_request_screening": 54,
    "open_request_user_detail_request": 143,
    "misunderstanding_report": 314,
    "other_correction": 522,
    "sequence_closer_not_helped": 811,
    "sequence_closer_repaired": 189,
    "capability_expansion": 811,
}
BABI_BUCKETS = (1000, 981, 843, 375, 4)
# 50 of 1,000 dialogs; at this scale the scaled plan fills without shortfall.
BABI_BASELINE_SCALE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str                  # corpus format: "babi" or "smd"
    n_dialogs: int
    targets: dict             # per-pattern dialog targets the plan must meet
    scaled_config: bool       # inject --config with scaled targets instead of --preset
    middle: str               # command between inject and eval: "baseline" or "ablate"
    candidate_file: bool      # baseline reads a numbered candidate file
    scopes: tuple             # eval --entity-scope values, one eval call each
    why: str

    @property
    def ext(self) -> str:
        return "json" if self.fmt == "smd" else "txt"


def _scaled(n: int) -> int:
    return int(n * BABI_BASELINE_SCALE + 0.5)


WORKLOADS = {w.name: w for w in (
    Workload(
        "smd-pipeline", "smd", 304, SMD_TABLE1, False, "baseline", False, ("global", "dialog"),
        "Bundled-baseline flow on short SMD dialogs with a 100-entity lexicon; the baseline is"
        " ~90% of the time; the only workload on the smd parser and per-dialog entity scope."),
    Workload(
        "babi-preset", "babi", 1000, BABI_TABLE1, False, "ablate", False, ("global",),
        "The paper's main flow with the user's own model: inject, ablate --all, eval of supplied"
        " predictions; bypasses the baseline; eval is entity_f1 over a 4,040-entity lexicon."),
    Workload(
        "babi-baseline", "babi", 50, {k: _scaled(v) for k, v in BABI_TABLE1.items()}, True,
        "baseline", True, ("global",),
        "The baseline on long bAbI histories (~36 turns) with numbered candidates, where the"
        " per-candidate history rebuild costs most; the preset scaled to 50 dialogs."),
)}


# --- operations ---------------------------------------------------------------

class Ledger:
    """Counts operations (commands and output checks) and records failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(xs) -> float:
    return statistics.median(xs)


def run_cli(argv: list, log: Path) -> tuple[float, int, int, str]:
    """Run one `natvar` subcommand as a child process.

    Returns (wall seconds, exit code, child's own ru_maxrss in KiB, stderr).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "natvar.cli", *map(str, argv)],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss, log.read_text(encoding="utf-8", errors="replace")


def command_ok(ledger: Ledger, name: str, code: int, stderr: str) -> None:
    last = stderr.strip().splitlines()[-1:] or [""]
    ledger.check(code == 0 and "Traceback" not in stderr, f"{name}: exit {code}: {last[0]}")


# --- set-up -------------------------------------------------------------------

def gold_sequence(fmt: str, data: bytes) -> list[tuple[str, str]]:
    """(dialog id, gold agent response) in corpus order, read from the raw file.

    This is the scored sequence every manifest must carry, injected or not.
    """
    if fmt == "smd":
        return [(f"smd-{i}", " ".join(t["data"]["utterance"].split()))
                for i, d in enumerate(json.loads(data)) for t in d["dialogue"]
                if t["turn"] == "assistant"]
    return [(f"babi-{i}", line.split("\t", 1)[1])
            for i, block in enumerate(data.decode("utf-8").strip("\n").split("\n\n"))
            for line in block.split("\n") if "\t" in line]


def prediction_mix(golds: list[str], seed: int) -> list[str]:
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


def make_inputs(w: Workload, seed: int, inp: Path) -> None:
    """Generate the corpus, the plan config and the predictions the workload needs."""
    # natvar is importable only once main() has checked src/ and put it on the path.
    from natvar.synthetic import make_babi_bytes, make_smd_bytes

    if inp.exists():
        shutil.rmtree(inp)
    inp.mkdir(parents=True)
    if w.fmt == "smd":
        data = make_smd_bytes(seed=SMD_BASE_SEED + seed, n_dialogs=w.n_dialogs)
    else:
        data = make_babi_bytes(seed=BABI_BASE_SEED + seed, n_dialogs=w.n_dialogs)
    (inp / f"corpus.{w.ext}").write_bytes(data)
    golds = [g for _, g in gold_sequence(w.fmt, data)]
    if w.scaled_config:
        cfg = {"targets": w.targets, "max_patterns_per_dialog": 5,
               "histogram_targets": [_scaled(n) for n in BABI_BUCKETS]}
        (inp / "config.json").write_text(json.dumps(cfg, sort_keys=True) + "\n", encoding="utf-8")
    if w.candidate_file:
        unique = list(dict.fromkeys(golds))
        (inp / "candidates.txt").write_text(
            "".join(f"{i} {c}\n" for i, c in enumerate(unique, start=1)), encoding="utf-8")
    if w.middle == "ablate":
        (inp / "predictions.txt").write_text(
            "\n".join(prediction_mix(golds, seed)) + "\n", encoding="utf-8")


def timed_setup(w: Workload, seed: int, inp: Path) -> list[float]:
    """Set-up repeated at least SETUP_REPS times and for SETUP_S seconds; one time per repetition."""
    times: list[float] = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_S:
        t0 = time.perf_counter()
        make_inputs(w, seed, inp)
        times.append(time.perf_counter() - t0)
    return times


# --- one pass -----------------------------------------------------------------

def commands(w: Workload, seed: int, inp: Path, out: Path) -> list[tuple[str, list]]:
    """The workload's CLI sequence as (command name, argv) pairs."""
    corpus = inp / f"corpus.{w.ext}"
    updated = out / f"updated.{w.ext}"
    manifest = f"{updated}.manifest.tsv"
    plan_src = (["--config", inp / "config.json"] if w.scaled_config
                else ["--preset", f"{w.fmt}-table1"])
    seq = [("inject", ["inject", "--input", corpus, "--format", w.fmt, *plan_src,
                       "--seed", seed, "--output", updated])]
    if w.middle == "ablate":
        seq.append(("ablate", ["ablate", "--input", corpus, "--format", w.fmt, *plan_src,
                               "--seed", seed, "--all", "--output-dir", out / "ablate"]))
        preds = inp / "predictions.txt"
    else:
        cands = ["--candidates", inp / "candidates.txt"] if w.candidate_file else []
        preds = out / "predictions.txt"
        seq.append(("baseline", ["baseline", "--corpus", updated, "--format", w.fmt, *cands,
                                 "--manifest", manifest, "--out", preds]))
    for scope in w.scopes:
        seq.append(("eval", ["eval", "--predictions", preds, "--manifest", manifest,
                             "--corpus", updated, "--format", w.fmt, "--entity-scope", scope,
                             "--output", out / f"eval-{scope}"]))
    return seq


@dataclass
class Pass:
    seconds: dict = field(default_factory=dict)   # command -> wall seconds, summed
    total: float = 0.0
    peak_rss_kib: int = 0
    bytes_out: int = 0
    digests: dict = field(default_factory=dict)   # file name -> sha256
    ledger: Ledger = field(default_factory=Ledger)


def cli_pass(w: Workload, seed: int, inp: Path, out: Path, tamper=None) -> Pass:
    """Run the command sequence into `out`, then check its outputs.

    `tamper` maps a command name to a function called with `out` right after
    that command; the self-tests use it to corrupt an intermediate file.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    logs = out.parent / f"{out.name}-logs"
    logs.mkdir(exist_ok=True)
    p = Pass()
    for i, (name, argv) in enumerate(commands(w, seed, inp, out)):
        walls: list[float] = []
        while not walls or (min(walls) * len(walls) < REPEAT_S and len(walls) < MAX_REPS):
            wall, code, rss, stderr = run_cli(argv, logs / f"{i}-{name}-{len(walls)}.stderr")
            command_ok(p.ledger, name, code, stderr)
            walls.append(wall)
            p.peak_rss_kib = max(p.peak_rss_kib, rss)
        p.seconds[name] = p.seconds.get(name, 0.0) + median(walls)
        p.total += median(walls)
        if tamper and name in tamper:
            tamper[name](out)
    check_outputs(w, inp, out, p.ledger)
    p.bytes_out = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    p.digests = pass_digests(inp, out)
    return p


def pass_digests(inp: Path, out: Path) -> dict[str, str]:
    """Digests of a pass's outputs, and of its inputs under `inputs/`."""
    d = digest_tree(out)
    d.update({f"inputs/{k}": v for k, v in digest_tree(inp).items()})
    return d


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under `root`; run records name paths, so they are left out."""
    return {f.relative_to(root).as_posix(): sha256(f.read_bytes())
            for f in sorted(root.rglob("*"))
            if f.is_file() and not f.name.endswith(".run.json")}


def read_manifest(path: Path) -> list[tuple[str, str]] | None:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    rows = [line.split("\t", 2) for line in text.splitlines() if line and not line.startswith("#")]
    if any(len(r) != 3 for r in rows):
        return None
    return [(r[0], r[2]) for r in rows]


def read_lines(path: Path) -> list[str] | None:
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError):
        return None


def check_outputs(w: Workload, inp: Path, out: Path, ledger: Ledger) -> None:
    expected = gold_sequence(w.fmt, (inp / f"corpus.{w.ext}").read_bytes())
    updated = out / f"updated.{w.ext}"
    manifests = [Path(f"{updated}.manifest.tsv")]
    if w.middle == "ablate":
        manifests += [out / "ablate" / f"{p}.{w.ext}.manifest.tsv" for p in w.targets]
    for m in manifests:
        ledger.check(read_manifest(m) == expected,
                     f"{m.relative_to(out)}: scored (dialog id, gold) sequence differs from the source corpus")

    plan = read_lines(Path(f"{updated}.plan.tsv"))
    counts = Counter(line.split("\t")[1] for line in plan or [] if line.count("\t") == 2)
    ledger.check(plan is not None and counts == Counter(w.targets),
                 f"plan.tsv: per-pattern counts {dict(counts)} differ from the targets")

    preds = read_lines((inp if w.middle == "ablate" else out) / "predictions.txt")
    ledger.check(preds is not None and len(preds) == len(expected),
                 f"predictions: {None if preds is None else len(preds)} lines for "
                 f"{len(expected)} manifest entries")

    for scope in w.scopes:
        try:
            report = json.loads((out / f"eval-{scope}.report.json").read_text(encoding="utf-8"))
            ok = report["n_responses"] == len(expected) and report["n_dialogs"] == w.n_dialogs
        except (OSError, ValueError, KeyError):
            ok = False
        ledger.check(ok, f"eval-{scope}.report.json: missing or not over the full manifest")


def check_golden(golden: dict, digests: dict, ledger: Ledger) -> None:
    for name, digest in sorted(golden.items()):
        ledger.check(digests.get(name) == digest, f"{name}: differs from the seed-0 golden digest")


# --- the run ------------------------------------------------------------------

def startup_times(logs: Path, ledger: Ledger) -> list[float]:
    """Wall time of `natvar patterns`: interpreter start and imports, no corpus work."""
    logs.mkdir(parents=True, exist_ok=True)
    times = []
    for i in range(STARTUP_REPS):
        wall, code, _, stderr = run_cli(["patterns"], logs / f"patterns-{i}.stderr")
        command_ok(ledger, "patterns", code, stderr)
        times.append(wall)
    return times


def run(w: Workload, seed: int, seconds: float, trace: bool, tamper=None,
        golden: dict | None = None) -> dict:
    """Measure one workload; returns the result object printed as the last line."""
    base = OUT / w.name
    if base.exists():
        shutil.rmtree(base)
    ledger = Ledger()
    setup = timed_setup(w, seed, base / "inputs")
    startup = startup_times(base / "startup-logs", ledger)
    if trace:
        import traced  # imports natvar, like make_inputs
        tracer = traced.Tracer(w.name)

    passes: list[Pass] = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        n = len(passes) + 1
        p = cli_pass(w, seed, base / "inputs", base / f"pass-{n}", tamper)
        if golden:
            check_golden(golden, p.digests, p.ledger)
        if passes:
            p.ledger.check(p.digests == passes[0].digests, f"pass {n}: output bytes differ from pass 1")
        if trace:
            tracer.pass_no = n
            replay_pass(w, seed, base, tracer, p)
        passes.append(p)

    for p in passes:
        ledger.attempted += p.ledger.attempted
        ledger.failures += p.ledger.failures
    clean = [n for n, p in enumerate(passes, start=1) if not p.ledger.failures]
    ok = [passes[n - 1] for n in clean]
    report_passes(w, passes, setup, startup)
    metrics: dict = {}
    if trace:
        spans = base / f"spans-seed{seed}.json"
        tracer.write(spans)
        print(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
        if ok:
            metrics = traced.layer_metrics(tracer, clean, ok, median(startup))
            print_layers(metrics, len(ok))
    elif ok:
        metrics = end_to_end(w, ok, setup)
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
        for name in ("baseline", "ablate"):
            if name in ok[0].seconds:
                print(f"{name}_s: {median(p.seconds[name] for p in ok):.6g} s "
                      "(not gated: only some workloads run it)")
        print(f"(medians over {len(ok)} clean passes; setup_s over {len(setup)} set-ups)")
    for what in ledger.failures:
        print(f"FAILED: {what}")
    print(f"error_rate: {len(ledger.failures) / ledger.attempted:.6g} ratio "
          f"({len(ledger.failures)} of {ledger.attempted} operations failed)")
    return {"correct": not ledger.failures, "attempted": ledger.attempted,
            "failed": len(ledger.failures), "metrics": metrics}


def end_to_end(w: Workload, ok: list[Pass], setup: list[float]) -> dict:
    """The gated metrics: medians over clean passes (set-up: over its repetitions)."""
    return {
        "dialogs_per_s": {"value": median(w.n_dialogs / p.total for p in ok), "unit": "1/s"},
        "inject_s": {"value": median(p.seconds["inject"] for p in ok), "unit": "s"},
        "eval_s": {"value": median(p.seconds["eval"] for p in ok), "unit": "s"},
        "peak_rss_mb": {"value": median(p.peak_rss_kib / 1024 for p in ok), "unit": "MB"},
        "setup_s": {"value": median(setup), "unit": "s"},
    }


def replay_pass(w: Workload, seed: int, base: Path, tracer, p: Pass) -> None:
    """Traced in-process replay of pass `p`; its bytes and scores must match the CLI's."""
    import traced

    try:
        r = traced.replay(w, seed, base / "inputs", tracer)
    except Exception as e:  # a failing program call is a failed operation, not a crash
        traceback.print_exc()
        p.ledger.check(False, f"replay: {type(e).__name__}: {e}")
        return
    out = base / f"pass-{tracer.pass_no}"
    for name, data in sorted(r.outputs.items()):
        p.ledger.check(p.digests.get(name) == sha256(data),
                       f"replay: {name} differs from the CLI output")
    for name, scores in sorted(r.scores.items()):
        try:
            report = json.loads((out / f"{name}.report.json").read_text(encoding="utf-8"))
            ok = all(report[k] == v for k, v in scores.items())
        except (OSError, ValueError, KeyError):
            ok = False
        p.ledger.check(ok, f"replay: {name} scores differ from the CLI report")


def print_layers(metrics: dict, n_passes: int) -> None:
    """One line per layer: its timings beside the work sizes they were measured over."""
    layers: dict[str, list[str]] = {}
    for name, m in metrics.items():
        layer, _, key = name.partition(".")
        layers.setdefault(layer, []).append(f"{key}={m['value']:.6g} {m['unit']}")
    for layer, items in layers.items():
        print(f"{layer:<9} " + ", ".join(items))
    print(f"(medians over {n_passes} clean traced passes)")


def report_passes(w: Workload, passes: list[Pass], setup: list[float], startup: list[float]) -> None:
    """Timings beside the work sizes they are measured over."""
    inputs = OUT / w.name / "inputs"
    corpus = inputs / f"corpus.{w.ext}"
    entries = len(gold_sequence(w.fmt, corpus.read_bytes()))
    print(f"workload {w.name}: {w.n_dialogs} dialogs, {corpus.stat().st_size} corpus bytes, "
          f"{entries} manifest entries, {sum(w.targets.values())} planned assignments")
    print(f"set-up: median {median(setup):.4f} s of {len(setup)}; "
          f"natvar patterns (start-up): median {median(startup):.4f} s of {len(startup)}")
    for i, p in enumerate(passes, start=1):
        cmds = ", ".join(f"{k} {v:.3f} s" for k, v in p.seconds.items())
        print(f"pass {i}: {cmds}; total {p.total:.3f} s; {w.n_dialogs / p.total:.3f} dialogs/s; "
              f"peak rss {p.peak_rss_kib / 1024:.1f} MB; {p.bytes_out} output bytes; "
              f"{len(p.ledger.failures)} of {p.ledger.attempted} operations failed")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's seed-0 output digests in golden.json")
    args = ap.parse_args(argv)

    if not (SRC / "natvar" / "cli.py").is_file():
        print(f"error: no natvar sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.write_golden and args.seed != 0:
        print("error: --write-golden records seed 0 only", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    goldens = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    golden = goldens.get(w.name) if args.seed == 0 and not args.write_golden else None
    result = run(w, args.seed, args.seconds, bool(args.trace), golden=golden)
    if args.write_golden and result["correct"]:
        goldens[w.name] = pass_digests(OUT / w.name / "inputs", OUT / w.name / "pass-1")
        GOLDEN.write_text(json.dumps(goldens, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
