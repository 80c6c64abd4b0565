"""In-process replay of a workload's command sequence, with a span around
each call into a natvar module: the per-layer half of the benchmark.

Spans are taken on the benchmark's side of each public call; nothing inside
natvar is instrumented. The replay does what each CLI subcommand does, with
the same functions, minus process start-up, stderr notes, run records and file
writes. It returns the bytes and scores the CLI wrote so the run can check the
two against each other.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from natvar import babi, manifest as nman, metrics as nmet, planner, recipes
from natvar.baseline import TfIdfScorer, candidates_from_corpus, load_candidates, predict
from natvar.io import parse_corpus, serialize_corpus
from natvar.stats import corpus_stats

# Calls the CLI does not make, added to time one layer on its own:
# plan() runs find_anchors internally, and predict() builds its own scorer.
PROBES = ("recipes.find_anchors", "baseline.index")
TIMED = ("io.parse", "io.serialize", "recipes.find_anchors", "planner.plan",
         "planner.execute", "planner.ablate", "manifest.export", "manifest.parse",
         "manifest.read_predictions", "baseline.index", "baseline.predict", "metrics.bleu",
         "metrics.entity_f1", "metrics.entity_f1_dialog", "metrics.accuracy",
         "stats.corpus_stats")
LAYERS = ("io", "recipes", "planner", "manifest", "baseline", "metrics", "stats")
# Work sizes, summed over the spans that record them.
COUNTS = {
    "io.bytes_in": "bytes", "io.bytes_out": "bytes", "io.dialogs": "count", "io.turns": "count",
    "recipes.pairs": "count", "planner.assignments": "count", "planner.turns_added": "count",
    "manifest.entries": "count", "baseline.candidates": "count", "baseline.pairs": "count",
    "baseline.history_tokens": "count", "metrics.lexicon_size": "count",
    "metrics.lexicon_max_span": "count",
}
COMMANDS = ("inject", "ablate", "baseline", "eval")


class Tracer:
    """Spans kept in memory and written out when the run ends."""

    def __init__(self, workload: str):
        self.workload = workload
        self.pass_no = 0
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """Time the body; yields the span's count dict for the caller to fill."""
        s = {"id": len(self.spans), "name": name,
             "parent": self._open[-1]["id"] if self._open else None,
             "workload": self.workload, "pass": self.pass_no,
             "start": 0.0, "end": 0.0, "counts": {}}
        self.spans.append(s)
        self._open.append(s)
        s["start"] = time.perf_counter() - self._t0
        try:
            yield s["counts"]
        finally:
            s["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def write(self, path: Path) -> None:
        selfs = self_times(self.spans)
        rows = [dict(s, self=t) for s, t in zip(self.spans, selfs)]
        path.write_text(json.dumps({"workload": self.workload, "clock": "perf_counter seconds",
                                    "spans": rows}, indent=1) + "\n", encoding="utf-8")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(kids.get(s["id"], [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out.append(s["end"] - s["start"] - covered)
    return out


@dataclass
class Replay:
    outputs: dict = field(default_factory=dict)  # file name relative to the pass dir -> bytes
    scores: dict = field(default_factory=dict)   # "eval-<scope>" -> report values


def _turns(corpus) -> int:
    return sum(len(d.turns) for d in corpus.dialogs)


def _parse(tr: Tracer, data: bytes, fmt: str, sidecar: bytes | None = None):
    with tr.span("io.parse") as c:
        corpus = parse_corpus(data, fmt, sidecar)
    c.update({"io.bytes_in": len(data) + len(sidecar or b""), "io.dialogs": len(corpus.dialogs),
              "io.turns": _turns(corpus)})
    return corpus


def _save(tr: Tracer, corpus, name: str, r: Replay) -> None:
    with tr.span("io.serialize") as c:
        files = {name: serialize_corpus(corpus)}
        if corpus.source_format == "babi" and not corpus.is_pristine:
            files[f"{name}.origin"] = babi.serialize_origin_sidecar(corpus)
    c["io.bytes_out"] = sum(map(len, files.values()))
    r.outputs.update(files)


def _manifest(tr: Tracer, corpus, name: str, r: Replay):
    """Export and serialize the manifest; returns the span's counts and the manifest."""
    with tr.span("manifest.export") as c:
        m = nman.export_manifest(corpus)
        r.outputs[f"{name}.manifest.tsv"] = nman.serialize_manifest(m)
    return c, m


def _read_manifest(tr: Tracer, data: bytes):
    with tr.span("manifest.parse"):
        return nman.parse_manifest(data)


def plan_config(w, seed: int, inp: Path):
    """The PlanConfig `inject`/`ablate` resolve from the workload's arguments."""
    if w.scaled_config:
        d = json.loads((inp / "config.json").read_text(encoding="utf-8"))
        return planner.config_from_dict(dict(d, seed=seed))
    return planner.preset_config(f"{w.fmt}-table1", seed=seed)


def replay(w, seed: int, inp: Path, tr: Tracer) -> Replay:
    """One traced pass of workload `w` over the inputs in `inp`."""
    r = Replay()
    src = (inp / f"corpus.{w.ext}").read_bytes()
    cfg = plan_config(w, seed, inp)
    updated_name = f"updated.{w.ext}"

    with tr.span("cmd.inject"):
        corpus = _parse(tr, src, w.fmt)
        with tr.span("recipes.find_anchors") as anchors:
            pairs = eligible = 0
            for p in cfg.pattern_order:
                if cfg.targets.get(p, 0) > 0:
                    for d in corpus.dialogs:
                        pairs += 1
                        eligible += bool(recipes.find_anchors(recipes.RECIPES[p], d, cfg.seed))
        anchors.update({"recipes.pairs": pairs, "recipes.eligible": eligible})
        with tr.span("planner.plan") as c:
            pln = planner.plan(corpus, cfg)
        c["planner.assignments"] = len(pln.assignments)
        with tr.span("planner.execute") as c:
            updated = planner.execute(corpus, pln)
        c["planner.turns_added"] = _turns(updated) - _turns(corpus)
        _save(tr, updated, updated_name, r)
        c, m = _manifest(tr, updated, updated_name, r)
        c["manifest.entries"] = len(m.entries)
        lines = [f"{a.dialog_id}\t{a.pattern}\t{a.anchor.turn_index}" for a in pln.assignments]
        r.outputs[f"{updated_name}.plan.tsv"] = ("\n".join(lines) + "\n").encode() if lines else b""

    if w.middle == "ablate":
        with tr.span("cmd.ablate"):
            corpus = _parse(tr, src, w.fmt)
            for p in recipes.patterns_for_dataset(w.fmt):
                if cfg.targets.get(p, 0) <= 0:
                    continue
                with tr.span("planner.ablate") as c:
                    solo = planner.ablate(corpus, cfg, p)
                c.update({"planner.assignments": sum(p in d.applied_patterns for d in solo.dialogs),
                          "planner.turns_added": _turns(solo) - _turns(corpus)})
                _save(tr, solo, f"ablate/{p}.{w.ext}", r)
                _manifest(tr, solo, f"ablate/{p}.{w.ext}", r)
                with tr.span("stats.corpus_stats"):
                    corpus_stats(solo)
        preds = (inp / "predictions.txt").read_bytes()
    else:
        with tr.span("cmd.baseline"):
            upd = _parse(tr, r.outputs[updated_name], w.fmt, r.outputs.get(f"{updated_name}.origin"))
            cands = (load_candidates((inp / "candidates.txt").read_bytes()) if w.candidate_file
                     else candidates_from_corpus(upd))
            manifest = _read_manifest(tr, r.outputs[f"{updated_name}.manifest.tsv"])
            with tr.span("baseline.index"):
                TfIdfScorer(cands)
            with tr.span("baseline.predict") as c:
                responses = predict(upd, manifest, cands).responses
            preds = ("\n".join(responses) + "\n").encode("utf-8") if responses else b""
            r.outputs["predictions.txt"] = preds
        by_id = upd.dialog_by_id()
        c.update({
            "baseline.candidates": len(cands.responses),
            "baseline.pairs": len(manifest.entries) * len(cands.responses),
            # Tokens of the concatenated history the scorer vectorises per candidate.
            "baseline.history_tokens": sum(len(t.text.split()) for e in manifest.entries
                                           for t in by_id[e.dialog_id].turns[:e.turn_index]),
        })

    for scope in w.scopes:
        with tr.span("cmd.eval"):
            upd = _parse(tr, r.outputs[updated_name], w.fmt, r.outputs.get(f"{updated_name}.origin"))
            manifest = _read_manifest(tr, r.outputs[f"{updated_name}.manifest.tsv"])
            with tr.span("manifest.read_predictions"):
                ps = nman.read_predictions(preds, manifest)
            with tr.span("metrics.accuracy"):
                per_response, per_dialog = nmet.response_accuracy(ps, manifest, len(upd.dialogs))
            with tr.span("metrics.bleu"):
                bleu = nmet.corpus_bleu(ps, manifest)
            with tr.span("metrics.entity_f1" if scope == "global" else "metrics.entity_f1_dialog") as c:
                f1 = nmet.entity_f1(ps, manifest, upd, scope)
        if scope == "global":
            c.update({"metrics.lexicon_size": len(upd.global_entities),
                      "metrics.lexicon_max_span": max(e.count("_") + 1 for e in upd.global_entities)})
        r.scores[f"eval-{scope}"] = {"bleu": bleu, "entity_f1": f1,
                                     "per_response_acc": per_response, "per_dialog_acc": per_dialog}
    return r


def _pass_metrics(spans: list[dict], selfs: list[float], untraced: dict, untraced_total: float,
                  startup: float) -> dict[str, tuple[float, str]]:
    dur = [s["end"] - s["start"] for s in spans]
    m: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        m[f"{name}_s"] = (sum(d for s, d in zip(spans, dur) if s["name"] == name), "s")
    for key, unit in COUNTS.items():
        m[key] = (sum(s["counts"].get(key, 0) for s in spans), unit)
    pairs = m["recipes.pairs"][0]
    eligible = sum(s["counts"].get("recipes.eligible", 0) for s in spans)
    m["recipes.eligible_ratio"] = (eligible / pairs if pairs else 0.0, "ratio")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(t for s, t in zip(spans, selfs)
                                    if s["name"].startswith(layer + ".")), "s")
    # Time inside command spans not under any layer span: the replay's own reads and glue.
    m["glue.self_s"] = (sum(t for s, t in zip(spans, selfs) if s["name"].startswith("cmd.")), "s")
    m["cli.startup_s"] = (startup, "s")
    for cmd in COMMANDS:
        m[f"cli.{cmd}_s"] = (untraced.get(cmd, 0.0), "s")
    traced = (sum(d for s, d in zip(spans, dur) if s["name"].startswith("cmd."))
              - sum(d for s, d in zip(spans, dur) if s["name"] in PROBES))
    m["trace.traced_s"] = (traced, "s")
    m["trace.untraced_s"] = (untraced_total, "s")
    m["trace.overhead_ratio"] = (traced / untraced_total - 1.0, "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m


def layer_metrics(tr: Tracer, pass_nos: list[int], cli_passes: list, startup: float) -> dict:
    """Per-layer metrics of the given traced passes, each the median over them."""
    selfs = self_times(tr.spans)
    per_pass = []
    for n, cli in zip(pass_nos, cli_passes):
        idx = [i for i, s in enumerate(tr.spans) if s["pass"] == n]
        per_pass.append(_pass_metrics([tr.spans[i] for i in idx], [selfs[i] for i in idx],
                                      cli.seconds, cli.total, startup))
    return {name: {"value": statistics.median(p[name][0] for p in per_pass),
                   "unit": per_pass[0][name][1]}
            for name in per_pass[0]}
