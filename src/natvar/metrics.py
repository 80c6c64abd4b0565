"""Evaluation measures over a masked manifest.

All four measures score only the agent responses listed in the manifest,
i.e. the ones present in the source test set; injected responses are never
scored. Each is a closed function of integer sums. A manifest entry's
entry row is a `ROW` of counts: BLEU clipped n-gram matches and totals for
orders 1-4, predicted and gold lengths, entity tp, fp and fn, one response
and whether it is correct. One walk scores each distinct (prediction, gold,
lexicon) key once, in a `functools.cache` local to the call; a dialog's row
sums its entry rows, plus `dialogs` and `ok_dialogs` (all correct).
`finalize` turns the sum of any rows into the four floats, so the sums over
a partition of the dialogs add up to the aggregate. BLEU is corpus-level
with uniform weights, the standard brevity penalty and no smoothing: a zero
match count at any order gives BLEU 0. Entity F1 is
micro-averaged against a KB-derived entity lexicon. A response is correct
when it tokenizes as its gold after lowercasing. Corpus dialogs with no
manifest entry have no row; per-dialog accuracy counts them as correct.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

from . import NatvarError
from .io import ParseError, decode_utf8
from .manifest import EvalManifest, PredictionSet
from .model import DialogCorpus, entities_in


class MetricError(NatvarError):
    """Misaligned predictions or unusable metric inputs."""


@dataclass(frozen=True)
class EvalReport:
    bleu: float                # percentage in [0, 100]
    entity_f1: float           # ratio in [0, 1]
    per_response_acc: float
    per_dialog_acc: float
    n_responses: int
    n_dialogs: int
    corpus_tag: str = ""
    checksums: tuple[tuple[str, str], ...] = ()
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return dict(asdict(self), checksums=dict(self.checksums), notes=list(self.notes))

    def render(self) -> str:
        lines = [
            f"corpus_tag: {self.corpus_tag}",
            f"n_responses: {self.n_responses}",
            f"n_dialogs: {self.n_dialogs}",
            f"bleu: {self.bleu:.4f}",
            f"entity_f1: {self.entity_f1:.4f}",
            f"entity_f1_x100: {self.entity_f1 * 100:.2f}",
            f"per_response_acc: {self.per_response_acc:.4f}",
            f"per_dialog_acc: {self.per_dialog_acc:.4f}",
        ]
        for key, value in self.checksums:
            lines.append(f"checksum.{key}: {value}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


#: Fields of an entry or a per-dialog stats row, in order.
ROW = ("match1", "match2", "match3", "match4", "total1", "total2", "total3", "total4",
       "pred_len", "gold_len", "tp", "fp", "fn", "responses", "correct", "dialogs", "ok_dialogs")
_PRED_LEN, _GOLD_LEN, _TP, _FP, _FN, _RESPONSES, _CORRECT, _DIALOGS, _OK_DIALOGS = range(8, len(ROW))


def _entry_row(pred: str, gold: str, lexicon: frozenset[str] | None) -> list[int]:
    """One manifest entry's `ROW`, `dialogs` and `ok_dialogs` 0. Order n+1 n-grams are
    `zip`ped from order n; a prediction that tokenizes as its gold matches all its n-grams."""
    row = [0] * len(ROW)
    p, g = pred.lower().split(), gold.lower().split()
    row[_PRED_LEN], row[_GOLD_LEN], row[_RESPONSES] = len(p), len(g), 1
    row[4:8] = (max(0, len(p) - n) for n in range(4))
    if p == g:
        row[_CORRECT] = 1
        row[:4] = row[4:8]
    else:
        pgrams, ggrams = p, g
        for n in range(4):
            if n:
                if not row[n - 1]:
                    break  # no shorter n-gram matches, so no longer one does
                pgrams = list(zip(pgrams, p[n:]))
                ggrams = list(zip(ggrams, g[n:]))
            left: dict = {}  # gold n-gram counts; each predicted match uses one up
            for gram in ggrams:
                left[gram] = left.get(gram, 0) + 1
            for gram in pgrams:
                if left.get(gram):
                    left[gram] -= 1
                    row[n] += 1
    if lexicon:
        # Entities are matched on lowercased tokens: a correct prediction has the gold's.
        gold_set = entities_in(gold, lexicon)
        pred_set = gold_set if row[_CORRECT] else entities_in(pred, lexicon)
        tp = len(gold_set & pred_set)
        row[_TP], row[_FP], row[_FN] = tp, len(pred_set) - tp, len(gold_set) - tp
    return row


def dialog_stats(preds: PredictionSet, manifest: EvalManifest,
                 lexicon_of: Callable[[str], frozenset[str] | None] | None = None) -> dict[str, list[int]]:
    """Dialog id -> its `ROW`, in manifest first-appearance order: the sum of
    its entry rows, scored once per distinct (prediction, gold, lexicon) key
    in this call, with `dialogs` 1 and `ok_dialogs` 1 when all are correct.

    Entities are matched against `lexicon_of(dialog_id)`; with no lexicon,
    tp, fp and fn stay 0. The key holds the lexicon because per-dialog KBs
    score one pair differently in different dialogs.
    """
    if preds.manifest_digest != manifest.digest() or len(preds.responses) != len(manifest.entries):
        raise MetricError("predictions are not aligned to this manifest (digest or count mismatch)")
    entry_row = functools.cache(_entry_row)
    by_dialog: dict[str, list[list[int]]] = {}
    for pred, entry in zip(preds.responses, manifest.entries):
        lexicon = lexicon_of(entry.dialog_id) if lexicon_of else None
        by_dialog.setdefault(entry.dialog_id, []).append(entry_row(pred, entry.gold_text, lexicon))
    rows = {}
    for dialog_id, dialog_entries in by_dialog.items():
        row = rows[dialog_id] = list(map(sum, zip(*dialog_entries)))
        row[_DIALOGS], row[_OK_DIALOGS] = 1, int(row[_CORRECT] == row[_RESPONSES])
    return rows


def finalize(rows: Iterable[list[int]], n_dialogs: int = 0) -> tuple[float, float, float, float]:
    """(BLEU in [0, 100], entity F1, per-response, per-dialog accuracy) of
    summed rows; up to `n_dialogs`, dialogs without a row count as correct."""
    total = [sum(column) for column in zip(*rows)] or [0] * len(ROW)
    matches, totals = total[:4], total[4:8]
    pred_len, gold_len, tp, fp, fn, responses, correct, dialogs, ok_dialogs = total[8:]
    bleu = 0.0
    if pred_len and 0 not in matches:
        p1, p2, p3, p4 = (math.log(m / t) for m, t in zip(matches, totals))
        # Added left to right: from Python 3.12 on, `sum` of floats is
        # compensated and rounds differently, which would change the report.
        log_precision = (p1 + p2 + p3 + p4) / 4
        bp = 1.0 if pred_len > gold_len else math.exp(1 - gold_len / pred_len)
        bleu = 100.0 * bp * math.exp(log_precision)
    f1 = 2 * tp / (2 * tp + fp + fn) if tp or fn else 0.0
    denom = max(n_dialogs, dialogs)
    per_dialog = (ok_dialogs + denom - dialogs) / denom if denom else 1.0
    return bleu, f1, correct / responses if responses else 1.0, per_dialog


def _entity_stats(preds: PredictionSet, manifest: EvalManifest, corpus: DialogCorpus,
                  scope: str) -> Iterable[list[int]]:
    """Stats rows against the corpus-wide lexicon (scope "global") or each
    dialog's own KB entities ("dialog"); warns when no gold entity is found."""
    if scope not in ("global", "dialog"):
        raise MetricError(f"unknown entity scope {scope!r}")
    if scope == "global" and not corpus.global_entities:
        raise MetricError("empty entity lexicon")
    lexicon_of = ({d.id: d.entity_lexicon() for d in corpus.dialogs}.get if scope == "dialog"
                  else lambda _: corpus.global_entities)
    rows = dialog_stats(preds, manifest, lexicon_of).values()
    if not any(r[_TP] or r[_FN] for r in rows):
        print("warning: no scoreable entities in any gold response; entity F1 = 0", file=sys.stderr)
    return rows


def corpus_bleu(preds: PredictionSet, manifest: EvalManifest) -> float:
    """Corpus BLEU, orders 1-4, uniform weights, no smoothing, in [0, 100]."""
    return finalize(dialog_stats(preds, manifest).values())[0]


def entity_f1(preds: PredictionSet, manifest: EvalManifest, corpus: DialogCorpus,
              scope: str = "global") -> float:
    """Micro-averaged F1 between entity sets of gold and predicted responses.
    Entries whose gold response has no entity contribute false positives only."""
    return finalize(_entity_stats(preds, manifest, corpus, scope))[1]


def response_accuracy(preds: PredictionSet, manifest: EvalManifest,
                      n_dialogs: int | None = None) -> tuple[float, float]:
    """(per-response, per-dialog) exact-match accuracy. Per-dialog accuracy
    may exceed per-response accuracy when dialogs differ in length (one wrong
    response fails a long dialog while short dialogs pass); each failed dialog
    holds at least one wrong response, and both are 1.0 together or not at all."""
    return finalize(dialog_stats(preds, manifest).values(), n_dialogs or 0)[2:]


def evaluate(preds: PredictionSet, manifest: EvalManifest, corpus: DialogCorpus,
             scope: str = "global", checksums: tuple[tuple[str, str], ...] = ()) -> EvalReport:
    return EvalReport(
        *finalize(_entity_stats(preds, manifest, corpus, scope), len(corpus.dialogs)),
        n_responses=len(manifest.entries),
        n_dialogs=len(corpus.dialogs),
        corpus_tag=manifest.corpus_tag,
        checksums=checksums,
        notes=(f"bleu=corpus/1-4/uniform/no-smoothing; entity_scope={scope}",),
    )


@dataclass(frozen=True)
class MetricDelta:
    metric: str
    original: float
    updated: float

    @property
    def absolute(self) -> float:
        return self.updated - self.original

    @property
    def relative_drop_pct(self) -> float:
        """Drop relative to the original value, as a percentage."""
        if self.original == 0:
            return 0.0
        return (self.original - self.updated) / self.original * 100.0


_METRICS = ("bleu", "entity_f1", "per_response_acc", "per_dialog_acc")


def read_report(data: bytes) -> dict:
    """A report JSON as `eval --output` writes it; its metric fields are
    finite numbers or null."""
    text = decode_utf8(data, "report")
    try:
        report = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"report is not JSON: {e}") from e
    if not isinstance(report, dict):
        raise ParseError("report is not a JSON object")
    for key in _METRICS:
        value = report.get(key)
        if value is not None and (type(value) not in (int, float) or not abs(value) <= sys.float_info.max):
            raise ParseError(f"report field {key!r} is not a finite number")
    return report


def compare(original: dict, updated: dict) -> list[MetricDelta]:
    """Side-by-side deltas for the metric fields both reports carry."""
    return [MetricDelta(key, float(original[key]), float(updated[key])) for key in _METRICS
            if original.get(key) is not None and updated.get(key) is not None]


def render_comparison(deltas: list[MetricDelta]) -> str:
    header = f"{'metric':<20}{'original':>12}{'updated':>12}{'delta':>12}{'rel drop':>12}"
    lines = [header, "-" * len(header)]
    for d in deltas:
        scale = 100.0 if d.metric in ("entity_f1", "per_response_acc", "per_dialog_acc") and max(abs(d.original), abs(d.updated)) <= 1.0 else 1.0
        lines.append(
            f"{d.metric:<20}{d.original * scale:>12.2f}{d.updated * scale:>12.2f}"
            f"{d.absolute * scale:>12.2f}{d.relative_drop_pct:>11.1f}%"
        )
    return "\n".join(lines) + "\n"
