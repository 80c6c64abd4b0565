"""Evaluation measures over a masked manifest.

All four measures score only the agent responses listed in the manifest,
i.e. the ones present in the source test set; injected responses are never
scored. BLEU is corpus-level with n-gram orders 1-4, uniform weights, the
standard brevity penalty and no smoothing: a zero corpus-wide match count
at any order gives BLEU 0. Entity F1 is micro-averaged over the manifest
against a KB-derived entity lexicon. Accuracy is exact string match after
lowercasing and whitespace-run collapsing.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field

from .manifest import EvalManifest, PredictionSet
from .model import DialogCorpus, entities_in


class MetricError(ValueError):
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
        return {
            "bleu": self.bleu,
            "entity_f1": self.entity_f1,
            "per_response_acc": self.per_response_acc,
            "per_dialog_acc": self.per_dialog_acc,
            "n_responses": self.n_responses,
            "n_dialogs": self.n_dialogs,
            "corpus_tag": self.corpus_tag,
            "checksums": dict(self.checksums),
            "notes": list(self.notes),
        }

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


def _check_aligned(preds: PredictionSet, manifest: EvalManifest) -> None:
    if preds.manifest_digest != manifest.digest():
        raise MetricError("predictions are not aligned to this manifest (digest mismatch)")


def _tokens(text: str) -> list[str]:
    return text.lower().split()


def corpus_bleu(preds: PredictionSet, manifest: EvalManifest) -> float:
    """Corpus BLEU, orders 1-4, uniform weights, no smoothing, in [0, 100].

    Each entry's n-grams of order n+1 are `zip`ped from those of order n,
    and the clipped match count is a multiset intersection; an entry whose
    prediction tokenizes as its gold adds max(0, len - n + 1) to order n's
    matches and totals without counting.
    """
    _check_aligned(preds, manifest)
    matches = [0] * 4
    totals = [0] * 4
    pred_len = 0
    gold_len = 0
    for pred, entry in zip(preds.responses, manifest.entries):
        p = _tokens(pred)
        g = _tokens(entry.gold_text)
        pred_len += len(p)
        gold_len += len(g)
        if p == g:  # every n-gram of the prediction is matched by itself
            for n in range(min(4, len(p))):
                matches[n] += len(p) - n
                totals[n] += len(p) - n
            continue
        pgrams, ggrams = p, g
        for n in range(4):
            if n:
                pgrams = list(zip(pgrams, p[n:]))
                ggrams = list(zip(ggrams, g[n:]))
            totals[n] += len(pgrams)
            matches[n] += sum((Counter(pgrams) & Counter(ggrams)).values())
    if pred_len == 0 or any(m == 0 for m in matches):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matches, totals)) / 4
    bp = 1.0 if pred_len > gold_len else math.exp(1 - gold_len / pred_len)
    return 100.0 * bp * math.exp(log_precision)


def entity_f1(preds: PredictionSet, manifest: EvalManifest, corpus: DialogCorpus,
              scope: str = "global", warn=None) -> float:
    """Micro-averaged F1 between entity sets of gold and predicted responses.

    scope "global" matches against the corpus-wide entity lexicon; scope
    "dialog" restricts each entry to its own dialog's KB entities. Entries
    whose gold response has no entity contribute false positives only.
    """
    _check_aligned(preds, manifest)
    if scope not in ("global", "dialog"):
        raise MetricError(f"unknown entity scope {scope!r}")
    if scope == "global" and not corpus.global_entities:
        raise MetricError("empty entity lexicon")
    if scope == "dialog":
        lexicons = {d.id: d.entity_lexicon() for d in corpus.dialogs}
    tp = fp = fn = 0
    for pred, entry in zip(preds.responses, manifest.entries):
        lexicon = corpus.global_entities if scope == "global" else lexicons.get(entry.dialog_id)
        if not lexicon:
            continue
        gold_set = entities_in(entry.gold_text, lexicon)
        pred_set = entities_in(pred, lexicon)
        if gold_set:
            tp += len(gold_set & pred_set)
            fp += len(pred_set - gold_set)
            fn += len(gold_set - pred_set)
        else:
            fp += len(pred_set)
    if tp == 0 and fn == 0:
        (warn or (lambda m: print(m, file=sys.stderr)))(
            "warning: no scoreable entities in any gold response; entity F1 = 0"
        )
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def _norm_exact(text: str) -> str:
    return " ".join(text.lower().split())


def response_accuracy(preds: PredictionSet, manifest: EvalManifest,
                      n_dialogs: int | None = None) -> tuple[float, float]:
    """(per-response, per-dialog) exact-match accuracy.

    Per-dialog counts a dialog correct when every one of its manifest
    entries matches; when `n_dialogs` exceeds the dialogs present in the
    manifest, the extra (response-free) dialogs count as correct.
    Per-dialog accuracy may exceed per-response accuracy when dialogs
    differ in length (one wrong response fails a long dialog while short
    dialogs pass); each failed dialog holds at least one wrong response,
    and both accuracies are 1.0 together or not at all.
    """
    _check_aligned(preds, manifest)
    total = len(manifest.entries)
    correct = 0
    dialog_ok: dict[str, bool] = {}
    for pred, entry in zip(preds.responses, manifest.entries):
        ok = _norm_exact(pred) == _norm_exact(entry.gold_text)
        correct += ok
        dialog_ok[entry.dialog_id] = dialog_ok.get(entry.dialog_id, True) and ok
    in_manifest = len(dialog_ok)
    denom = max(n_dialogs or in_manifest, in_manifest)
    ok_dialogs = sum(dialog_ok.values()) + (denom - in_manifest)
    per_response = correct / total if total else 1.0
    per_dialog = ok_dialogs / denom if denom else 1.0
    return per_response, per_dialog


def evaluate(preds: PredictionSet, manifest: EvalManifest, corpus: DialogCorpus,
             scope: str = "global", checksums: tuple[tuple[str, str], ...] = ()) -> EvalReport:
    per_response, per_dialog = response_accuracy(preds, manifest, len(corpus.dialogs))
    return EvalReport(
        bleu=corpus_bleu(preds, manifest),
        entity_f1=entity_f1(preds, manifest, corpus, scope),
        per_response_acc=per_response,
        per_dialog_acc=per_dialog,
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


def compare(original: dict, updated: dict) -> list[MetricDelta]:
    """Side-by-side deltas for the metric fields both reports carry."""
    deltas = []
    for key in ("bleu", "entity_f1", "per_response_acc", "per_dialog_acc"):
        if key in original and key in updated and original[key] is not None and updated[key] is not None:
            deltas.append(MetricDelta(key, float(original[key]), float(updated[key])))
    return deltas


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
