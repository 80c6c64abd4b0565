"""Seeded assignment of (dialog, pattern, anchor) triples.

The planner fills per-pattern dialog targets exactly (or fails loudly with
a per-pattern eligibility report). When overlap bucket targets are given,
selection is biased so the number of dialogs carrying at least k patterns
lands on the targets: each pick prefers the deepest bucket still under its
target, falling back to the shallowest level when every bucket is full.
Within a preference tier the choice is seeded-uniform without replacement.

Published per-pattern totals and overlap buckets are not mutually
consistent (the bucket sums exceed the per-pattern sums), so bucket
targets are first rescaled onto the achievable assignment total; the
per-pattern targets stay exact. The adjustment never touches the >=1
bucket or the deepest bucket unless arithmetic forces it, and the gap is
reported, not hidden.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields, replace

from . import NatvarError
from .model import Dialog, DialogCorpus, content_digest
from .recipes import (
    RECIPES,
    Anchor,
    PATTERN_ORDER,
    find_anchors,
    keyed_rng,
    patterns_for_dataset,
    splice,
)


class PlanError(NatvarError):
    """Invalid plan configuration or plan/corpus mismatch."""

    exit_code = 1


class PlanMismatchError(PlanError):
    """A plan applied to a corpus or config it was not made for."""

    exit_code = 2


class ShortfallError(PlanError):
    """Too few candidate dialogs for one or more patterns' targets.

    Each shortfall is (pattern, target, eligible dialogs) when eligibility
    fell short, or (pattern, target, eligible dialogs under the cap, cap)
    when the per-dialog cap did.
    """

    exit_code = 3
    label = "plan shortfall"

    def __init__(self, shortfalls: list[tuple]):
        self.shortfalls = shortfalls
        cause = "per-dialog cap" if len(shortfalls[0]) == 4 else "eligibility"
        lines = ", ".join(map(shortfall_text, shortfalls))
        super().__init__(f"{cause} shortfall ({lines})")


def shortfall_text(shortfall: tuple) -> str:
    """One shortfall as `ShortfallError` and the run notes name it."""
    name, target, available, *cap = shortfall
    if cap:
        return (f"{name}: {available} eligible dialogs under the per-dialog cap of {cap[0]} "
                f"< target {target}")
    return f"{name}: eligible {available} < target {target}"


@dataclass(frozen=True)
class PlanConfig:
    targets: dict[str, int]
    seed: int = 0
    max_patterns_per_dialog: int = 4
    histogram_targets: tuple[int, ...] | None = None
    allow_shortfall: bool = False
    # Not a field: `plan` always assigns in this order. perfbench/traced.py reads it.
    pattern_order = PATTERN_ORDER

    def to_dict(self) -> dict:
        return {
            "targets": dict(self.targets),
            "seed": self.seed,
            "max_patterns_per_dialog": self.max_patterns_per_dialog,
            "histogram_targets": list(self.histogram_targets) if self.histogram_targets else None,
            "allow_shortfall": self.allow_shortfall,
        }


#: Table-row targets for the two published testbeds.
PRESETS: dict[str, dict] = {
    "smd-table1": {
        "targets": {
            "open_request_screening": 64,
            "example_request": 23,
            "misunderstanding_report": 35,
            "other_correction": 24,
            "sequence_closer_not_helped": 6,
            "sequence_closer_repaired": 139,
            "capability_expansion": 151,
            "recipient_correction": 100,
        },
        "max_patterns_per_dialog": 4,
        "histogram_targets": [288, 198, 57, 7, 0],
    },
    "babi-table1": {
        "targets": {
            "open_request_screening": 54,
            "open_request_user_detail_request": 143,
            "misunderstanding_report": 314,
            "other_correction": 522,
            "sequence_closer_not_helped": 811,
            "sequence_closer_repaired": 189,
            "capability_expansion": 811,
        },
        "max_patterns_per_dialog": 5,
        "histogram_targets": [1000, 981, 843, 375, 4],
    },
}


def preset_config(name: str, seed: int = 0, allow_shortfall: bool = False) -> PlanConfig:
    if name not in PRESETS:
        raise PlanError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return config_from_dict(dict(PRESETS[name], seed=seed, allow_shortfall=allow_shortfall))


def config_from_dict(d: dict) -> PlanConfig:
    unknown = sorted(set(d) - {f.name for f in fields(PlanConfig)})
    if unknown:
        raise PlanError(f"unknown config key {unknown[0]!r}")
    cfg = PlanConfig(
        targets={str(k): int(v) for k, v in d["targets"].items()},
        seed=int(d.get("seed", 0)),
        max_patterns_per_dialog=int(d.get("max_patterns_per_dialog", 4)),
        histogram_targets=tuple(int(n) for n in d["histogram_targets"]) if d.get("histogram_targets") else None,
        allow_shortfall=bool(d.get("allow_shortfall", False)),
    )
    if any(n < 0 for n in (*cfg.targets.values(), *(cfg.histogram_targets or ()))):
        raise PlanError("targets and histogram_targets must not be negative")
    if cfg.max_patterns_per_dialog < 1:
        raise PlanError("max_patterns_per_dialog must be at least 1")
    return cfg


@dataclass(frozen=True, slots=True)
class Assignment:
    dialog_id: str
    pattern: str
    anchor: Anchor  # turn index refers to the pristine dialog


@dataclass(frozen=True)
class InjectionPlan:
    assignments: tuple[Assignment, ...]
    corpus_digest: str
    seed: int
    # The recorded shortfalls, as `ShortfallError` holds them.
    shortfalls: tuple[tuple, ...] = ()
    histogram_note: str = ""


def adjust_histogram(targets: tuple[int, ...], total: int, n_dialogs: int,
                     cap: int) -> tuple[int, ...]:
    """Rescale bucket targets so they sum to `total` assignments.

    Buckets stay monotone non-increasing. Units are removed from buckets
    >=2 first, preferring buckets with slack above 95% of their published
    value, then by largest inter-bucket gap; bucket >=1 gives only as a
    last resort. Addition is symmetric.
    """
    h = [min(int(x), n_dialogs) for x in targets]
    for k in range(1, len(h)):
        h[k] = min(h[k], h[k - 1])
    for k in range(cap, len(h)):
        h[k] = 0
    band_min = [math.ceil(0.95 * t) for t in targets]
    r = sum(h) - total

    def nxt(k):
        return h[k + 1] if k + 1 < len(h) else 0

    while r > 0:
        # Above-band buckets first (never >=1).
        cands = [k for k in range(1, len(h)) if h[k] > band_min[k] and h[k] - 1 >= nxt(k)]
        if cands:
            k = max(cands, key=lambda k: (h[k] - band_min[k], -k))
        else:
            cands = [k for k in range(1, len(h)) if h[k] - 1 >= nxt(k) and h[k] > 0]
            if cands:
                k = max(cands, key=lambda k: (h[k] - nxt(k), k))
            elif h[0] > 0:
                k = 0
            else:
                break
        h[k] -= 1
        r -= 1
    while r < 0:
        prev = lambda k: h[k - 1] if k > 0 else n_dialogs
        cands = [k for k in range(0, min(cap, len(h))) if h[k] + 1 <= prev(k)]
        if not cands:
            break
        band_max = [math.floor(1.05 * t) for t in targets]
        in_band = [k for k in cands if h[k] + 1 <= band_max[k]]
        k = min(in_band) if in_band else min(cands)
        h[k] += 1
        r += 1
    return tuple(h)


def plan(corpus: DialogCorpus, cfg: PlanConfig) -> InjectionPlan:
    """Deterministic assignment plan for (corpus, cfg).

    Raises ShortfallError when a pattern's eligible dialog count is below
    its target, unless cfg.allow_shortfall caps the target and records the
    gap.
    """
    dataset = corpus.source_format
    valid = set(patterns_for_dataset(dataset))
    for name in cfg.targets:
        if name not in RECIPES:
            raise PlanError(f"unknown pattern {name!r}")
        if name not in valid:
            raise PlanError(f"pattern not applicable to {dataset}: {name}")

    order = [p for p in PATTERN_ORDER if cfg.targets.get(p, 0) > 0]
    dialog_pos = {d.id: i for i, d in enumerate(corpus.dialogs)}
    anchors: dict[tuple[str, str], list[Anchor]] = {}
    eligible: dict[str, list[str]] = {}
    for p in order:
        recipe = RECIPES[p]
        ids = []
        for d in corpus.dialogs:
            found = find_anchors(recipe, d, cfg.seed)
            if found:
                anchors[(d.id, p)] = found
                ids.append(d.id)
        eligible[p] = ids

    shortfalls = [
        (p, cfg.targets[p], len(eligible[p]))
        for p in order
        if len(eligible[p]) < cfg.targets[p]
    ]
    if shortfalls and not cfg.allow_shortfall:
        raise ShortfallError(shortfalls)
    targets = {
        p: min(cfg.targets[p], len(eligible[p])) for p in order
    }

    total = sum(targets.values())
    cap = cfg.max_patterns_per_dialog
    hist = achieved = None
    note = ""
    if cfg.histogram_targets is not None:
        hist = adjust_histogram(cfg.histogram_targets, total, len(corpus.dialogs), cap)
        achieved = [0] * len(hist)  # achieved[k-1] = #dialogs with >= k
        if sum(cfg.histogram_targets) != total:
            note = (
                f"overlap bucket targets sum to {sum(cfg.histogram_targets)} but the "
                f"per-pattern targets provide {total} assignments; buckets rescaled "
                f"to {list(hist)} (best effort, per-pattern targets kept exact)"
            )

    rng = random.Random(cfg.seed)
    count: dict[str, int] = {d.id: 0 for d in corpus.dialogs}
    assignments: list[Assignment] = []

    for p in order:
        need = targets[p]
        if need == 0:
            continue
        # Eligibility is per-pattern and a dialog receives each pattern at
        # most once, so only the per-dialog cap filters here.
        cands = [did for did in eligible[p] if count[did] < cap]
        if len(cands) < need:
            if not cfg.allow_shortfall:
                raise ShortfallError([(p, need, len(cands), cap)])
            shortfalls.append((p, need, len(cands), cap))
            need = len(cands)
        if hist is None:
            chosen = rng.sample(cands, need)
        else:
            chosen = _biased_pick(cands, need, count, achieved, hist, rng)
        chosen.sort(key=lambda did: dialog_pos[did])
        for did in chosen:
            options = anchors[(did, p)]
            pick = 0  # randrange(1) is always 0: a lone anchor needs no generator
            if len(options) > 1:
                pick = keyed_rng(cfg.seed, did, p, "anchor-pick").randrange(len(options))
            assignments.append(Assignment(did, p, options[pick]))
            count[did] += 1

    # Emit in stable order: pattern priority, then corpus order.
    pattern_rank = {p: i for i, p in enumerate(PATTERN_ORDER)}
    assignments.sort(key=lambda a: (pattern_rank[a.pattern], dialog_pos[a.dialog_id]))
    return InjectionPlan(
        assignments=tuple(assignments),
        corpus_digest=content_digest(corpus),
        seed=cfg.seed,
        shortfalls=tuple(shortfalls),
        histogram_note=note,
    )


def _biased_pick(cands: list[str], need: int, count: dict[str, int],
                 achieved: list[int], hist: tuple[int, ...],
                 rng: random.Random) -> list[str]:
    by_level: dict[int, list[str]] = {}
    for did in cands:
        by_level.setdefault(count[did], []).append(did)
    for level in by_level.values():
        rng.shuffle(level)
    chosen: list[str] = []
    for _ in range(need):
        live = [c for c in by_level if by_level[c]]
        if not live:
            break
        under = [
            c for c in live
            if c < len(hist) and achieved[c] < hist[c]
        ]
        # Deepest under-target bucket first (dialogs already carrying
        # patterns are favored until each >=k target is met), then spill
        # into the shallowest level so full buckets overshoot least.
        level = max(under) if under else min(live)
        did = by_level[level].pop()
        chosen.append(did)
        if level < len(hist):
            achieved[level] += 1
        # The dialog's level rises, but it cannot be picked again for this
        # pattern, so no re-bucketing is needed.
    return chosen


def execute(corpus: DialogCorpus, pln: InjectionPlan) -> DialogCorpus:
    """Apply every assignment; pure transformation of the corpus.

    Verifies that the plan was made for this exact corpus.
    """
    if content_digest(corpus) != pln.corpus_digest:
        raise PlanMismatchError("plan/corpus mismatch")
    if not pln.assignments:
        return corpus

    by_dialog: dict[str, list[Assignment]] = {}
    for a in pln.assignments:
        by_dialog.setdefault(a.dialog_id, []).append(a)
    known = {d.id for d in corpus.dialogs}
    missing = set(by_dialog) - known
    if missing:
        raise PlanMismatchError(f"plan/corpus mismatch: unknown dialog ids {sorted(missing)[:3]}")

    def apply_one(d: Dialog) -> Dialog:
        todo = by_dialog.get(d.id)
        if not todo:
            return d
        turns = list(d.turns)  # spliced in plan order, as folding `inject` would
        orig_to_curr = list(range(len(turns)))
        for a in todo:
            recipe = RECIPES[a.pattern]
            t = a.anchor.turn_index
            if t > len(orig_to_curr):
                raise PlanMismatchError(f"plan/corpus mismatch: anchor {t} out of range in {d.id}")
            curr = orig_to_curr[t] if t < len(orig_to_curr) else len(turns)
            rebased = Anchor(a.anchor.dialog_id, curr, a.anchor.bound)
            insert_at = splice(turns, d, recipe, rebased, pln.seed)
            k = len(recipe.template)
            orig_to_curr = [x + k if x >= insert_at else x for x in orig_to_curr]
        return Dialog(id=d.id, domain=d.domain, turns=tuple(turns), kb=d.kb,
                      source_info=d.source_info)

    return DialogCorpus(
        dialogs=tuple(apply_one(d) for d in corpus.dialogs),
        source_format=corpus.source_format,
        global_entities=corpus.global_entities,
        source_bytes=b"",
    )


def ablate(corpus: DialogCorpus, cfg: PlanConfig, pattern: str) -> DialogCorpus:
    """Updated corpus with only `pattern` injected, at its full target."""
    dataset = corpus.source_format
    if pattern not in RECIPES:
        raise PlanError(f"unknown pattern {pattern!r}")
    if dataset not in RECIPES[pattern].datasets:
        raise PlanError(f"pattern not applicable to {dataset}: {pattern}")
    if cfg.targets.get(pattern, 0) <= 0:
        raise PlanError(f"no target configured for {pattern}")
    solo = replace(cfg, targets={pattern: cfg.targets[pattern]}, histogram_targets=None)
    pln = plan(corpus, solo)
    return execute(corpus, pln)


def overlap_histogram(corpus: DialogCorpus) -> dict[int, int]:
    """k -> number of dialogs carrying at least k distinct patterns."""
    counts = [len(d.applied_patterns) for d in corpus.dialogs]
    top = max(counts, default=0)
    return {k: sum(1 for c in counts if c >= k) for k in range(1, top + 2)}


@dataclass(frozen=True)
class ReviewSheet:
    dialog_ids: tuple[str, ...]
    sample_fraction: float
    seed: int
    updated_total: int


def sample_review(updated: DialogCorpus, fraction: float, seed: int) -> ReviewSheet:
    """Seeded uniform sample of round(fraction x updated dialogs), half-up."""
    if not 0 < fraction <= 1:
        raise PlanError(f"fraction must be in (0, 1], got {fraction}")
    ids = [d.id for d in updated.dialogs if d.applied_patterns]
    if not ids:
        raise PlanError("no updated dialogs to review")
    n = int(fraction * len(ids) + 0.5)
    rng = random.Random(seed)
    picked = set(rng.sample(ids, n))
    ordered = tuple(i for i in ids if i in picked)
    return ReviewSheet(ordered, fraction, seed, len(ids))


def render_review(sheet: ReviewSheet, corpus: DialogCorpus) -> str:
    """Markdown rendering; injected turns are prefixed with [+pattern]."""
    by_id = corpus.dialog_by_id()
    lines = [
        f"# review sample: {len(sheet.dialog_ids)} of {sheet.updated_total} "
        f"updated dialogs (fraction={sheet.sample_fraction}, seed={sheet.seed})",
        "",
    ]
    for did in sheet.dialog_ids:
        d = by_id[did]
        pats = ", ".join(sorted(d.applied_patterns))
        lines.append(f"## {did} [{pats}]")
        for t in d.turns:
            tag = "U" if t.speaker.value == "user" else "A"
            mark = f"[+{t.injected_by}] " if t.injected_by else ""
            lines.append(f"- {mark}{tag}: {t.text}")
        lines.append("")
    return "\n".join(lines)
