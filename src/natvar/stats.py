"""Corpus statistics: per-pattern counts, overlap buckets, mean utterances."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .io import corpus_chunks
from .model import DialogCorpus, mean_utterances
from .planner import overlap_histogram
from .recipes import RECIPES, patterns_for_dataset

# The source statistics publish per-pattern added-turn counts for the SMD
# testbed only; the restaurant corpus reuses them. Stated on every report.
ADDED_TURNS_ASSUMPTION = (
    "added-turn counts per pattern are the SMD values, reused for the "
    "restaurant (bAbI) corpus"
)


@dataclass(frozen=True)
class CorpusStats:
    source_format: str
    n_dialogs: int
    n_utterances: int
    mean_utterances: float
    n_updated: int
    pattern_counts: tuple[tuple[str, int], ...]
    histogram: tuple[tuple[int, int], ...]
    lexicon_size: int
    checksum: str
    notes: tuple[str, ...]


def corpus_stats(corpus: DialogCorpus) -> CorpusStats:
    counts = {p: 0 for p in patterns_for_dataset(corpus.source_format)}
    for d in corpus.dialogs:
        for p in d.applied_patterns:
            counts[p] = counts.get(p, 0) + 1
    hist = overlap_histogram(corpus)
    n_utt = sum(len(d.turns) for d in corpus.dialogs)
    checksum = hashlib.sha256()  # of the file bytes, hashed chunk by chunk
    for chunk in (corpus.source_bytes,) if corpus.source_bytes else corpus_chunks(corpus):
        checksum.update(chunk)
    return CorpusStats(
        source_format=corpus.source_format,
        n_dialogs=len(corpus.dialogs),
        n_utterances=n_utt,
        mean_utterances=mean_utterances(corpus),
        n_updated=len(corpus.updated_dialogs()),
        pattern_counts=tuple(counts.items()),
        histogram=tuple(sorted(hist.items())),
        lexicon_size=len(corpus.global_entities),
        checksum=checksum.hexdigest(),
        notes=(ADDED_TURNS_ASSUMPTION,),
    )


def render_stats(stats: CorpusStats) -> str:
    lines = [
        f"format: {stats.source_format}",
        f"checksum: sha256:{stats.checksum}",
        f"dialogs: {stats.n_dialogs}",
        f"utterances: {stats.n_utterances}",
        f"mean utterances per dialog: {stats.mean_utterances:.2f}",
        f"entity lexicon size: {stats.lexicon_size}",
        f"dialogs updated: {stats.n_updated}",
        "dialogs updated per pattern:",
    ]
    for name, count in stats.pattern_counts:
        lines.append(f"  {name:<36}{count:>6}  (+{len(RECIPES[name].template)} turns each)")
    lines.append("dialogs updated per number of patterns:")
    for k, v in stats.histogram:
        lines.append(f"  >={k:<3}{v:>6}")
    for note in stats.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
