"""Corpus statistics: per-pattern counts, overlap buckets, mean utterances."""

from __future__ import annotations

import hashlib

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


def corpus_stats(corpus: DialogCorpus) -> str:
    """The `natvar stats` report of `corpus`."""
    counts = {p: 0 for p in patterns_for_dataset(corpus.source_format)}
    for d in corpus.dialogs:
        for p in d.applied_patterns:
            counts[p] = counts.get(p, 0) + 1
    checksum = hashlib.sha256()  # of the file bytes, hashed chunk by chunk
    for chunk in (corpus.source_bytes,) if corpus.source_bytes else corpus_chunks(corpus):
        checksum.update(chunk)
    lines = [
        f"format: {corpus.source_format}",
        f"checksum: sha256:{checksum.hexdigest()}",
        f"dialogs: {len(corpus.dialogs)}",
        f"utterances: {sum(len(d.turns) for d in corpus.dialogs)}",
        f"mean utterances per dialog: {mean_utterances(corpus):.2f}",
        f"entity lexicon size: {len(corpus.global_entities)}",
        f"dialogs updated: {len(corpus.updated_dialogs())}",
        "dialogs updated per pattern:",
    ]
    for name, count in counts.items():
        lines.append(f"  {name:<36}{count:>6}  (+{len(RECIPES[name].template)} turns each)")
    lines.append("dialogs updated per number of patterns:")
    for k, v in sorted(overlap_histogram(corpus).items()):
        lines.append(f"  >={k:<3}{v:>6}")
    lines.append(f"note: {ADDED_TURNS_ASSUMPTION}")
    return "\n".join(lines) + "\n"
