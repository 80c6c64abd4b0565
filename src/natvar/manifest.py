"""Masked-evaluation manifest and prediction alignment.

The manifest lists exactly the agent responses that are scoreable: the
ones present in the source test set. Injected agent turns never appear,
so a manifest exported before and after injection carries the same
(dialog_id, gold_text) sequence.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .io import ParseError, numbered_lines
from .model import Dialog, DialogCorpus, Speaker, content_digest, memo


@dataclass(frozen=True, slots=True)
class ManifestEntry:
    dialog_id: str
    turn_index: int
    gold_text: str


@dataclass(frozen=True)
class EvalManifest:
    entries: tuple[ManifestEntry, ...]
    corpus_tag: str

    @memo
    def digest(self) -> str:
        h = hashlib.sha256()
        for chunk in manifest_chunks(self.corpus_tag, self.entries):
            h.update(chunk)
        return h.hexdigest()


@dataclass(frozen=True)
class PredictionSet:
    responses: tuple[str, ...]
    manifest_digest: str


def corpus_tag(corpus: DialogCorpus) -> str:
    return f"{corpus.source_format}:{content_digest(corpus)[:12]}"


def export_manifest(corpus: DialogCorpus) -> EvalManifest:
    """Original agent turns in corpus order; injected turns are masked out."""
    entries = tuple(e for d in corpus.dialogs for e in _dialog_entries(d))
    return EvalManifest(entries=entries, corpus_tag=corpus_tag(corpus))


def export_chunks(corpus: DialogCorpus) -> Iterator[bytes]:
    """The manifest file of `export_manifest(corpus)`, without building the manifest."""
    return manifest_chunks(corpus_tag(corpus), (e for d in corpus.dialogs for e in _dialog_entries(d)))


@memo
def _dialog_entries(d: Dialog) -> tuple[ManifestEntry, ...]:
    return tuple(ManifestEntry(d.id, i, t.text) for i, t in enumerate(d.turns)
                 if t.speaker is Speaker.AGENT and t.is_original)


def check_corpus(m: EvalManifest, corpus: DialogCorpus) -> None:
    """Raise ParseError unless every entry names a turn of `corpus` whose
    text is the entry's gold response."""
    by_id = corpus.dialog_by_id()
    for e in m.entries:
        d = by_id.get(e.dialog_id)
        if d is None or not 0 <= e.turn_index < len(d.turns):
            problem = "is not in the corpus"
        elif d.turns[e.turn_index].text != e.gold_text:
            problem = "does not match the corpus turn's text"
        else:
            continue
        raise ParseError(f"manifest entry {e.dialog_id}@{e.turn_index} {problem}")


def serialize_manifest(m: EvalManifest) -> bytes:
    """The manifest file of `m`: `manifest_chunks` joined."""
    return b"".join(manifest_chunks(m.corpus_tag, m.entries))


def manifest_chunks(tag: str, entries: Iterable[ManifestEntry]) -> Iterator[bytes]:
    """A manifest file, one line at a time: a `# corpus_tag=` header, then one
    'dialog_id<TAB>turn_index<TAB>gold_text' line per entry."""
    yield f"# corpus_tag={tag}\n".encode("utf-8")
    for e in entries:
        yield f"{e.dialog_id}\t{e.turn_index}\t{e.gold_text}\n".encode("utf-8")


def parse_manifest(data: bytes) -> EvalManifest:
    """The manifest in `data`, one line at a time; lines end only at LF, CR or CRLF.

    A dialog id recurs in each of its dialog's entries and most gold responses
    recur across dialogs, so a table made in the call keeps one string per
    distinct id or text.
    """
    tag = ""
    entries = []
    text = functools.cache(str)  # the first of equal strings
    for lineno, line in numbered_lines(data, "manifest"):
        if not line.strip():
            continue
        if line.startswith("#"):
            if "corpus_tag=" in line:
                tag = line.split("corpus_tag=", 1)[1].strip()
            continue
        parts = line.split("\t", 2)
        if len(parts) != 3:
            raise ParseError(f"manifest line {lineno}: expected 3 tab-separated fields")
        try:
            turn_index = int(parts[1])
        except ValueError:
            raise ParseError(f"manifest line {lineno}: turn index {parts[1]!r} is not an integer") from None
        entries.append(ManifestEntry(text(parts[0]), turn_index, text(parts[2])))
    return EvalManifest(entries=tuple(entries), corpus_tag=tag)


def read_predictions(data: bytes, manifest: EvalManifest) -> PredictionSet:
    """One predicted response per line, aligned to manifest order; lines end
    only at LF, CR or CRLF."""
    lines = [line for _, line in numbered_lines(data, "prediction file")]
    if lines[-1] == "":
        lines.pop()
    if len(lines) != len(manifest.entries):
        raise ParseError(
            f"expected {len(manifest.entries)} predictions, got {len(lines)}"
        )
    return PredictionSet(responses=tuple(lines), manifest_digest=manifest.digest())
