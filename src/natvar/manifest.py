"""Masked-evaluation manifest and prediction alignment.

The manifest lists exactly the agent responses that are scoreable: the
ones present in the source test set. Injected agent turns never appear,
so a manifest exported before and after injection carries the same
(dialog_id, gold_text) sequence.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass

from .babi import ParseError, decode_utf8
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
        return hashlib.sha256(serialize_manifest(self)).hexdigest()


@dataclass(frozen=True)
class PredictionSet:
    responses: tuple[str, ...]
    manifest_digest: str


def corpus_tag(corpus: DialogCorpus) -> str:
    return f"{corpus.source_format}:{content_digest(corpus)[:12]}"


def export_manifest(corpus: DialogCorpus) -> EvalManifest:
    """Original agent turns in corpus order; injected turns are masked out."""
    entries = []
    for d in corpus.dialogs:
        entries.extend(_dialog_entries(d))
    return EvalManifest(entries=tuple(entries), corpus_tag=corpus_tag(corpus))


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
    return b"".join(manifest_chunks(m))


def manifest_chunks(m: EvalManifest) -> Iterator[bytes]:
    """The manifest file of `m`, one line at a time: a `# corpus_tag=` header,
    then one 'dialog_id<TAB>turn_index<TAB>gold_text' line per entry."""
    yield f"# corpus_tag={m.corpus_tag}\n".encode("utf-8")
    for e in m.entries:
        yield f"{e.dialog_id}\t{e.turn_index}\t{e.gold_text}\n".encode("utf-8")


def parse_manifest(data: bytes) -> EvalManifest:
    tag = ""
    entries = []
    for lineno, line in enumerate(decode_utf8(data, "manifest").splitlines(), start=1):
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
        entries.append(ManifestEntry(parts[0], turn_index, parts[2]))
    return EvalManifest(entries=tuple(entries), corpus_tag=tag)


def read_predictions(data: bytes, manifest: EvalManifest) -> PredictionSet:
    """One predicted response per line, aligned to manifest order."""
    lines = decode_utf8(data, "prediction file").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != len(manifest.entries):
        raise ParseError(
            f"expected {len(manifest.entries)} predictions, got {len(lines)}"
        )
    return PredictionSet(responses=tuple(lines), manifest_digest=manifest.digest())
