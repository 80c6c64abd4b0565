"""File-level load/save dispatch for both corpus formats."""

from __future__ import annotations

import hashlib
from pathlib import Path

from .babi import parse_babi, serialize_babi, serialize_origin_sidecar
from .model import DialogCorpus

FORMATS = ("babi", "smd")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_corpus(data: bytes, fmt: str, origin_sidecar: bytes | None = None) -> DialogCorpus:
    if fmt == "babi":
        return parse_babi(data, origin_sidecar)
    if fmt == "smd":
        from .smd import parse_smd  # only SMD input compiles the SMD parser
        return parse_smd(data)
    raise ValueError(f"unknown format {fmt!r} (expected one of {FORMATS})")


def serialize_corpus(corpus: DialogCorpus) -> bytes:
    if corpus.source_format == "babi":
        return serialize_babi(corpus)
    from .smd import serialize_smd
    return serialize_smd(corpus)


def load_corpus(path: str | Path, fmt: str) -> DialogCorpus:
    """Load a corpus file; a '<path>.origin' sidecar is picked up when present."""
    path = Path(path)
    data = path.read_bytes()
    sidecar = None
    if fmt == "babi":
        sidecar_path = Path(str(path) + ".origin")
        if sidecar_path.exists():
            sidecar = sidecar_path.read_bytes()
    return parse_corpus(data, fmt, sidecar)


def save_corpus(corpus: DialogCorpus, path: str | Path) -> list[Path]:
    """Write the corpus (and, for bAbI with injections, its origin sidecar).

    Returns the written paths.
    """
    path = Path(path)
    written = [path]
    path.write_bytes(serialize_corpus(corpus))
    if corpus.source_format == "babi" and not corpus.is_pristine:
        sidecar_path = Path(str(path) + ".origin")
        sidecar_path.write_bytes(serialize_origin_sidecar(corpus))
        written.append(sidecar_path)
    return written
