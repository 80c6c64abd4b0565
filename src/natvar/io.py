"""File-level load/save dispatch for both corpus formats."""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from pathlib import Path

from .babi import babi_chunks, parse_babi, serialize_babi, sidecar_chunks
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


def write_chunks(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write `chunks` to the file at `path`, one at a time."""
    with open(path, "wb") as f:
        f.writelines(chunks)


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

    A bAbI corpus is streamed to the file one dialog block at a time, and
    its sidecar one line at a time, through the routines that
    `serialize_babi` and `serialize_origin_sidecar` join; no whole-file copy
    is built. A dialog bAbI cannot hold raises ModelError before the file is
    opened. An SMD corpus is written whole. Returns the written paths.
    """
    path = Path(path)
    if corpus.source_format != "babi":
        path.write_bytes(serialize_corpus(corpus))
        return [path]
    write_chunks(path, babi_chunks(corpus))
    if corpus.is_pristine:
        return [path]
    sidecar_path = Path(str(path) + ".origin")
    write_chunks(sidecar_path, sidecar_chunks(corpus))
    return [path, sidecar_path]
