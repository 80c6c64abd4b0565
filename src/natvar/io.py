"""The input plumbing every reader shares, and file-level load/save dispatch.

Inputs are UTF-8, and a bad one raises `ParseError`. `decode_lines` alone
says where a line of a line-oriented input ends: at LF, CR or CRLF, never at
another Unicode line break. A format's module is imported on first use.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import NatvarError
from .model import DialogCorpus

FORMATS = ("babi", "smd")


class ParseError(NatvarError):
    """Malformed input: a corpus, sidecar, manifest, candidate, prediction or report file."""


def decode_utf8(data: bytes, what: str) -> str:
    """`data` as UTF-8 text; a ParseError names `what` and the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{what} is not valid UTF-8 at byte {e.start}") from e


def decode_lines(data: bytes, what: str) -> str:
    """`data` as UTF-8 text (see `decode_utf8`) whose lines all end at "\\n":
    CRLF and a lone CR become LF, and no other character ends a line."""
    return decode_utf8(data, what).replace("\r\n", "\n").replace("\r", "\n")


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each (1-based number, line) of `text`, split at "\\n" only, one at a time."""
    start, lineno = 0, 1
    while (stop := text.find("\n", start)) >= 0:
        yield lineno, text[start:stop]
        start, lineno = stop + 1, lineno + 1
    yield lineno, text[start:]


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_corpus(data: bytes, fmt: str, origin_sidecar: bytes | None = None) -> DialogCorpus:
    if fmt == "babi":
        from .babi import parse_babi
        return parse_babi(data, origin_sidecar)
    if fmt == "smd":
        from .smd import parse_smd
        return parse_smd(data)
    raise ValueError(f"unknown format {fmt!r} (expected one of {FORMATS})")


def serialize_corpus(corpus: DialogCorpus) -> bytes:
    return b"".join(corpus_chunks(corpus))


def corpus_chunks(corpus: DialogCorpus) -> Iterable[bytes]:
    """The file of `corpus` in its format, as chunks to write in order."""
    if corpus.source_format == "babi":
        from .babi import babi_chunks
        return babi_chunks(corpus)
    from .smd import smd_chunks
    return smd_chunks(corpus)


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

    The corpus is streamed to the file one bAbI dialog block or SMD
    dialogue object at a time, and a sidecar one line at a time, through
    the routines that `serialize_corpus` and `serialize_origin_sidecar`
    join; no whole-file copy is built. A dialog bAbI cannot hold raises
    ModelError before the file is opened. Returns the written paths.
    """
    path = Path(path)
    write_chunks(path, corpus_chunks(corpus))
    if corpus.source_format != "babi" or corpus.is_pristine:
        return [path]
    from .babi import sidecar_chunks
    sidecar_path = Path(str(path) + ".origin")
    write_chunks(sidecar_path, sidecar_chunks(corpus))
    return [path, sidecar_path]
