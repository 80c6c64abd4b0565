"""The input plumbing every reader shares, and file-level load/save dispatch.

Inputs are UTF-8, and a bad one raises `ParseError`. Every line-oriented
input is read by `numbered_lines`, which alone says where a line ends: at LF,
CR or CRLF, never at another Unicode line break, and which builds no text of
a whole file. A format's module is imported on first use.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import NatvarError
from .model import DialogCorpus

FORMATS = ("babi", "smd")


class ParseError(NatvarError):
    """Malformed input: a corpus, sidecar, manifest, candidate, prediction or report file."""


def decode_utf8(data, what: str, offset: int = 0) -> str:
    """`data`, bytes at `offset` in an input, as UTF-8; a ParseError names `what` and the bad byte."""
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{what} is not valid UTF-8 at byte {offset + e.start}") from e


_LINE_END = re.compile(rb"\r\n?|\n")


def numbered_lines(data: bytes, what: str) -> Iterator[tuple[int, str]]:
    """Each (1-based number, line) of the UTF-8 `data`, split at LF, CR or CRLF
    only. All of `data` is checked before this returns, so a bad byte (see
    `decode_utf8`) is reported over any later error; the check, then the
    lines, decode pieces of whole lines of about 64 KiB."""
    view, bounds = memoryview(data), [0]
    while bounds[-1] < len(data):
        end = _LINE_END.search(data, bounds[-1] + (1 << 16))
        bounds.append(end.end() if end else len(data))
        decode_utf8(view[bounds[-2]:bounds[-1]], what, bounds[-2])

    def lines():
        lineno, last = 1, ""
        for start, stop in zip(bounds, bounds[1:]):
            text = str(view[start:stop], "utf-8").replace("\r\n", "\n").replace("\r", "\n")
            *whole, last = text.split("\n")
            yield from enumerate(whole, lineno)
            lineno += len(whole)
        yield lineno, last

    return lines()


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
    """The file of `corpus` in its format, as chunks to write in order: the
    retained source bytes verbatim when the corpus is untouched and came from
    a file."""
    if corpus.source_bytes and corpus.is_pristine:
        return (corpus.source_bytes,)
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

    A dialog bAbI cannot hold raises ModelError before the file is opened.
    Then the corpus is streamed one bAbI dialog block or SMD dialogue object
    at a time, and a sidecar one line at a time, through the routines that
    `serialize_corpus` and `serialize_origin_sidecar` join; no whole-file
    copy is built. Returns the written paths.
    """
    path = Path(path)
    write_chunks(path, corpus_chunks(corpus))
    if corpus.source_format != "babi" or corpus.is_pristine:
        return [path]
    from .babi import sidecar_chunks
    sidecar_path = Path(str(path) + ".origin")
    write_chunks(sidecar_path, sidecar_chunks(corpus))
    return [path, sidecar_path]
