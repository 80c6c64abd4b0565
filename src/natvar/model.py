"""In-memory model for goal-oriented dialogs shared by both corpus formats.

A dialog is an ordered list of speaker-tagged turns. Turns alternate
user/agent starting with the user; both supported corpora are strict
user-initiative exchanges. Every turn carries an origin: it is either part
of the source corpus or was injected by a named conversation pattern.
Knowledge-base facts are context, not turns, so they live in a separate
record attached to the dialog.

All types are immutable values after construction and safe to share
between dialogs: a parser may hand every equal turn the same `Turn`
object (`parse_babi` builds one per distinct turn). The value types built
in the largest numbers (`Turn` here, and the manifest entries, anchors and
assignments) are slotted dataclasses, which keeps them small and quick to
build; they carry no `memo`, which needs an instance `__dict__`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

from . import NatvarError


class Speaker(str, Enum):
    USER = "user"
    AGENT = "agent"


#: Dialog domains across both corpora. bAbI dialogs are all `restaurant`.
DOMAINS = ("schedule", "weather", "navigate", "restaurant")


class ModelError(NatvarError):
    """Invalid dialog structure or invalid operation input."""


def memo(fn):
    """`fn(obj)` for an immutable `obj` (a frozen dataclass), computed once and
    kept in `obj.__dict__`: it dies with the object, and equality and hashing
    still read the fields alone."""
    key = f"_memo_{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def cached(obj):
        try:
            return obj.__dict__[key]
        except KeyError:
            out = obj.__dict__[key] = fn(obj)
            return out

    return cached


def normalize_entity(s: str) -> str:
    """Canonical entity form: lowercase, trimmed, whitespace runs -> '_'.

    Whitespace as `str.split` reads it. Idempotent. Raises ModelError if empty.
    """
    out = "_".join(s.lower().split())
    if not out:
        raise ModelError("empty entity")
    return out


def entity_display(canonical: str) -> str:
    """Surface form used when an entity is written into generated text."""
    return canonical.replace("_", " ")


# Punctuation stripped from token edges when matching entities in free text.
_EDGE_PUNCT = ".,!?;:\"'()"


def _match_tokens(text: str) -> list[str]:
    """Lowercased whitespace tokens with edge punctuation stripped."""
    toks = []
    for raw in text.lower().split():
        t = raw.strip(_EDGE_PUNCT)
        toks.append(t if t else raw)
    return toks


def _prefixes(entities) -> frozenset[str]:
    """Every proper prefix of a member that ends just before one of its '_'."""
    out = set()
    for e in entities:
        prefix, *parts = e.split("_")
        for part in parts:
            out.add(prefix)
            prefix += "_" + part
    return frozenset(out)


class Lexicon(frozenset):
    """A frozen set of canonical entities that also carries `prefixes` (see
    `_prefixes`), the bound `entity_spans` reads, computed at construction.

    Equal to, and hashing like, the frozenset of the same members; set
    operations on it return plain frozensets.
    """

    __slots__ = ("prefixes",)

    def __new__(cls, entities=()):
        self = super().__new__(cls, entities)
        self.prefixes = _prefixes(self)
        return self


def entity_spans(text: str, lexicon: frozenset[str] | set[str]) -> list[tuple[int, int, str]]:
    """Token-aligned lexicon matches in `text`, greedy longest-match.

    Returns (start_token, end_token_exclusive, canonical) triples in scan
    order; matched spans never overlap. Multi-token entities match when
    their tokens joined with '_' equal a lexicon member. From each start the
    join grows while it is a `_`-boundary prefix of a member (every shorter
    join of a match is one), and the longest join in the lexicon wins. A
    `Lexicon` carries its prefix set; any other set has it computed here,
    in one pass over its members per call.
    """
    if not lexicon:
        return []
    prefixes = lexicon.prefixes if isinstance(lexicon, Lexicon) else _prefixes(lexicon)
    toks = _match_tokens(text)
    spans = []
    i = 0
    n = len(toks)
    while i < n:
        cand = toks[i]
        hit = cand if cand in lexicon else None
        end = j = i + 1
        while j < n and cand in prefixes:
            cand += "_" + toks[j]
            j += 1
            if cand in lexicon:
                hit, end = cand, j
        if hit is None:
            i += 1
        else:
            spans.append((i, end, hit))
            i = end
    return spans


def entities_in(text: str, lexicon: frozenset[str] | set[str]) -> set[str]:
    """Set of lexicon entities occurring in `text` (canonical forms)."""
    return {c for _, _, c in entity_spans(text, lexicon)}


@dataclass(frozen=True, slots=True)
class Turn:
    """One utterance. `injected_by` is None for source-corpus turns,
    otherwise the name of the pattern that introduced the turn.
    `annotations` are (slot, value) pairs."""

    speaker: Speaker
    text: str
    injected_by: str | None = None
    annotations: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.text:
            raise ModelError("empty utterance")
        if "\n" in self.text or "\r" in self.text:
            raise ModelError("utterance contains line break")

    @property
    def is_original(self) -> bool:
        return self.injected_by is None

    def slots(self) -> dict[str, str]:
        """Slot annotations, keyed by slot name."""
        return dict(self.annotations)


@dataclass(frozen=True)
class KbRecord:
    """Per-dialog knowledge base as (subject, attribute, value) triples.

    All three components are canonical entity strings.
    """

    entries: tuple[tuple[str, str, str], ...] = ()

    def values_for(self, attribute: str) -> list[str]:
        """Distinct values of `attribute`, in KB order."""
        seen, out = set(), []
        for _, attr, val in self.entries:
            if attr == attribute and val not in seen:
                seen.add(val)
                out.append(val)
        return out

    def attributes_of(self, value: str) -> list[str]:
        """Attributes under which `value` appears (subject hits -> 'subject')."""
        out = []
        for subj, attr, val in self.entries:
            if val == value and attr not in out:
                out.append(attr)
            if subj == value and "subject" not in out:
                out.append("subject")
        return out

    def subjects(self) -> list[str]:
        seen, out = set(), []
        for subj, _, _ in self.entries:
            if subj not in seen:
                seen.add(subj)
                out.append(subj)
        return out

    def all_entities(self) -> set[str]:
        ents = set()
        for subj, _, val in self.entries:
            ents.add(subj)
            ents.add(val)
        return ents


@dataclass(frozen=True)
class Dialog:
    id: str
    domain: str
    turns: tuple[Turn, ...]
    kb: KbRecord = KbRecord()
    # Format-specific payload needed for lossless serialization:
    #  babi -> tuple of (subject, attribute, value, agent_ordinal) raw KB rows,
    #          where agent_ordinal is the 0-based ordinal (among original agent
    #          turns) of the agent turn the KB block precedes.
    #  smd  -> canonicalized JSON string of the source scenario object.
    source_info: tuple = ()

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ModelError(f"unknown domain {self.domain!r} in dialog {self.id}")
        _check_alternation(self.turns, self.id)
        # With no injected turn the original subsequence is `turns`, checked above.
        if any(t.injected_by for t in self.turns):
            originals = tuple(t for t in self.turns if t.is_original)
            _check_alternation(originals, self.id + " (original subsequence)")

    @property
    def applied_patterns(self) -> frozenset[str]:
        return frozenset(t.injected_by for t in self.turns if t.injected_by)

    def entity_lexicon(self) -> Lexicon:
        return Lexicon(self.kb.all_entities())


def _check_alternation(turns: tuple[Turn, ...], label: str) -> None:
    if not turns:
        return
    if turns[0].speaker is not Speaker.USER:
        raise ModelError(f"dialog {label}: first turn must be the user")
    for i in range(1, len(turns)):
        if turns[i].speaker is turns[i - 1].speaker:
            raise ModelError(f"dialog {label}: turns {i - 1} and {i} share a speaker")


@dataclass(frozen=True)
class DialogCorpus:
    dialogs: tuple[Dialog, ...]
    source_format: str  # "babi" | "smd"
    global_entities: Lexicon = Lexicon()
    # Exact bytes of the source file, kept so an untouched corpus can be
    # re-serialized byte-for-byte. Empty for corpora built in memory.
    # A carrier detail: not part of model equality.
    source_bytes: bytes = field(default=b"", compare=False, repr=False)

    def __post_init__(self):
        if self.source_format not in ("babi", "smd"):
            raise ModelError(f"unknown source format {self.source_format!r}")
        ids = [d.id for d in self.dialogs]
        if len(ids) != len(set(ids)):
            raise ModelError("duplicate dialog ids")
        if not isinstance(self.global_entities, Lexicon):
            object.__setattr__(self, "global_entities", Lexicon(self.global_entities))

    @property
    def is_pristine(self) -> bool:
        return all(t.is_original for d in self.dialogs for t in d.turns)

    def dialog_by_id(self) -> dict[str, Dialog]:
        return {d.id: d for d in self.dialogs}

    def updated_dialogs(self) -> tuple[Dialog, ...]:
        return tuple(d for d in self.dialogs if d.applied_patterns)


def utterance_count(d: Dialog) -> int:
    """Number of utterances in a dialog; every turn is one utterance."""
    return len(d.turns)


def mean_utterances(corpus: DialogCorpus) -> float:
    if not corpus.dialogs:
        return 0.0
    return sum(utterance_count(d) for d in corpus.dialogs) / len(corpus.dialogs)


def build_global_entities(dialogs: tuple[Dialog, ...], extra: set[str] = frozenset()) -> Lexicon:
    ents: set[str] = set(extra)
    for d in dialogs:
        ents |= d.kb.all_entities()
    return Lexicon(ents)


@memo
def content_digest(corpus: DialogCorpus) -> str:
    """Digest of the corpus content (turn texts, speakers, origins).

    Prefers the exact source bytes when available, so corpora loaded from a
    file are fingerprinted by the file itself. Otherwise it is the sha256 of
    the dialogs' payloads joined by "\\x1e", fed to the hash one payload at
    a time, so no corpus-wide payload is built.
    """
    import hashlib

    if corpus.source_bytes:
        return hashlib.sha256(corpus.source_bytes).hexdigest()
    h = hashlib.sha256()
    for i, d in enumerate(corpus.dialogs):
        if i:
            h.update(b"\x1e")
        h.update(_digest_payload(d))
    return h.hexdigest()


@memo
def _digest_payload(d: Dialog) -> bytes:
    return (f"{d.id}|{d.domain}|" + "\x1f".join(
        f"{t.speaker.value}:{t.injected_by or ''}:{t.text}" for t in d.turns)).encode("utf-8")
