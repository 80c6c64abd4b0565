"""bAbI dialog-task text format: parsing, serialization, origin sidecar.

Format (task 5 grammar, a superset of tasks 1-4):

  - dialogs are blocks separated by one blank line;
  - utterance line:  "<index><SPACE><user text><TAB><agent text>"
  - KB fact line:    "<index><SPACE><subject><SPACE><attribute><SPACE><value>"
  - line indices start at 1 and increase inside each dialog.

Every utterance line yields two turns, a user turn then an agent turn
(`<silence>` is a user turn like any other); KB fact lines yield no turns
and go to the dialog's KB record.

The format cannot carry injection flags natively, so updated corpora are
written together with a sidecar file (one line per dialog) recording which
turn indices are injected and by which pattern:

    babi-12: 0=open_request_screening,1=open_request_screening

Both files are read line by line as `natvar.io.numbered_lines` splits them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from collections.abc import Iterable, Iterator

from .catalog import check_pattern
from .io import ParseError, numbered_lines
from .model import (
    Dialog,
    DialogCorpus,
    KbRecord,
    ModelError,
    Speaker,
    Turn,
    build_global_entities,
    memo,
)


# Fixed value vocabulary of the bAbI restaurant simulator. Used both as the
# format-specific entity lexicon and as the option source for enumerations.
BABI_SLOT_VALUES: dict[str, tuple[str, ...]] = {
    "cuisine": ("british", "cantonese", "french", "indian", "italian",
                "japanese", "korean", "spanish", "thai", "vietnamese"),
    "location": ("bangkok", "beijing", "bombay", "hanoi", "london",
                 "madrid", "paris", "rome", "seoul", "tokyo"),
    "number": ("two", "four", "six", "eight"),
    "price": ("cheap", "moderate", "expensive"),
}

_LEXICON = frozenset(v for values in BABI_SLOT_VALUES.values() for v in values)

# api_call argument positions, per the task-5 generator.
API_CALL_SLOTS = ("cuisine", "location", "number", "price")

# Agent questions that ask for one enumerable slot.
SLOT_QUESTIONS: dict[str, str] = {
    "any preference on a type of cuisine": "cuisine",
    "where should it be": "location",
    "how many people would be in your party": "number",
    "which price range are looking for": "price",
}


def slot_for_question(text: str) -> str | None:
    """Slot asked by an agent turn, or None if it is not a slot question."""
    t = text.strip().lower()
    for q, slot in SLOT_QUESTIONS.items():
        if q in t:
            return slot
    return None


def parse_babi(data: bytes, origin_sidecar: bytes | None = None) -> DialogCorpus:
    """Parse a bAbI dialog-task file into a corpus.

    Lines end at LF, CR or CRLF. When `origin_sidecar` is given, the listed
    turn indices are restored as injected turns; a sidecar entry for a dialog
    or turn the file does not have, or naming a pattern with no recipe, raises
    ParseError. The file is decoded about 64 KiB of lines at a time and
    scanned one dialog block at a time (`_blocks`): neither its text nor a
    list of its lines is built, and a block's lines die once its `Dialog` is
    made.

    Task-5 dialogs come from fixed simulator templates, so most utterance
    lines, turns and KB facts recur across dialogs. Tables made in the call
    remember them: `pairs` parses each distinct utterance body (the text
    after a line's index) once, `turn` builds one shared `Turn` per distinct
    set of fields, `token` keeps one string per distinct KB fact token and
    `shared` one tuple per distinct fact. A fact line is split each time it
    comes, so the tables hold no fact text the corpus does not keep; a fact
    already in canonical (lowercase) form is its own KB entry. The tables die
    with the call.
    """
    lines = numbered_lines(data, "bAbI file")
    injected = _parse_sidecar(origin_sidecar) if origin_sidecar else {}

    pairs: dict[str, tuple[Turn, Turn]] = {}
    turn = functools.cache(Turn)
    token = functools.cache(str)  # the first of equal strings
    shared: dict[tuple[str, str, str], tuple[str, str, str]] = {}  # the first of equal facts
    dialogs = []
    for idx, block in enumerate(_blocks(lines)):
        turns: list[Turn] = []
        facts: list[tuple[str, str, str]] = []
        raws: list[tuple[str, str, str]] = []  # each fact as its line spells it
        fact_lines: list[int] = []  # index of the utterance line each fact precedes
        prev_index = 0
        for lineno, line in block:
            head, _, rest = line.partition(" ")
            try:
                index = int(head)
            except ValueError:
                raise ParseError(f"line {lineno}: expected a line index, got {head!r}")
            if index <= prev_index:
                raise ParseError(f"line {lineno}: non-monotone line index {index}")
            prev_index = index

            if "\t" in rest:
                pair = pairs.get(rest)
                if pair is None:
                    user_text, _, agent_text = rest.partition("\t")
                    if not user_text.strip() or not agent_text.strip():
                        raise ParseError(f"line {lineno}: empty utterance")
                    pair = pairs[rest] = turn(Speaker.USER, user_text), turn(Speaker.AGENT, agent_text)
                turns += pair
                continue
            # Each fact component is one whitespace-free token, so lowercasing
            # the line lowercases each token: `normalize_entity`.
            lower = rest.lower()
            fact = tuple(map(token, lower.split()))
            if len(fact) != 3:
                raise ParseError(f"line {lineno}: not an utterance line (no tab) "
                                 f"and not a 3-token KB fact: {line!r}")
            fact = shared.setdefault(fact, fact)
            facts.append(fact)
            raws.append(fact if lower == rest else tuple(map(token, rest.split())))
            fact_lines.append(len(turns) // 2)
        dialog_id = f"babi-{idx}"
        dialogs.append(_dialog(dialog_id, turn, turns, injected.pop(dialog_id, {}), facts, raws, fact_lines))
    if injected:
        raise ParseError(f"sidecar names a dialog the corpus does not have: {next(iter(injected))}")

    dialogs = tuple(dialogs)
    return DialogCorpus(
        dialogs=dialogs,
        source_format="babi",
        global_entities=build_global_entities(dialogs, _LEXICON),
        source_bytes=data,
    )


def _blocks(lines: Iterator[tuple[int, str]]):
    """Each dialog block of `lines`, as an iterator of (line number, line)
    valid until the next block is taken; whitespace-only lines separate blocks."""
    for blank, block in itertools.groupby(lines, lambda numbered: not numbered[1].strip()):
        if not blank:
            yield block


def _dialog(dialog_id: str, turn, turns: list[Turn], marks: dict[int, str],
            facts: list, raws: list, fact_lines: list[int]) -> Dialog:
    """The dialog of one parsed block. `marks`, its sidecar entry, turn the
    original turns they name into injected ones, built by `turn`."""
    for i, pattern in marks.items():
        if not 0 <= i < len(turns):
            raise ParseError(f"sidecar: turn {i} is out of range for {dialog_id} ({len(turns)} turns)")
        turns[i] = turn(turns[i].speaker, turns[i].text, pattern)
    # A fact is anchored by the original agent turns before its utterance
    # line, so injected agent turns do not shift the anchors.
    injected_agents = sorted(i // 2 for i in marks if i % 2)
    return Dialog(
        id=dialog_id,
        domain="restaurant",
        turns=tuple(turns),
        kb=KbRecord(entries=tuple(facts)),
        source_info=(tuple(k - bisect.bisect_left(injected_agents, k) for k in fact_lines),
                     () if raws == facts else tuple(raws)),
    )


def user_slots(d: Dialog) -> Iterator[tuple[int, tuple[tuple[str, str], ...]]]:
    """(turn index, (slot, value) pairs) of each original user turn of `d` that
    holds a slot value, in turn order, derived as it is taken. Per slot, a turn
    takes the first value of the dialog's original `api_call` turns (one
    argument per `API_CALL_SLOTS` entry) whose token it holds. Injected turns
    neither give nor take values: a corrupted answer can read like an api_call."""
    api_values: dict[str, list[str]] = {}
    for t in d.turns:
        if t.text.startswith("api_call ") and t.speaker is Speaker.AGENT and t.is_original:
            args = t.text.split()[1:]
            if len(args) == len(API_CALL_SLOTS):
                for slot, value in zip(API_CALL_SLOTS, args):
                    api_values.setdefault(slot, []).append(value)
    any_value = {v for values in api_values.values() for v in values}
    for i, t in enumerate(d.turns):
        if t.speaker is Speaker.USER and t.is_original:
            held = any_value.intersection(t.text.lower().split())
            if held:
                yield i, tuple((slot, next(v for v in values if v in held))
                               for slot, values in api_values.items()
                               if not held.isdisjoint(values))


def babi_chunks(corpus: DialogCorpus) -> Iterable[bytes]:
    """The canonical bAbI text form of `corpus`, as chunks to write in order:
    one per dialog block, with line indices renumbered 1..N per dialog, and
    one per separator. KB fact lines keep their position relative to the
    original agent turn they precede. A dialog bAbI cannot hold, one with an
    odd number of turns, raises ModelError before this returns, so before a
    caller opens a file; each block is then built as its chunk is taken.
    """
    for d in corpus.dialogs:
        if len(d.turns) % 2:
            raise ModelError(f"dialog {d.id}: bAbI requires an even number of turns")
    return _encode_joined(map(_serialize_dialog, corpus.dialogs), "\n\n")


def _encode_joined(parts: Iterable[str], sep: str) -> Iterator[bytes]:
    """The UTF-8 bytes of `sep.join(parts) + "\\n"`, one part at a time; no
    bytes for no parts, so an empty file round-trips."""
    sep_bytes = sep.encode("utf-8")
    i = -1
    for i, part in enumerate(parts):
        if i:
            yield sep_bytes
        yield part.encode("utf-8")
    if i >= 0:
        yield b"\n"


@memo
def _serialize_dialog(d: Dialog) -> str:  # `d` has an even number of turns (`babi_chunks`)
    ordinals, raw = d.source_info or ((), ())  # () for a dialog built in memory
    kb_by_ordinal: dict[int, list[tuple[str, str, str]]] = {}
    for fact, ordinal in zip(raw or d.kb.entries, ordinals):
        kb_by_ordinal.setdefault(ordinal, []).append(fact)

    lines: list[str] = []
    index = 1
    agent_ordinal = 0
    for i in range(0, len(d.turns), 2):
        user, agent = d.turns[i], d.turns[i + 1]  # alternation makes them (user, agent)
        if agent.is_original:
            for subj, attr, val in kb_by_ordinal.get(agent_ordinal, []):
                lines.append(f"{index} {subj} {attr} {val}")
                index += 1
            agent_ordinal += 1
        lines.append(f"{index} {user.text}\t{agent.text}")
        index += 1
    for subj, attr, val in kb_by_ordinal.get(agent_ordinal, []):
        lines.append(f"{index} {subj} {attr} {val}")
        index += 1
    return "\n".join(lines)


def serialize_origin_sidecar(corpus: DialogCorpus) -> bytes:
    """The origin sidecar of `corpus`: `sidecar_chunks` joined."""
    return b"".join(sidecar_chunks(corpus))


def sidecar_chunks(corpus: DialogCorpus) -> Iterator[bytes]:
    """One line per dialog: 'dialog_id: i=pattern,j=pattern' (may be empty)."""
    return _encode_joined(map(_sidecar_line, corpus.dialogs), "\n")


@memo
def _sidecar_line(d: Dialog) -> str:
    marks = ",".join(f"{i}={t.injected_by}" for i, t in enumerate(d.turns) if t.injected_by)
    return f"{d.id}: {marks}".rstrip()


def _parse_sidecar(data: bytes) -> dict[str, dict[int, str]]:
    out: dict[str, dict[int, str]] = {}
    # item text -> (turn index, pattern), filled by successful parses only
    items: dict[str, tuple[int, str]] = {}
    for lineno, line in numbered_lines(data, "sidecar"):
        if not line.strip():
            continue
        did, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(f"sidecar line {lineno}: missing ':'")
        marks: dict[int, str] = {}
        rest = rest.strip()
        if rest:
            for item in rest.split(","):
                parsed = items.get(item)
                if parsed is None:
                    parsed = items[item] = _parse_sidecar_item(item, lineno)
                i, pattern = parsed
                if i in marks:
                    raise ParseError(f"sidecar line {lineno}: turn {i} is listed twice")
                marks[i] = pattern
        did = did.strip()
        if did in out:
            raise ParseError(f"sidecar line {lineno}: dialog {did} is listed twice")
        out[did] = marks
    return out


def _parse_sidecar_item(item: str, lineno: int) -> tuple[int, str]:
    pos, sep, pattern = item.partition("=")
    if not sep:
        raise ParseError(f"sidecar line {lineno}: expected index=pattern, got {item!r}")
    check_pattern(pattern, "babi", ParseError, f"sidecar line {lineno}")
    try:
        return int(pos), pattern
    except ValueError:
        raise ParseError(f"sidecar line {lineno}: turn index {pos!r} is not an integer") from None
