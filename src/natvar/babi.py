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
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator

from . import NatvarError
from .catalog import CATALOG
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


class ParseError(NatvarError):
    """Malformed corpus, prediction, or sidecar input."""


def decode_utf8(data: bytes, what: str) -> str:
    """`data` as UTF-8 text; a ParseError names `what` and the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{what} is not valid UTF-8 at byte {e.start}") from e


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

# The pattern names an injected turn may carry: those with a recipe.
_RECIPE_PATTERNS = frozenset(e.name for e in CATALOG if e.has_recipe)

# api_call argument positions, per the task-5 generator.
API_CALL_SLOTS = ("cuisine", "location", "number", "price")

# Agent questions that ask for one enumerable slot.
SLOT_QUESTIONS: dict[str, str] = {
    "any preference on a type of cuisine": "cuisine",
    "where should it be": "location",
    "how many people would be in your party": "number",
    "which price range are looking for": "price",
}


def babi_lexicon() -> set[str]:
    lex: set[str] = set()
    for values in BABI_SLOT_VALUES.values():
        lex.update(values)
    return lex


def slot_for_question(text: str) -> str | None:
    """Slot asked by an agent turn, or None if it is not a slot question."""
    t = text.strip().lower()
    for q, slot in SLOT_QUESTIONS.items():
        if q in t:
            return slot
    return None


def _api_slots(agent_text: str) -> tuple[tuple[str, str], ...]:
    """(slot, value) annotations of an api_call turn; () for any other."""
    if not agent_text.startswith("api_call "):
        return ()
    args = agent_text.split()[1:]
    if len(args) != len(API_CALL_SLOTS):
        return ()
    return tuple(zip(API_CALL_SLOTS, args))


def parse_babi(data: bytes, origin_sidecar: bytes | None = None) -> DialogCorpus:
    """Parse a bAbI dialog-task file into a corpus.

    Line endings are normalized to "\\n". When `origin_sidecar` is given,
    the listed turn indices are restored as injected turns; a sidecar entry
    for a dialog or turn the file does not have, or naming a pattern with no
    recipe, raises ParseError. The decoded text is scanned one dialog block
    at a time (`_blocks`): no list of the file's lines is built, and a block's
    lines die once its `Dialog` is made. Each `Turn` is built with its final
    origin and annotations.

    Task-5 dialogs come from fixed simulator templates, so most line bodies
    and turns recur across dialogs. `functools.cache`s made in the call
    remember them: `turn` builds one shared `Turn` per distinct set of fields,
    `user_tokens` one token set per distinct user text (far fewer than the
    bodies), and `body_of` parses each distinct body (the text after a line's
    index) once, through the other two. A cache keeps no exception, so every
    error is raised again and named by its own line, and each line's index is
    checked on its own. The caches die with the call.
    """
    text = decode_utf8(data, "bAbI file").replace("\r\n", "\n").replace("\r", "\n")
    injected = _parse_sidecar(origin_sidecar) if origin_sidecar else {}

    turn = functools.cache(Turn)
    user_tokens = functools.cache(lambda text: frozenset(text.lower().split()))
    body_of = functools.cache(functools.partial(_line_body, turn, user_tokens))
    dialogs = []
    for idx, block in enumerate(_blocks(text)):
        dialog_id = f"babi-{idx}"
        dialogs.append(_parse_block(block, dialog_id, injected.pop(dialog_id, {}), turn, body_of))
    if injected:
        raise ParseError(f"sidecar names a dialog the corpus does not have: {next(iter(injected))}")

    dialogs = tuple(dialogs)
    return DialogCorpus(
        dialogs=dialogs,
        source_format="babi",
        global_entities=build_global_entities(dialogs, babi_lexicon()),
        source_bytes=data,
    )


def _blocks(text: str):
    """Each dialog block of `text`, as a list of (1-based line number, line).

    Lines split at "\\n" only; whitespace-only lines separate blocks.
    """
    block: list[tuple[int, str]] = []
    lineno = start = 0
    end = len(text)
    while start <= end:
        stop = text.find("\n", start)
        if stop < 0:
            stop = end
        lineno += 1
        line = text[start:stop]
        if line and not line.isspace():
            block.append((lineno, line))
        elif block:
            yield block
            block = []
        start = stop + 1
    if block:
        yield block


def _line_body(turn, user_tokens, rest: str) -> tuple:
    """The body of a line: (original user turn without annotations, original
    agent turn, user tokens) for an utterance, (None, raw triple, lowercased
    triple) for a KB fact. A ParseError here names no line."""
    if "\t" in rest:
        user_text, _, agent_text = rest.partition("\t")
        if not user_text.strip() or not agent_text.strip():
            raise ParseError("empty utterance")
        return (turn(Speaker.USER, user_text, None, ()),
                turn(Speaker.AGENT, agent_text, None, _api_slots(agent_text)),
                user_tokens(user_text))
    parts = rest.split()
    if len(parts) != 3:
        raise ParseError("not an utterance line (no tab) and not a 3-token KB fact")
    # Each fact component is one whitespace-free token, so lowercasing it is
    # `normalize_entity`.
    return None, tuple(parts), tuple(p.lower() for p in parts)


def _parse_block(block, dialog_id: str, injected_turns: dict[int, str], turn, body_of) -> Dialog:
    # utterance-line bodies, as `_line_body` gives them
    pairs: list[tuple[Turn, Turn, frozenset[str]]] = []
    # (raw triple, lowercased triple, index of the utterance line the fact precedes)
    facts: list[tuple[tuple[str, str, str], tuple[str, str, str], int]] = []
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

        try:
            body = body_of(rest)
        except ParseError as e:  # a bad KB fact is quoted whole, index included
            raise ParseError(f"line {lineno}: {e}" + ("" if "\t" in rest else f": {line!r}")) from None
        if body[0] is None:
            facts.append((body[1], body[2], len(pairs)))
        else:
            pairs.append(body)

    for i in injected_turns:
        if not 0 <= i < 2 * len(pairs):
            raise ParseError(f"sidecar: turn {i} is out of range for {dialog_id} "
                             f"({2 * len(pairs)} turns)")

    # Injected agent turns (a corrupted answer can look like an api_call)
    # contribute neither annotations nor api values.
    api_values: dict[str, list[str]] = {}
    for k, (_, agent_turn, _) in enumerate(pairs):
        if 2 * k + 1 not in injected_turns:
            for key, val in agent_turn.annotations:
                api_values.setdefault(key, []).append(val)
    any_value = frozenset(v for vals in api_values.values() for v in vals)

    turns: list[Turn] = []
    # ordinals[k]: original agent turns before utterance line k. A fact is
    # anchored by it, so injected agent turns do not shift the anchors.
    ordinals = [0]
    for k, (user_turn, agent_turn, toks) in enumerate(pairs):
        # Slot annotations for original user turns: per slot, the first
        # api_call value the turn mentions. Injected turns get none.
        user_by = injected_turns.get(2 * k)
        if user_by is not None:
            user_turn = turn(Speaker.USER, user_turn.text, user_by, ())
        elif not any_value.isdisjoint(toks):
            user_annotations = []
            for key, vals in api_values.items():
                for v in vals:
                    if v in toks:
                        user_annotations.append((key, v))
                        break
            user_turn = turn(Speaker.USER, user_turn.text, None, tuple(user_annotations))
        turns.append(user_turn)
        agent_by = injected_turns.get(2 * k + 1)
        if agent_by is not None:
            agent_turn = turn(Speaker.AGENT, agent_turn.text, agent_by, ())
        turns.append(agent_turn)
        ordinals.append(ordinals[-1] + (agent_by is None))

    return Dialog(
        id=dialog_id,
        domain="restaurant",
        turns=tuple(turns),
        kb=KbRecord(entries=tuple(lower for _, lower, _ in facts)),
        source_info=tuple((*raw, ordinals[k]) for raw, _, k in facts),
    )


def serialize_babi(corpus: DialogCorpus) -> bytes:
    """The canonical bAbI text form of `corpus`: `babi_chunks` joined."""
    return b"".join(babi_chunks(corpus))


def babi_chunks(corpus: DialogCorpus) -> Iterable[bytes]:
    """The canonical bAbI text form of `corpus`, as chunks to write in order.

    The retained source bytes verbatim when the corpus is untouched and
    came from a file; otherwise one chunk per dialog block, with line
    indices renumbered 1..N per dialog, and one per separator. KB fact lines
    keep their position relative to the original agent turn they precede.
    Every block is built before this returns, so a dialog bAbI cannot hold
    raises ModelError before the first chunk.
    """
    if corpus.source_bytes and corpus.is_pristine:
        return (corpus.source_bytes,)
    return _encode_joined([_serialize_dialog(d) for d in corpus.dialogs], "\n\n")


def _encode_joined(parts: Iterable[str], sep: str) -> Iterator[bytes]:
    """The UTF-8 bytes of `sep.join(parts) + "\\n"`, one part at a time."""
    sep_bytes = sep.encode("utf-8")
    for i, part in enumerate(parts):
        if i:
            yield sep_bytes
        yield part.encode("utf-8")
    yield b"\n"


@memo
def _serialize_dialog(d: Dialog) -> str:
    if len(d.turns) % 2 != 0:
        raise ModelError(f"dialog {d.id}: bAbI requires an even number of turns")
    kb_by_ordinal: dict[int, list[tuple[str, str, str]]] = {}
    for subj, attr, val, ordinal in d.source_info:
        kb_by_ordinal.setdefault(ordinal, []).append((subj, attr, val))

    lines: list[str] = []
    index = 1
    agent_ordinal = 0
    for i in range(0, len(d.turns), 2):
        user, agent = d.turns[i], d.turns[i + 1]
        if user.speaker is not Speaker.USER or agent.speaker is not Speaker.AGENT:
            raise ModelError(f"dialog {d.id}: turn pairing broken at {i}")
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


def check_pattern_name(name, where: str) -> None:
    """Raise ParseError unless `name` is a recipe-bearing pattern."""
    if not isinstance(name, str) or name not in _RECIPE_PATTERNS:
        raise ParseError(f"{where}: unknown pattern {name!r}")


def _parse_sidecar(data: bytes) -> dict[str, dict[int, str]]:
    out: dict[str, dict[int, str]] = {}
    # item text -> (turn index, pattern), filled by successful parses only
    items: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(decode_utf8(data, "sidecar").splitlines(), start=1):
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
    check_pattern_name(pattern, f"sidecar line {lineno}")
    try:
        return int(pos), pattern
    except ValueError:
        raise ParseError(f"sidecar line {lineno}: turn index {pos!r} is not an integer") from None
