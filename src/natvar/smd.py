"""SMD (in-car assistant) JSON format: parsing and serialization.

The source file is a JSON array of dialogue objects:

    {"dialogue": [{"turn": "driver"|"assistant",
                   "data": {"utterance": ..., "end_dialogue": ...,
                            "requested": {...}, "slots": {...}}}, ...],
     "scenario": {"kb": {"items": [...] | null, ...},
                  "task": {"intent": "schedule"|"weather"|"navigate"},
                  "uuid": ...}}

Injected turns are serialized as ordinary turn objects with two additive
fields, `"injected": true` and `"pattern": "<name>"`, so consumers of the
original schema still parse updated files.

Original turn and scenario objects are kept verbatim as compact JSON strings,
so saving is lossless, and `user_slots` reads the turns' `slots` from them, not
the parse. Parse and save handle one dialogue object at a time.
"""

from __future__ import annotations

import functools
import json
import re
from collections.abc import Iterator

from .catalog import check_pattern
from .io import ParseError, decode_utf8
from .model import (
    Dialog,
    DialogCorpus,
    KbRecord,
    ModelError,
    Speaker,
    Turn,
    build_global_entities,
    entities_in,
    normalize_entity,
)

SMD_DOMAINS = ("schedule", "weather", "navigate")

# Primary-key column per domain; the subject of every flattened KB triple.
_SUBJECT_KEYS = {"navigate": "poi", "weather": "location", "schedule": "event"}

_SPEAKERS = {"driver": Speaker.USER, "assistant": Speaker.AGENT}
_TAGS = {Speaker.USER: "driver", Speaker.AGENT: "assistant"}
_WS = "[ \t\n\r]*"  # JSON whitespace
_OPEN = re.compile(rf"{_WS}\[{_WS}(\]{_WS}\Z)?")  # "[", or a whole empty array (group 1)
_NEXT = re.compile(rf"{_WS}(?:,{_WS}|(\]){_WS}\Z)")  # ",", or "]" at the end (group 1)
_DECODE = json.JSONDecoder().raw_decode
_ENCODE = json.JSONEncoder(ensure_ascii=False).encode  # a scalar, "[]" or "{}"
_COMPACT = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode  # a source object


def parse_smd(data: bytes) -> DialogCorpus:
    """Parse an SMD JSON file into a corpus one dialogue object at a time, with no
    tree of the whole file. A bad UTF-8 byte is named as `decode_utf8` names it;
    on any other error the file is parsed whole, which names the fault.

    KB subjects, attribute names and values recur across dialogues, so
    `entity`, a `functools.cache` made in the call, normalizes each distinct
    one once, and every KB that holds it shares the result.
    """
    entity = functools.cache(normalize_entity)
    text, dialogs = decode_utf8(data, "SMD file"), []
    try:
        sep = _OPEN.match(text)
        while sep and not sep.group(1):
            el, end = _DECODE(text, sep.end())
            dialogs.append(_parse_dialogue(el, len(dialogs), entity))
            sep = _NEXT.match(text, end)
    except (ValueError, RecursionError):  # a ParseError is a ValueError
        sep = None
    if not sep:  # an error, or not one JSON array: `json.loads` names the fault
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as e:
            raise ParseError(f"not valid SMD JSON: {e}") from e
        if not isinstance(doc, list):
            raise ParseError("SMD file must be a JSON array of dialogues")
        dialogs = [_parse_dialogue(el, i, entity) for i, el in enumerate(doc)]
    return DialogCorpus(
        dialogs=tuple(dialogs),
        source_format="smd",
        global_entities=build_global_entities(dialogs),
        source_bytes=data,
    )


def _parse_dialogue(el, index: int, entity) -> Dialog:
    did = f"smd-{index}"
    try:
        scenario = el["scenario"]
        domain = scenario["task"]["intent"]
        raw_turns = el["dialogue"]
    except (TypeError, KeyError) as e:
        raise ParseError(f"dialog {index}: malformed dialogue object ({e})") from e
    if domain not in SMD_DOMAINS:
        raise ParseError(f"dialog {index}: unknown domain {domain!r}")
    if not isinstance(raw_turns, list):
        raise ParseError(f"dialog {index}: dialogue is not a JSON array")

    kb = _flatten_kb(scenario, domain, index, entity)
    turns: list[Turn] = []
    raw_originals: list[str] = []
    for j, obj in enumerate(raw_turns):
        try:
            speaker = _SPEAKERS[obj["turn"]]
            utterance = obj["data"]["utterance"]
        except (TypeError, KeyError) as e:
            raise ParseError(f"dialog {index}: malformed turn object {j} ({e})") from e
        if not isinstance(utterance, str):
            raise ParseError(f"dialog {index}: utterance of turn {j} is not a string")
        text = " ".join(utterance.split())
        if not text:
            raise ParseError(f"dialog {index}: empty utterance in turn {j}")
        if obj.get("injected"):
            injected_by = obj.get("pattern")
            check_pattern(injected_by, "smd", ParseError, f"dialog {index}: turn {j}")
        else:
            injected_by = None
            if not isinstance(obj["data"].get("slots") or {}, dict):
                raise ParseError(f"dialog {index}: turn slots are not a JSON object")
            raw_originals.append(_COMPACT(obj))
        # `text` is one-line and not empty, so `Turn` accepts it.
        turns.append(Turn(speaker, text, injected_by))

    try:
        return Dialog(
            id=did,
            domain=domain,
            turns=tuple(turns),
            kb=kb,
            source_info=(_COMPACT(scenario), tuple(raw_originals)),
        )
    except ModelError as e:
        raise ParseError(f"dialog {index}: {e}") from e


def _flatten_kb(scenario, domain: str, index: int, entity) -> KbRecord:
    """The KB items as (subject, attribute, value) triples, each component
    canonicalized by `entity` (`normalize_entity` or a cache of it)."""
    kb_obj = scenario.get("kb") or {}
    if not isinstance(kb_obj, dict) or not isinstance(kb_obj.get("items") or [], list):
        raise ParseError(f"dialog {index}: malformed KB")
    items = kb_obj.get("items")
    if not items:
        # Some scenarios intentionally lack KB attributes.
        return KbRecord()
    subject_key = _SUBJECT_KEYS[domain]
    entries = []
    for item in items:
        if not isinstance(item, dict) or not item:
            raise ParseError(f"dialog {index}: malformed KB item")
        try:
            subj = entity(str(item.get(subject_key) or next(iter(item.values()))))
            for key, val in item.items():
                if key != subject_key and val is not None:
                    entries.append((subj, entity(str(key)), entity(str(val))))
        except ModelError as e:
            raise ParseError(f"dialog {index}: malformed KB item (empty entity)") from e
    return KbRecord(entries=tuple(entries))


def user_slots(d: Dialog) -> Iterator[tuple[int, tuple[tuple[str, str], ...]]]:
    """(turn index, (slot, value) pairs) of each original user turn of `d` that
    holds a slot value, in turn order, read from the kept source turn objects.
    A turn's own `slots` count when the value is grounded in its utterance or
    the KB. Then each assistant slot is copied to the nearest earlier user turn
    that mentions its value, unless that turn has the slot already. A dialog
    built in memory has no source objects, so it has no slots."""
    if not d.source_info:
        return
    kb_ents = d.kb.all_entities()
    originals = [(i, t, {}) for i, t in enumerate(d.turns) if t.is_original]
    for (_, t, own), raw in zip(originals, d.source_info[1]):
        for key, val in (json.loads(raw)["data"].get("slots") or {}).items():
            if isinstance(val, str) and val.strip():
                norm = normalize_entity(val)
                if norm in kb_ents or entities_in(t.text, {norm}):
                    own[key] = val
    for k, (_, t, own) in enumerate(originals):
        if t.speaker is Speaker.AGENT:
            for key, val in own.items():
                norm = normalize_entity(val)
                for _, u, slots in reversed(originals[:k]):
                    if u.speaker is Speaker.USER and entities_in(u.text, {norm}):
                        slots.setdefault(key, val)
                        break
    for i, t, own in originals:
        if t.speaker is Speaker.USER and own:
            yield i, tuple(own.items())


def smd_chunks(corpus: DialogCorpus) -> Iterator[bytes]:
    """`json.dumps(doc, ensure_ascii=False, indent=2) + "\\n"` in UTF-8, one dialogue
    object of `doc` at a time."""
    sep = "[\n  "
    for d in corpus.dialogs:
        scenario_json, raw_originals = d.source_info
        originals = iter(raw_originals)
        turn_objs = [json.loads(next(originals)) if t.is_original else {
            "turn": _TAGS[t.speaker],
            "data": {"end_dialogue": False, "utterance": t.text},
            "injected": True,
            "pattern": t.injected_by,
        } for t in d.turns]
        obj = {"dialogue": turn_objs, "scenario": json.loads(scenario_json)}
        yield (sep + _indented(obj, "  ")).encode("utf-8")
        sep = ",\n  "
    yield b"\n]\n" if corpus.dialogs else b"[]\n"


def _indented(obj, pad: str) -> str:
    """`json.dumps(obj, ensure_ascii=False, indent=2)` with `pad` before each line but
    the first, without the reference cycle per call that `json.dumps` makes then."""
    inner = pad + "  "
    if obj and isinstance(obj, dict):
        return "{\n" + ",\n".join(f"{inner}{_ENCODE(k)}: {_indented(v, inner)}"
                                   for k, v in obj.items()) + f"\n{pad}}}"
    if obj and isinstance(obj, list):
        return "[\n" + ",\n".join(inner + _indented(v, inner) for v in obj) + f"\n{pad}]"
    return _ENCODE(obj)
