"""Injection recipes: applicability heuristics, anchors, turn realization.

Each of the nine recipe-bearing patterns is a fixed template of additional
user/agent turns spliced into an existing dialog at an anchor: a turn index
and the values the template's slots bind to. The block goes before the
anchor turn, or after it where the recipe says so. Templates are
alternating blocks, and a splice that would break the host dialog's
user/agent alternation is refused, which also refuses an anchor at a turn
of the wrong speaker. Injected turns never modify an original turn, which
is what keeps the masked-evaluation manifest invariant under injection.

Anchor heuristics key off the dialog's turns and knowledge base (question
forms, entity mentions, KB contents). The slip finder alone reads a user
turn's slot values, which its format module's `user_slots` derives. Where a
slip or a corrupted answer is needed, the distractor is the value of the
same attribute drawn from the dialog's KB, falling back to the fixed slot
vocabulary for the restaurant corpus. A bAbI slot is named without the
`r_` of its KB attribute (`cuisine`, not `r_cuisine`), so the KB never
matches it and every bAbI slip draws from that vocabulary. Dialogs without
any distractor simply yield no anchor. A finder is a generator of the
dialog's anchors in turn order, so its first anchor decides eligibility. It
draws in turn order from one generator keyed by (seed, dialog, pattern), and
no draw decides whether an anchor exists, only what it binds: a fresh call
yields the same anchors.

`RECIPES` is the one registry of recipe patterns: a row declares the
pattern's name, template, datasets and anchor finder, and whether the block
goes after the anchor turn; the Table-row order of its rows is the order of
assignment priority. To add a pattern, add one `RECIPES` row with its
finder, one phrase-bank entry (`data/phrase_bank.json`) and
`has_recipe=True` on its `catalog.CATALOG` entry.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial

from . import NatvarError
from .babi import BABI_SLOT_VALUES, slot_for_question
from .model import (
    Dialog,
    KbRecord,
    ModelError,
    Speaker,
    Turn,
    entity_display,
    entity_spans,
    normalize_entity,
)
from .phrasebank import variants


@dataclass(frozen=True)
class TemplateTurn:
    speaker: Speaker
    action: str
    slots: tuple[str, ...] = ()


@dataclass(frozen=True)
class PatternRecipe:
    name: str
    template: tuple[TemplateTurn, ...]
    datasets: frozenset[str]
    # Yields a dialog's anchors in turn order; the second argument makes the
    # dialog's keyed generator, which a finder that draws calls once.
    find: Callable[[Dialog, Callable[[], random.Random]], Iterator[Anchor]]
    # The block goes after the anchor turn, not before it.
    after: bool = False

    def __post_init__(self):
        for i in range(1, len(self.template)):
            if self.template[i].speaker is self.template[i - 1].speaker:
                raise ModelError(f"recipe {self.name}: template does not alternate")


@dataclass(frozen=True, slots=True)
class Anchor:
    turn_index: int
    bound: tuple[tuple[str, str], ...] = ()


class InjectionError(NatvarError):
    """Invalid anchor, missing slot binding, or re-applied pattern."""


def patterns_for_dataset(dataset: str) -> tuple[str, ...]:
    return tuple(n for n in PATTERN_ORDER if dataset in RECIPES[n].datasets)


def keyed_rng(seed: int, dialog_id: str, pattern: str, purpose: str) -> random.Random:
    key = f"{seed}|{dialog_id}|{pattern}|{purpose}".encode("utf-8")
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


# --- intent / capability data -------------------------------------------

_INTENT_PHRASES = {
    "navigate": "finding a place",
    "weather": "the weather",
    "schedule": "my schedule",
    "restaurant": "a restaurant reservation",
}

_SMD_CAPABILITIES = (
    ("calendar scheduling", "when your next dentist appointment is"),
    ("weather information", "the weekend forecast for cleveland"),
    ("navigation to points of interest", "the route to the nearest gas station"),
)

_BABI_CAPABILITIES = (
    ("restaurant recommendations", "a cheap italian restaurant in paris"),
    ("table reservations", "a table for four in rome"),
    ("restaurant information", "the phone number or the address of a restaurant"),
)

# Markers an agent turn uses when it could not fulfill the request.
_SMD_UNHELPFUL_MARKERS = (
    "could not find", "couldn't find", "no results", "i don't have",
    "i do not have", "there are no", "unable to find", "no match",
    "nothing matching",
)
_BABI_UNHELPFUL_MARKERS = ("find an other option", "no match")


def _is_question(text: str, domain: str) -> bool:
    if text.strip().endswith("?"):
        return True
    return domain == "restaurant" and slot_for_question(text) is not None


def _distractor(kb: KbRecord, domain: str, attribute: str, value: str,
                rng: random.Random) -> str | None:
    """Same-attribute value != `value`, picked under the seeded draw."""
    candidates = [v for v in kb.values_for(attribute) if v != value]
    if not candidates and value in kb.subjects():
        candidates = [s for s in kb.subjects() if s != value]
    if not candidates and domain == "restaurant":
        plain = attribute[2:] if attribute.startswith("r_") else attribute
        candidates = [v for v in BABI_SLOT_VALUES.get(plain, ()) if v != value]
    if not candidates:
        return None
    return candidates[rng.randrange(len(candidates))]


def _swap_span(text: str, canonical: str, replacement: str) -> str | None:
    """`text` with the first token span matching `canonical` replaced."""
    spans = entity_spans(text, {canonical})
    if not spans:
        return None
    start, end, _ = spans[0]
    toks = text.split()
    return " ".join(toks[:start] + [entity_display(replacement)] + toks[end:])


# --- anchor heuristics ---------------------------------------------------

def iter_anchors(recipe: PatternRecipe, d: Dialog, seed: int = 0) -> Iterator[Anchor]:
    """Structurally valid anchors for `recipe` in `d`, yielded by turn index;
    none means the pattern is not applicable to the dialog. Bound values
    (distractors, enumerations, examples) are resolved here, with value
    draws keyed by (seed, dialog id, pattern name)."""
    dataset = "babi" if d.domain == "restaurant" else "smd"
    if dataset in recipe.datasets and d.turns:
        yield from recipe.find(d, partial(keyed_rng, seed, d.id, recipe.name, "anchors"))


def find_anchors(recipe: PatternRecipe, d: Dialog, seed: int = 0) -> list[Anchor]:
    """Every anchor of `iter_anchors`; an empty list means not applicable."""
    return list(iter_anchors(recipe, d, seed))


def _anchors_screening(d: Dialog, new_rng) -> Iterator[Anchor]:
    yield Anchor(0, (("intent", _INTENT_PHRASES[d.domain]),))


def _anchors_user_detail(d: Dialog, new_rng) -> Iterator[Anchor]:
    for i, t in enumerate(d.turns):
        if t.speaker is not Speaker.USER or i == 0:
            continue
        prev = d.turns[i - 1]
        slot = slot_for_question(prev.text)
        if slot is None or not prev.is_original:
            continue
        values = d.kb.values_for(f"r_{slot}")
        if len(values) < 2:
            # The per-dialog KB rarely lists alternatives (candidates match
            # the query); the simulator's fixed vocabulary is the option set.
            values = list(BABI_SLOT_VALUES.get(slot, ()))
        if len(values) < 2:
            continue
        options = ", ".join(entity_display(v) for v in values)
        yield Anchor(i, (("options", options),))


def _anchors_example(d: Dialog, new_rng) -> Iterator[Anchor]:
    """Draws each example after its turn qualifies as an anchor."""
    if not d.kb.entries:
        return
    rng = new_rng()
    for i, t in enumerate(d.turns):
        if t.speaker is not Speaker.AGENT or not t.is_original:
            continue
        low = f" {t.text.lower()} "
        states_rule = t.text.strip().endswith("?") or " i can " in low or low.startswith(" you can ")
        if not states_rule:
            continue
        subjects = d.kb.subjects()
        example = entity_display(subjects[rng.randrange(len(subjects))])
        yield Anchor(i, (("example", example),))


def _anchors_misunderstanding(d: Dialog, new_rng) -> Iterator[Anchor]:
    """Draws distractors span by span, each span's stopping at its first
    attribute that has one, until one swaps in. Only an empty candidate list
    or an absent span rules a span out, never a draw."""
    lexicon = d.entity_lexicon()
    if not lexicon:
        return
    rng = new_rng()
    for i, t in enumerate(d.turns):
        if t.speaker is not Speaker.AGENT or not t.is_original:
            continue
        for _, _, ent in entity_spans(t.text, lexicon):
            distrs = (_distractor(d.kb, d.domain, attr, ent, rng) for attr in d.kb.attributes_of(ent))
            distr = next((x for x in distrs if x is not None), None)
            corrupted = distr is not None and _swap_span(t.text, ent, distr)
            if corrupted:
                yield Anchor(i, (("corrupted_answer", corrupted),
                                 ("prior_request", d.turns[i - 1].text)))
                break


def _anchors_slip(d: Dialog, new_rng) -> Iterator[Anchor]:
    """Draws distractors slot by slot until one swaps in. Only an empty
    candidate list or an absent span rules a slot out, never a draw."""
    if d.domain == "restaurant":
        from .babi import user_slots
    else:  # imported here, so a bAbI run never loads the SMD module
        from .smd import user_slots
    rng = new_rng()
    for i, slots in user_slots(d):
        for slot, raw in sorted(slots):
            value = normalize_entity(raw)
            distr = _distractor(d.kb, d.domain, slot, value, rng)
            if distr is None:
                continue
            slip = _swap_span(d.turns[i].text, value, distr)
            if slip is not None:
                yield Anchor(i, (("slip_utterance", slip), ("value", entity_display(value)),
                                 ("distractor", entity_display(distr))))
                break


def _anchors_not_helped(d: Dialog, new_rng) -> Iterator[Anchor]:
    markers = _BABI_UNHELPFUL_MARKERS if d.domain == "restaurant" else _SMD_UNHELPFUL_MARKERS
    for i, t in enumerate(d.turns):
        if t.speaker is not Speaker.AGENT or not t.is_original:
            continue
        low = t.text.lower()
        if any(m in low for m in markers):
            yield Anchor(i)


def _anchors_repaired(d: Dialog, new_rng) -> Iterator[Anchor]:
    for i in range(2, len(d.turns)):
        t = d.turns[i]
        if t.speaker is not Speaker.AGENT or not t.is_original:
            continue
        asked = d.turns[i - 2]
        if asked.speaker is Speaker.AGENT and asked.is_original \
                and _is_question(asked.text, d.domain) and not _is_question(t.text, d.domain):
            yield Anchor(i)


def _anchors_capability(d: Dialog, new_rng) -> Iterator[Anchor]:
    caps = _BABI_CAPABILITIES if d.domain == "restaurant" else _SMD_CAPABILITIES
    bound = [("capabilities", ", ".join(c for c, _ in caps))]
    for k, (cap, example) in enumerate(caps, start=1):
        bound.append((f"capability_{k}", cap))
        bound.append((f"example_{k}", example))
    yield Anchor(0, tuple(bound))


def _anchors_recipient(d: Dialog, new_rng) -> Iterator[Anchor]:
    for i, t in enumerate(d.turns):
        if t.speaker is Speaker.USER and t.is_original:
            yield Anchor(i)


# --- the recipe table -----------------------------------------------------

_U, _A = Speaker.USER, Speaker.AGENT


def _tpl(*turns: tuple) -> tuple[TemplateTurn, ...]:
    return tuple(TemplateTurn(s, a, tuple(sl)) for s, a, *sl in turns)


RECIPES: dict[str, PatternRecipe] = {
    r.name: r
    for r in (
        PatternRecipe(
            "open_request_screening",
            _tpl((_U, "PRE-REQUEST", "intent"), (_A, "GO-AHEAD")),
            frozenset({"babi", "smd"}), _anchors_screening,
        ),
        PatternRecipe(
            "open_request_user_detail_request",
            _tpl((_U, "DETAIL-REQUEST"), (_A, "ENUMERATION", "options")),
            frozenset({"babi"}), _anchors_user_detail,
        ),
        PatternRecipe(
            "example_request",
            _tpl((_U, "EXAMPLE-REQUEST"), (_A, "EXAMPLE", "example")),
            frozenset({"smd"}), _anchors_example, after=True,
        ),
        PatternRecipe(
            "misunderstanding_report",
            _tpl(
                (_A, "CORRUPTED-ANSWER", "corrupted_answer"),
                (_U, "REPORT"),
                (_A, "APOLOGY-REPEAT-REQUEST"),
                (_U, "RESTATEMENT", "prior_request"),
            ),
            frozenset({"babi", "smd"}), _anchors_misunderstanding,
        ),
        PatternRecipe(
            "other_correction",
            _tpl((_U, "SLIP", "slip_utterance"), (_A, "CORRECTION", "value", "distractor")),
            frozenset({"babi", "smd"}), _anchors_slip,
        ),
        PatternRecipe(
            "sequence_closer_not_helped",
            _tpl((_U, "CLOSER"), (_A, "RECEIPT")),
            frozenset({"babi", "smd"}), _anchors_not_helped, after=True,
        ),
        PatternRecipe(
            "sequence_closer_repaired",
            _tpl((_U, "APPRECIATION"), (_A, "RECEIPT")),
            frozenset({"babi", "smd"}), _anchors_repaired, after=True,
        ),
        PatternRecipe(
            "capability_expansion",
            _tpl(
                (_U, "CAPABILITY-CHECK"),
                (_A, "CAPABILITY-LIST", "capabilities"),
                (_U, "EXPANSION-REQUEST", "capability_1"),
                (_A, "EXPANSION", "capability_1", "example_1"),
                (_U, "EXPANSION-REQUEST", "capability_2"),
                (_A, "EXPANSION", "capability_2", "example_2"),
                (_U, "EXPANSION-REQUEST", "capability_3"),
                (_A, "EXPANSION", "capability_3", "example_3"),
                (_U, "ACKNOWLEDGEMENT"),
                (_A, "RECEIPT"),
            ),
            frozenset({"babi", "smd"}), _anchors_capability,
        ),
        PatternRecipe(
            "recipient_correction",
            _tpl(
                (_U, "SIDE-REMARK"),
                (_A, "MISTAKEN-REPLY"),
                (_U, "CORRECTION"),
                (_A, "STAND-BY"),
                (_U, "SIDE-REMARK"),
                (_A, "MISTAKEN-REPLY"),
                (_U, "CORRECTION"),
                (_A, "STAND-BY"),
            ),
            frozenset({"smd"}), _anchors_recipient,
        ),
    )
}

#: Table-row order, which is the order of assignment priority.
PATTERN_ORDER = tuple(RECIPES)


# --- realization and splicing --------------------------------------------

def _fill(form: str, bound: dict[str, str]) -> str:
    try:
        return form.format_map(bound)
    except KeyError as e:
        raise InjectionError(f"unresolvable realization slot {e.args[0]!r}") from e


def inject(d: Dialog, recipe: PatternRecipe, a: Anchor, seed: int) -> Dialog:
    """New dialog with the recipe's turns spliced at the anchor.

    Pure function of its inputs: surface draws are keyed by
    (seed, dialog id, pattern name), not by call order.
    """
    turns = list(d.turns)
    splice(turns, d, recipe, a, seed)
    return Dialog(id=d.id, domain=d.domain, turns=tuple(turns), kb=d.kb, source_info=d.source_info)


def splice(turns: list[Turn], d: Dialog, recipe: PatternRecipe, a: Anchor, seed: int) -> int:
    """Insert the recipe's realized block into `turns`, the current turns of
    `d`, at the anchor (an index into `turns`); returns the insert index. A
    splice that passes the checks keeps `turns` alternating, so a fold of
    splices needs one `Dialog` at the end."""
    if any(t.injected_by == recipe.name for t in turns):
        raise InjectionError(f"pattern already applied at anchor: {recipe.name} in {d.id}")
    i = a.turn_index
    if not 0 <= i < len(turns):
        raise InjectionError(f"anchor index {i} out of range for {d.id}")
    pos = i + 1 if recipe.after else i

    block_first = recipe.template[0].speaker
    block_last = recipe.template[-1].speaker
    if pos == 0:
        if block_first is not Speaker.USER:
            raise InjectionError(f"{recipe.name}: block at dialog start must open with the user")
    elif turns[pos - 1].speaker is block_first:
        raise InjectionError(f"{recipe.name}: splice at {pos} breaks alternation")
    if pos < len(turns) and turns[pos].speaker is block_last:
        raise InjectionError(f"{recipe.name}: splice at {pos} breaks alternation")

    bound = dict(a.bound)
    missing = [s for t in recipe.template for s in t.slots if s not in bound]
    if missing:
        raise InjectionError(f"unresolvable realization slot {missing[0]!r}")

    rng = keyed_rng(seed, d.id, recipe.name, "surface")
    base_draw: dict[str, int] = {}
    seen: dict[str, int] = {}
    new_turns = []
    for t in recipe.template:
        forms = variants(recipe.name, t.action, d.domain)
        if t.action not in base_draw:
            base_draw[t.action] = rng.randrange(len(forms))
        occ = seen.get(t.action, 0)
        seen[t.action] = occ + 1
        # Repeated actions rotate variants so cycles do not repeat verbatim.
        idx = (base_draw[t.action] + occ) % len(forms)
        projected = {s.rstrip("0123456789").rstrip("_"): bound[s] for s in t.slots}
        new_turns.append(Turn(t.speaker, _fill(forms[idx], projected), injected_by=recipe.name))
    turns[pos:pos] = new_turns
    return pos
