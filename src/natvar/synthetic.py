"""Deterministic synthetic test corpora in both source formats.

The generators stand in for the real test files, which are not
redistributable here. The default SMD build matches the published test-set
envelope: 304 dialogs, 1627 utterances total (mean 5.352), a small set of
unfulfillable requests, and knowledge bases rich enough that every
pattern's dialog-eligibility count exceeds its per-pattern target. The
default bAbI build is 1000 restaurant dialogs in the task-5 line format,
with clarification-question chains in ~65% of dialogs and a rejected first
option in exactly 875.

Output is plain file bytes in the canonical serialized form, so
parse -> serialize round-trips byte-identically through the full path.
"""

from __future__ import annotations

import json
import random

from .babi import API_CALL_SLOTS, BABI_SLOT_VALUES, SLOT_QUESTIONS

# --- SMD ------------------------------------------------------------------

_POI_TYPES = ("gas station", "coffee shop", "pizza restaurant", "grocery store",
              "hospital", "parking garage", "shopping center", "chinese restaurant")
_POIS = ("chevron", "valero", "teavana", "philz", "starbucks", "round table",
         "pizza hut", "whole foods", "safeway", "trader joes", "dish parking",
         "webster garage", "stanford shopping center", "town and country",
         "pf changs", "panda express", "palo alto medical foundation",
         "stanford childrens health")
_ADDRESSES = ("783 arcadia pl", "200 alester ave", "145 amherst st",
              "409 bollard st", "638 amherst st", "580 van ness ave",
              "899 ames ct", "269 alger dr", "5672 barringer street",
              "657 ames ave", "270 altaire walk", "436 alger dr")
_DISTANCES = ("1 miles", "2 miles", "3 miles", "4 miles", "5 miles", "6 miles")
_CITIES = ("cleveland", "boston", "chicago", "san francisco", "los angeles",
           "new york", "seattle", "oakland", "alhambra", "fresno", "camarillo",
           "san mateo")
_FORECASTS = ("sunny", "cloudy", "windy", "raining", "snowing", "foggy",
              "overcast", "humid", "clear")
_DAYS = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")
_EVENTS = ("dentist appointment", "doctor appointment", "yoga activity",
           "swimming activity", "lab appointment", "conference", "dinner",
           "football activity", "medicine", "optometrist appointment")
_DATES = ("the 1st", "the 3rd", "the 5th", "the 8th", "the 11th", "the 13th",
          "the 15th", "the 17th", "the 20th")
_TIMES = ("9 am", "10 am", "11 am", "1 pm", "2 pm", "3 pm", "5 pm", "7 pm")
_PARTIES = ("father", "sister", "brother", "boss", "alex", "marie", "jon")

# Archetype mix for the 304-dialog build: 10x4 + 93x4 + 51x5 + 120x6 + 30x8
# = 1627 utterances, mean 5.352.
_SMD_FULL_MIX = (("fail", 10), ("t4", 93), ("t5", 51), ("t6", 120), ("t8", 30))
_SMD_CYCLE = ("t4", "t6", "t5", "fail", "t6", "t8")

_DOMAINS = ("navigate", "weather", "schedule")


def _driver(text: str) -> dict:
    return {"turn": "driver", "data": {"end_dialogue": False, "utterance": text}}


def _assistant(text: str, slots: dict | None = None, requested: dict | None = None,
               end: bool = False) -> dict:
    data: dict = {"end_dialogue": end}
    if requested:
        data["requested"] = requested
    if slots:
        data["slots"] = slots
    data["utterance"] = text
    return {"turn": "assistant", "data": data}


def _smd_turns(shape: str, opening: tuple, answer: dict, follow_up: tuple,
               closing: tuple) -> list[dict]:
    """One dialogue of `shape`: the `opening` exchange as (driver, assistant,
    driver) texts, the `answer` turn, then by shape the `follow_up` exchange
    as (driver text, assistant text, slots) on t6 and t8, a thanks on t5 and
    the `closing` exchange as (driver, assistant) texts on t8. A "fail"
    opening is an unfulfilled request, and the dialogue ends at the answer."""
    ask, reply, retry = opening
    turns = [_driver(ask), _assistant(reply), _driver(retry), answer]
    if shape in ("t6", "t8"):
        turns += [_driver(follow_up[0]), _assistant(*follow_up[1:])]
    if shape == "t5":
        turns.append(_driver("thank you!"))
    if shape == "t8":
        turns += [_driver(closing[0]), _assistant(closing[1], end=True)]
    return turns


def _navigate_dialog(rng: random.Random, shape: str) -> dict:
    pois = rng.sample(_POIS, 3)
    types = rng.sample(_POI_TYPES, 3)
    addrs = rng.sample(_ADDRESSES, 3)
    dists = rng.sample(_DISTANCES, 3)
    items = [
        {"poi": p, "poi_type": t, "address": a, "distance": dd}
        for p, t, a, dd in zip(pois, types, addrs, dists)
    ]
    poi, ptype, addr, dist = pois[0], types[0], addrs[0], dists[0]
    slots = {"poi_type": ptype, "poi": poi, "address": addr}
    if shape == "fail":
        missing = rng.choice([t for t in _POI_TYPES if t not in types])
        opening = (f"is there a {missing} nearby?", f"Sorry, I could not find any {missing} nearby.",
                   f"ok, where is the nearest {ptype} then?")
        answer = _assistant(f"{poi} is the nearest {ptype}, located at {addr}.", slots)
    else:
        opening = (f"where is the nearest {ptype}?",
                   "There are a couple nearby. Do you want the closest one?",
                   "yes, the closest one please")
        answer = _assistant(f"{poi} is the closest {ptype}, located at {addr}.", slots,
                            {"address": True})
    turns = _smd_turns(shape, opening, answer,
                       ("how far is it from here?", f"{poi} is {dist} away.", {"distance": dist}),
                       ("thanks, set the directions please",
                        "You're welcome, directions are on your screen."))
    kb = {"items": items, "column_names": ["poi", "poi_type", "address", "distance"],
          "kb_title": "location information"}
    return {"turns": turns, "kb": kb, "intent": "navigate"}


def _weather_dialog(rng: random.Random, shape: str) -> dict:
    cities = rng.sample(_CITIES, 3)
    base = rng.randrange(len(_FORECASTS))
    items = []
    per_city = []
    for k, city in enumerate(cities):
        # Offset per city keeps same-day forecasts distinct across rows.
        fc = {d: _FORECASTS[(base + k + j) % len(_FORECASTS)] for j, d in enumerate(_DAYS[:4])}
        item = {"location": city} | fc | {"today": "monday"}
        items.append(item)
        per_city.append(fc)
    day = _DAYS[rng.randrange(4)]
    city, forecast = cities[0], per_city[0][day]
    city2, forecast2 = cities[1], per_city[1][day]
    if shape == "fail":
        missing = rng.choice([c for c in _CITIES if c not in cities])
        opening = (f"what is the weather like in {missing}?",
                   f"Sorry, I could not find forecast data for {missing}.", f"fine, how about {city}?")
    else:
        opening = (f"what is the weather like in {city} this week?",
                   "Which day are you interested in?", f"{day} please")
    answer = _assistant(f"it will be {forecast} on {day} in {city}.",
                        {"location": city, "date": day, "weather_attribute": forecast})
    turns = _smd_turns(shape, opening, answer,
                       (f"what about {city2}?", f"in {city2} expect {forecast2} on {day}.",
                        {"location": city2, "weather_attribute": forecast2}),
                       ("great, thanks for checking", "You're welcome, have a nice day."))
    kb = {"items": items, "column_names": ["location"] + list(_DAYS[:4]) + ["today"],
          "kb_title": "weekly forecast"}
    return {"turns": turns, "kb": kb, "intent": "weather"}


def _schedule_dialog(rng: random.Random, shape: str) -> dict:
    events = rng.sample(_EVENTS, 3)
    dates = rng.sample(_DATES, 3)
    times = rng.sample(_TIMES, 3)
    parties = rng.sample(_PARTIES, 3)
    items = [
        {"event": e, "date": d, "time": t, "party": p}
        for e, d, t, p in zip(events, dates, times, parties)
    ]
    ev, date, tm, party = events[0], dates[0], times[0], parties[0]
    requested = None
    if shape == "fail":
        missing = rng.choice([e for e in _EVENTS if e not in events])
        opening = (f"when is my {missing}?",
                   f"Sorry, I could not find any {missing} on your calendar.",
                   f"hm, when is my {ev} then?")
    else:
        opening = (f"when is my {ev}?", f"Do you mean the upcoming {ev}?", "yes, that one")
        requested = {"date": True, "time": True}
    answer = _assistant(f"your {ev} is on {date} at {tm}.",
                        {"event": ev, "date": date, "time": tm}, requested)
    turns = _smd_turns(shape, opening, answer,
                       ("who is going with me?", f"{party} will attend the {ev} with you.",
                        {"party": party}),
                       ("perfect, thanks", "You're welcome."))
    kb = {"items": items, "column_names": ["event", "date", "time", "party"],
          "kb_title": "calendar"}
    return {"turns": turns, "kb": kb, "intent": "schedule"}


_BUILDERS = {"navigate": _navigate_dialog, "weather": _weather_dialog,
             "schedule": _schedule_dialog}


def make_smd_bytes(seed: int = 20304, n_dialogs: int = 304) -> bytes:
    """Synthetic SMD test file. The default size reproduces the published
    envelope: 304 dialogs, 1627 utterances."""
    rng = random.Random(seed)
    if n_dialogs == 304:
        shapes = [s for s, count in _SMD_FULL_MIX for _ in range(count)]
        rng.shuffle(shapes)
    else:
        shapes = [_SMD_CYCLE[i % len(_SMD_CYCLE)] for i in range(n_dialogs)]
    doc = []
    for i, shape in enumerate(shapes):
        domain = _DOMAINS[i % 3]
        built = _BUILDERS[domain](rng, shape)
        doc.append({
            "dialogue": built["turns"],
            "scenario": {
                "kb": built["kb"],
                "task": {"intent": built["intent"]},
                "uuid": f"synthetic-{i}",
            },
        })
    return (json.dumps(doc, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


# --- bAbI -------------------------------------------------------------------

_SLOT_QUESTION = {slot: question for question, slot in SLOT_QUESTIONS.items()}
_SLOT_ANSWER = {
    "cuisine": "i love {v} food",
    "location": "in {v}",
    "number": "we will be {v}",
    "price": "in a {v} price range please",
}
_REQUEST_PART = {
    "cuisine": "with {v} cuisine",
    "location": "in {v}",
    "number": "for {v} people",
    "price": "in a {v} price range",
}

# Cycle of how many slots the opening request provides (4 = none asked).
_PROVIDED_CYCLE = (4, 3, 2, 4, 3, 1, 4, 2, 3, 4, 3, 4, 2, 3, 4, 1, 3, 2, 4, 3)


def _babi_dialog_lines(rng: random.Random, i: int) -> list[str]:
    values = {slot: rng.choice(BABI_SLOT_VALUES[slot]) for slot in API_CALL_SLOTS}
    n_provided = _PROVIDED_CYCLE[i % len(_PROVIDED_CYCLE)]
    provided = list(API_CALL_SLOTS[:n_provided])
    missing = [s for s in API_CALL_SLOTS if s not in provided]

    request = "may i have a table " + " ".join(
        _REQUEST_PART[s].format(v=values[s]) for s in provided
    ) if provided else "may i have a table"

    pairs: list[tuple[str, str]] = [
        (rng.choice(("hi", "hello", "good morning")), "hello what can i help you with today"),
        (request.strip(), "i'm on it"),
    ]
    if missing:
        user = "<silence>"
        for slot in missing:
            pairs.append((user, _SLOT_QUESTION[slot]))
            user = _SLOT_ANSWER[slot].format(v=values[slot])
        pairs.append((user, "ok let me look into some options for you"))
    else:
        pairs.append(("<silence>", "ok let me look into some options for you"))
    api = f"api_call {values['cuisine']} {values['location']} {values['number']} {values['price']}"
    pairs.append(("<silence>", api))

    stars = rng.sample((1, 2, 3, 4, 5, 6, 7, 8), 2)
    restos = [
        f"resto_{values['location']}_{values['price']}_{values['cuisine']}_{s}stars"
        for s in sorted(stars, reverse=True)
    ]
    kb_lines = []
    for name in restos:
        kb_lines += [
            f"{name} r_phone {name}_phone",
            f"{name} r_cuisine {values['cuisine']}",
            f"{name} r_address {name}_address",
            f"{name} r_location {values['location']}",
            f"{name} r_number {values['number']}",
            f"{name} r_price {values['price']}",
            f"{name} r_rating {name.rsplit('_', 1)[1][:-5]}",
        ]

    option_pairs: list[tuple[str, str]] = [
        ("<silence>", f"what do you think of this option: {restos[0]}"),
    ]
    rejected = i % 8 != 7  # exactly 875 of 1000 dialogs reject the first option
    final = restos[0]
    if rejected:
        option_pairs += [
            ("no this does not work for me", "sure let me find an other option for you"),
            ("<silence>", f"what do you think of this option: {restos[1]}"),
        ]
        final = restos[1]
    option_pairs.append(("let's do it", "great let me do the reservation"))
    if i % 2 == 0:
        option_pairs.append(("do you have its phone number", f"here it is {final}_phone"))
    if i % 3 == 0:
        option_pairs.append(("do you have its address", f"here it is {final}_address"))
    option_pairs += [
        ("thank you", "is there anything i can help you with"),
        ("no thank you", "you're welcome"),
    ]

    lines = []
    index = 1
    for user, agent in pairs:
        lines.append(f"{index} {user}\t{agent}")
        index += 1
    for kb in kb_lines:
        lines.append(f"{index} {kb}")
        index += 1
    for user, agent in option_pairs:
        lines.append(f"{index} {user}\t{agent}")
        index += 1
    return lines


def make_babi_bytes(seed: int = 51000, n_dialogs: int = 1000) -> bytes:
    """Synthetic bAbI task-5 test file (restaurant reservations)."""
    rng = random.Random(seed)
    blocks = []
    for i in range(n_dialogs):
        blocks.append("\n".join(_babi_dialog_lines(rng, i)))
    return ("\n\n".join(blocks) + "\n").encode("utf-8")
