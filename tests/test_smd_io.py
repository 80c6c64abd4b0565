import json

import pytest
from dataclasses import replace

from natvar.babi import ParseError
from natvar.planner import PlanConfig, execute, plan
from natvar.smd import parse_smd, serialize_smd


def _doc(dialogues):
    return json.dumps(dialogues, ensure_ascii=False, indent=2).encode() + b"\n"


def _dialogue(domain="navigate", n_exchanges=3, kb_items=None):
    turns = []
    for i in range(n_exchanges):
        turns.append({"turn": "driver", "data": {"end_dialogue": False, "utterance": f"question {i}"}})
        turns.append({"turn": "assistant", "data": {"end_dialogue": False, "utterance": f"answer {i}"}})
    return {
        "dialogue": turns,
        "scenario": {
            "kb": {"items": kb_items, "column_names": ["poi"], "kb_title": "t"},
            "task": {"intent": domain},
            "uuid": "u0",
        },
    }


class TestParse:
    def test_full_fixture_has_304_dialogs(self, smd_corpus):
        assert len(smd_corpus.dialogs) == 304

    def test_three_exchange_dialogue_has_six_turns(self):
        c = parse_smd(_doc([_dialogue(n_exchanges=3)]))
        assert len(c.dialogs[0].turns) == 6

    def test_null_kb_parses_to_empty_record(self):
        c = parse_smd(_doc([_dialogue(kb_items=None)]))
        assert c.dialogs[0].kb.entries == ()

    def test_speaker_mapping(self, smd_corpus):
        d = smd_corpus.dialogs[0]
        assert d.turns[0].speaker.value == "user"
        assert d.turns[1].speaker.value == "agent"

    def test_unknown_domain_rejected(self):
        with pytest.raises(ParseError, match="dialog 0"):
            parse_smd(_doc([_dialogue(domain="flights")]))

    def test_malformed_turn_rejected(self):
        bad = _dialogue()
        del bad["dialogue"][1]["data"]
        with pytest.raises(ParseError, match="dialog 0"):
            parse_smd(_doc([bad]))

    @pytest.mark.parametrize("pattern", ["bogus", None, ["open_request_screening"]])
    def test_unknown_injected_pattern_rejected(self, pattern):
        d = _dialogue(n_exchanges=2)
        for turn in d["dialogue"][:2]:
            turn.update(injected=True, pattern=pattern)
        with pytest.raises(ParseError, match="dialog 0: turn 0: unknown pattern"):
            parse_smd(_doc([d]))

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["scenario"].update(kb=[1]), "dialog 0: malformed KB"),
        (lambda d: d["dialogue"][1]["data"].update(slots=[1]),
         "dialog 0: turn slots are not a JSON object"),
        (lambda d: d["dialogue"][1]["data"].update(utterance=None),
         "dialog 0: utterance of turn 1 is not a string"),
        (lambda d: d.update(dialogue=None), "dialog 0: dialogue is not a JSON array"),
    ], ids=["kb-list", "slots-list", "null-utterance", "null-dialogue"])
    def test_malformed_field_rejected(self, edit, message):
        d = _dialogue()
        edit(d)
        with pytest.raises(ParseError, match=message):
            parse_smd(_doc([d]))

    def test_requested_field_is_not_read(self):
        d = _dialogue()
        d["dialogue"][1]["data"]["requested"] = [1]
        plain = parse_smd(_doc([_dialogue()]))
        assert parse_smd(_doc([d])).dialogs[0].turns == plain.dialogs[0].turns

    def test_domains_cover_all_three(self, smd_corpus):
        assert {d.domain for d in smd_corpus.dialogs} == {"navigate", "weather", "schedule"}

    def test_kb_flattened_to_triples(self, smd_corpus):
        d = next(d for d in smd_corpus.dialogs if d.domain == "navigate")
        subjects = d.kb.subjects()
        assert len(subjects) == 3
        assert all(attr in ("poi_type", "address", "distance")
                   for _, attr, _ in d.kb.entries)

    def test_slot_annotations_preserved(self, smd_corpus):
        annotated = [
            t for d in smd_corpus.dialogs for t in d.turns
            if t.speaker.value == "agent" and t.slots()
        ]
        assert annotated

    def test_user_turns_inherit_mentioned_slots(self, smd_corpus):
        hits = [
            t for d in smd_corpus.dialogs for t in d.turns
            if t.speaker.value == "user" and t.slots()
        ]
        assert hits


class TestRoundTrip:
    def test_pristine_bytes_shortcut(self, smd_bytes, smd_corpus):
        assert serialize_smd(smd_corpus) == smd_bytes

    def test_canonical_emission_matches_fixture(self, smd_bytes, smd_corpus):
        forced = replace(smd_corpus, source_bytes=b"")
        assert serialize_smd(forced) == smd_bytes

    def test_model_round_trip_after_injection(self, small_smd_corpus):
        cfg = PlanConfig(
            targets={"capability_expansion": 6, "recipient_correction": 6},
            seed=5,
            histogram_targets=None,
        )
        updated = execute(small_smd_corpus, plan(small_smd_corpus, cfg))
        reparsed = parse_smd(serialize_smd(updated))
        assert reparsed == replace(updated, source_bytes=b"")

    def test_injected_turns_carry_additive_fields(self, small_smd_corpus):
        cfg = PlanConfig(targets={"open_request_screening": 3}, seed=1,
                         histogram_targets=None)
        updated = execute(small_smd_corpus, plan(small_smd_corpus, cfg))
        doc = json.loads(serialize_smd(updated))
        injected = [
            t for el in doc for t in el["dialogue"] if t.get("injected")
        ]
        assert len(injected) == 6
        assert all(t["pattern"] == "open_request_screening" for t in injected)
        # Original consumers still see ordinary turn objects.
        assert all("turn" in t and "data" in t and "utterance" in t["data"] for t in injected)
