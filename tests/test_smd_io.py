import json

import pytest
from dataclasses import replace

from natvar import smd
from natvar.io import ParseError
from natvar.io import corpus_chunks, save_corpus, serialize_corpus
from natvar.model import DialogCorpus, build_global_entities, entities_in, normalize_entity
from natvar.planner import PlanConfig, execute, plan
from natvar.smd import parse_smd, smd_chunks, user_slots
from natvar.synthetic import make_smd_bytes


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

    @pytest.mark.parametrize("pattern", ["bogus", None, ["open_request_screening"],
                                         "open_request_user_detail_request"])
    def test_unknown_injected_pattern_rejected(self, pattern):
        d = _dialogue(n_exchanges=2)
        for turn in d["dialogue"][:2]:
            turn.update(injected=True, pattern=pattern)
        # open_request_user_detail_request has a recipe, for bAbI only
        problem = ("pattern not applicable to smd: open_request_user_detail_request"
                   if pattern == "open_request_user_detail_request" else "unknown pattern")
        with pytest.raises(ParseError, match=f"^dialog 0: turn 0: {problem}"):
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

    def test_slot_annotations_preserved(self, smd_bytes, smd_corpus):
        # Turns carry no slots; the kept source turn objects hold every
        # annotation of the file, 454 slotted assistant turns among them.
        doc = json.loads(smd_bytes)
        kept = [[json.loads(raw) for raw in d.source_info[1]] for d in smd_corpus.dialogs]
        assert kept == [dialogue["dialogue"] for dialogue in doc]
        annotated = [t for turns in kept for t in turns
                     if t["turn"] == "assistant" and t["data"].get("slots")]
        assert len(annotated) == 454

    def test_user_turns_inherit_mentioned_slots(self, smd_corpus):
        # No driver turn of the fixture has slots of its own, so each of the
        # 449 slotted user turns inherits its one pair from a later assistant
        # turn of the same dialog whose value the user turn names.
        hits = 0
        for d in smd_corpus.dialogs:
            raws = [json.loads(raw) for raw in d.source_info[1]]
            assert not any(t["data"].get("slots") for t in raws if t["turn"] == "driver")
            for i, pairs in user_slots(d):
                assert d.turns[i].speaker.value == "user"
                for key, val in pairs:
                    assert any((t["data"].get("slots") or {}).get(key) == val
                               for t in raws[i + 1:] if t["turn"] == "assistant")
                    assert entities_in(d.turns[i].text, {normalize_entity(val)})
                    hits += 1
        assert hits == 449

    def test_user_slots_from_source_turns(self, smd_corpus):
        def turn(speaker, utterance, slots=None, injected=False):
            data = {"end_dialogue": False, "utterance": utterance}
            if slots:
                data["slots"] = slots
            obj = {"turn": speaker, "data": data}
            if injected:
                obj.update(injected=True, pattern="open_request_screening")
            return obj

        d = _dialogue(kb_items=[
            {"poi": "Chevron", "poi_type": "gas station", "address": "783 Arcadia Pl",
             "distance": "5 miles"},
            {"poi": "Valero", "poi_type": "gas station", "address": "200 Alester Ave"},
        ])
        d["dialogue"] = [
            # "5 miles" is in the KB and kept; "no traffic" is in neither the
            # utterance nor the KB, so it is dropped.
            turn("driver", "where is a gas station like chevron",
                 {"distance": "5 miles", "traffic_info": "no traffic"}),
            turn("assistant", "chevron and valero are gas stations"),
            turn("driver", "take me to the chevron gas station, not a parking garage",
                 {"poi_type": "parking garage"}),
            turn("assistant", "which one?"),
            # Injected turns' slots are not read, and they take no copy.
            turn("driver", "chevron please", {"poi": "chevron"}, injected=True),
            turn("assistant", "sure", injected=True),
            turn("driver", "yes"),
            # Each slot goes only to the nearest user turn that names its value,
            # turn 2: poi is copied, and turn 2 keeps its own poi_type, so
            # turn 0 gets neither.
            turn("assistant", "chevron is at 783 arcadia pl",
                 {"poi": "chevron", "poi_type": "gas station"}),
        ]
        parsed = parse_smd(_doc([d])).dialogs[0]
        assert list(user_slots(parsed)) == [
            (0, (("distance", "5 miles"),)),
            (2, (("poi_type", "parking garage"), ("poi", "chevron"))),
        ]
        # A dialog built in memory has no source turn objects, so no slots.
        assert list(user_slots(replace(parsed, source_info=()))) == []
        # On the full fixture, 449 user turns hold one slot each.
        assert [len(pairs) for d in smd_corpus.dialogs for _, pairs in user_slots(d)] == [1] * 449


class TestRoundTrip:
    def test_pristine_bytes_shortcut(self, smd_bytes, smd_corpus):
        assert serialize_corpus(smd_corpus) == smd_bytes

    def test_canonical_emission_matches_fixture(self, smd_bytes, smd_corpus):
        forced = replace(smd_corpus, source_bytes=b"")
        assert serialize_corpus(forced) == smd_bytes

    def test_model_round_trip_after_injection(self, small_smd_corpus):
        cfg = PlanConfig(
            targets={"capability_expansion": 6, "recipient_correction": 6},
            seed=5,
            histogram_targets=None,
        )
        updated = execute(small_smd_corpus, plan(small_smd_corpus, cfg))
        reparsed = parse_smd(serialize_corpus(updated))
        assert reparsed == replace(updated, source_bytes=b"")

    def test_injected_turns_carry_additive_fields(self, small_smd_corpus):
        cfg = PlanConfig(targets={"open_request_screening": 3}, seed=1,
                         histogram_targets=None)
        updated = execute(small_smd_corpus, plan(small_smd_corpus, cfg))
        doc = json.loads(serialize_corpus(updated))
        injected = [
            t for el in doc for t in el["dialogue"] if t.get("injected")
        ]
        assert len(injected) == 6
        assert all(t["pattern"] == "open_request_screening" for t in injected)
        # Original consumers still see ordinary turn objects.
        assert all("turn" in t and "data" in t and "utterance" in t["data"] for t in injected)


def _reference_doc(corpus, source_doc):
    """The dialogue objects of `corpus` as the SMD schema defines them: each
    source dialogue's turn objects and scenario, with an injected turn object
    at the place of every injected turn."""
    doc = []
    for d, el in zip(corpus.dialogs, source_doc):
        originals = iter(el["dialogue"])
        turns = [next(originals) if t.is_original else {
            "turn": "driver" if t.speaker.value == "user" else "assistant",
            "data": {"end_dialogue": False, "utterance": t.text},
            "injected": True,
            "pattern": t.injected_by,
        } for t in d.turns]
        doc.append({"dialogue": turns, "scenario": el["scenario"]})
    return doc


# Every kind of JSON value, and strings that need escapes or are not ASCII.
_ODD_SCENARIO = {
    "kb": {"items": None, "column_names": [], "kb_title": "caf\u00e9 \u2028 \"q\" \\ \n \t \U0001f697"},
    "task": {"intent": "weather"},
    "uuid": "\u00fc\u0000\u007f",
    "extra": [1, -2.5, 1e-07, 3e+100, True, False, None, {}, [], [[]], {"a": {"b": []}}],
}


class TestStreamedSave:
    @pytest.fixture(params=["forced-canonical", "injected", "empty", "one-dialogue", "non-ascii"])
    def case(self, request, smd_bytes, small_smd_corpus):
        """A corpus that is saved in canonical form, and its reference document."""
        if request.param == "forced-canonical":
            return replace(parse_smd(smd_bytes), source_bytes=b""), json.loads(smd_bytes)
        if request.param == "injected":
            cfg = PlanConfig(targets={"open_request_screening": 4, "capability_expansion": 4},
                             seed=2, histogram_targets=None)
            updated = execute(small_smd_corpus, plan(small_smd_corpus, cfg))
            assert not updated.is_pristine
            return updated, _reference_doc(updated, json.loads(small_smd_corpus.source_bytes))
        if request.param == "empty":
            return DialogCorpus(dialogs=(), source_format="smd"), []
        d = _dialogue(n_exchanges=2)
        if request.param == "non-ascii":
            d["scenario"] = _ODD_SCENARIO
            d["dialogue"][0]["data"]["utterance"] = "\u00bfd\u00f3nde est\u00e1 el caf\u00e9? \u2603"
            d["dialogue"][0]["data"]["slots"] = {"poi": "caf\u00e9"}
        doc = [d]
        return replace(parse_smd(_doc(doc)), source_bytes=b""), doc

    def test_chunks_are_the_indented_dump(self, case):
        corpus, doc = case
        expected = (json.dumps(doc, ensure_ascii=False, indent=2) + "\n").encode("utf-8")
        chunks = list(smd_chunks(corpus))
        assert b"".join(chunks) == expected
        assert len(chunks) == len(corpus.dialogs) + 1  # one per dialogue, and the close
        assert serialize_corpus(corpus) == expected

    def test_saved_file_is_the_indented_dump(self, case, tmp_path):
        corpus, doc = case
        assert save_corpus(corpus, tmp_path / "c.json") == [tmp_path / "c.json"]
        expected = (json.dumps(doc, ensure_ascii=False, indent=2) + "\n").encode("utf-8")
        assert (tmp_path / "c.json").read_bytes() == expected

    def test_pristine_corpus_is_one_chunk_of_its_source_bytes(self, smd_bytes, smd_corpus):
        assert list(corpus_chunks(smd_corpus)) == [smd_bytes]

    def test_save_holds_one_dialogue_at_a_time(self, smd_bytes, smd_corpus, tmp_path, traced):
        # A whole-document dump holds every dialogue object and every token of
        # the file at once, about ten times the file's size for the 304-dialog
        # fixture; one dialogue's objects and text are a few kilobytes.
        forced = replace(smd_corpus, source_bytes=b"")
        _, _, peak = traced(lambda: save_corpus(forced, tmp_path / "c.json"))
        assert (tmp_path / "c.json").read_bytes() == smd_bytes
        assert peak < len(smd_bytes) // 4


def _whole_file_parse(data: bytes) -> DialogCorpus:
    dialogs = tuple(smd._parse_dialogue(el, i, normalize_entity)
                    for i, el in enumerate(json.loads(data)))
    return DialogCorpus(dialogs=dialogs, source_format="smd",
                        global_entities=build_global_entities(dialogs), source_bytes=data)


class TestStreamedParse:
    @pytest.mark.parametrize("n_dialogs", [0, 1, 30, 304])
    def test_model_equals_the_whole_file_parse(self, n_dialogs, monkeypatch):
        data = make_smd_bytes(n_dialogs=n_dialogs) if n_dialogs else b" [\r\n\t] \n"
        reference = _whole_file_parse(data)
        # A well-formed file is never decoded whole.
        monkeypatch.setattr(json, "loads", lambda *a, **k: pytest.fail("json.loads called"))
        corpus = parse_smd(data)
        assert corpus == reference
        assert corpus.global_entities == reference.global_entities
        assert corpus.source_bytes is data

    def test_unusual_but_valid_layout_parses(self):
        els = [_dialogue(n_exchanges=1), _dialogue(domain="weather", n_exchanges=2)]
        data = ("\r\n [ \t" + " ,\n\r ".join(json.dumps(e) for e in els) + "\t]\r\n").encode()
        assert parse_smd(data) == parse_smd(_doc(els))

    @pytest.mark.parametrize("data", [
        b"",
        b"  \n",
        b"\xef\xbb\xbf[]",
        b"\x0c[]",
        b'{"dialogue": []}',
        b"3",
        b"[",
        b"[,]",
        b"[] []",
        b"[ ] x",
        b"[" * 100_000,
        b"[" + b"[" * 100_000 + b"]" * 100_000 + b"]",
        b'[1, {"a"',
    ], ids=["empty", "whitespace", "bom", "form-feed", "object", "number", "open", "lone-comma",
            "two-arrays", "trailing-data", "deep-open", "deep-nesting", "bad-dialogue-then-bad-json"])
    def test_malformed_file_gives_the_json_loads_message(self, data):
        self._assert_json_loads_message(data)

    @pytest.mark.parametrize("edit", [
        lambda b: b[: len(b) // 2],
        lambda b: b.replace(b"},\n  {", b"}\n  {", 1),
        lambda b: b.replace(b"},\n  {", b"},,{", 1),
        lambda b: b.rstrip()[:-1].rstrip() + b",]",
        lambda b: b + b"x",
        lambda b: b"\xef\xbb\xbf" + b,
    ], ids=["truncated", "missing-comma", "double-comma", "trailing-comma", "trailing-data", "bom"])
    def test_damaged_file_gives_the_json_loads_message(self, edit):
        self._assert_json_loads_message(edit(make_smd_bytes(n_dialogs=4)))

    @staticmethod
    def _assert_json_loads_message(data):
        try:
            doc = json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as e:
            expected = f"not valid SMD JSON: {e}"
        else:
            assert not isinstance(doc, list)
            expected = "SMD file must be a JSON array of dialogues"
        with pytest.raises(ParseError) as info:
            parse_smd(data)
        assert str(info.value) == expected

    def test_malformed_dialogue_in_valid_json_keeps_its_message(self):
        els = [_dialogue(), _dialogue(domain="flights")]
        with pytest.raises(ParseError, match=r"^dialog 1: unknown domain 'flights'$"):
            parse_smd(_doc(els))

    def test_parse_holds_one_dialogue_tree_at_a_time(self, smd_bytes, traced):
        # Beyond what the corpus keeps, the parse holds the decoded text (one
        # byte a character here) and one dialogue's objects. The whole-file
        # tree of the 304-dialog fixture is about three times the file's size.
        corpus, retained, peak = traced(lambda: parse_smd(smd_bytes))
        assert len(corpus.dialogs) == 304
        assert peak - retained < 2 * len(smd_bytes)

    def test_parse_keeps_one_string_per_distinct_kb_entity(self, smd_bytes, traced):
        # KB subjects, attributes and values recur across dialogues. Kept once
        # each, the corpus is 2.0-2.2 times the file's size on Python 3.10-3.13;
        # a fresh string per KB triple component takes it to 2.6-2.9 times.
        corpus, retained, _ = traced(lambda: parse_smd(smd_bytes))
        assert retained < 2.4 * len(smd_bytes)
        kb = [x for d in corpus.dialogs for fact in d.kb.entries for x in fact]
        assert len({id(x) for x in kb}) == len(set(kb))
