import pytest
from dataclasses import replace

from natvar.babi import (
    ParseError,
    parse_babi,
    serialize_babi,
    serialize_origin_sidecar,
    slot_for_question,
)
from natvar.model import Speaker
from natvar.planner import PlanConfig, execute, plan
from natvar.recipes import RECIPES, find_anchors, inject

SIMPLE = (
    "1 hi\thello what can i help you with today\n"
    "2 may i have a table with french cuisine in paris for six people in a cheap price range\ti'm on it\n"
    "3 <silence>\tapi_call french paris six cheap\n"
    "4 resto_1 r_phone resto_1_phone\n"
    "5 resto_1 r_cuisine french\n"
    "6 <silence>\twhat do you think of this option: resto_1\n"
    "7 let's do it\tgreat let me do the reservation\n"
).encode()


class TestParse:
    def test_utterance_line_yields_two_turns(self):
        c = parse_babi(b"1 hi\thello what can i help you with today\n")
        d = c.dialogs[0]
        assert [(t.speaker, t.text) for t in d.turns] == [
            (Speaker.USER, "hi"),
            (Speaker.AGENT, "hello what can i help you with today"),
        ]

    def test_kb_line_goes_to_record(self):
        c = parse_babi(SIMPLE)
        d = c.dialogs[0]
        assert ("resto_1", "r_phone", "resto_1_phone") in d.kb.entries
        assert ("resto_1", "r_cuisine", "french") in d.kb.entries
        # KB lines are not turns: 5 utterance lines give 10 turns, and
        # neither KB line's text appears in any of them.
        assert len(d.turns) == 10
        assert not any("r_phone" in t.text or "r_cuisine" in t.text for t in d.turns)

    def test_full_fixture_has_1000_dialogs(self, babi_corpus):
        assert len(babi_corpus.dialogs) == 1000

    def test_api_call_slot_annotations(self):
        d = parse_babi(SIMPLE).dialogs[0]
        agent_api = d.turns[5]
        assert agent_api.text.startswith("api_call")
        assert agent_api.slots() == {
            "cuisine": "french", "location": "paris", "number": "six", "price": "cheap",
        }
        request = d.turns[2]
        assert request.slots() == {
            "cuisine": "french", "location": "paris", "number": "six", "price": "cheap",
        }

    def test_non_monotone_index_rejected(self):
        bad = b"1 hi\thello\n1 more\ttext\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_babi(bad)

    def test_repeated_body_still_gets_its_own_index_check(self):
        # Line 3 repeats line 1's body, which the parse has already read.
        bad = b"1 hi\thello\n2 yes\tok\n2 hi\thello\n"
        with pytest.raises(ParseError, match="line 3: non-monotone line index 2"):
            parse_babi(bad)

    def test_equal_turns_are_one_object_within_a_parse(self):
        a, b = parse_babi(SIMPLE + b"\n" + SIMPLE).dialogs
        assert a == replace(b, id=a.id)
        assert all(s is t for s, t in zip(a.turns, b.turns))

    def test_parses_share_no_turn(self):
        first, second = parse_babi(SIMPLE), parse_babi(SIMPLE)
        assert first == second
        seen = {id(t) for d in first.dialogs for t in d.turns}
        assert not any(id(t) in seen for d in second.dialogs for t in d.turns)

    def test_malformed_line_rejected(self):
        bad = b"1 hi\thello\n2 these are five separate tokens\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_babi(bad)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_crlf_and_lone_cr_parse_like_lf(self, newline):
        two = SIMPLE + b"\n" + SIMPLE
        assert parse_babi(two.replace(b"\n", newline)) == parse_babi(two)

    @pytest.mark.parametrize("gap", [b"\n \t\n", b"\n\n\n\n", b"\n\x0c\n\n\n"],
                             ids=["whitespace-only", "blank-run", "mixed-run"])
    def test_blank_and_whitespace_only_lines_separate_blocks(self, gap):
        expected = parse_babi(SIMPLE + b"\n" + SIMPLE).dialogs
        assert parse_babi(SIMPLE + gap + SIMPLE).dialogs == expected
        assert parse_babi(b"\n  \n" + SIMPLE + gap + SIMPLE + b"\n\n \n").dialogs == expected

    def test_file_without_final_newline_parses(self):
        assert parse_babi(SIMPLE.rstrip(b"\n")).dialogs == parse_babi(SIMPLE).dialogs
        assert parse_babi(b"").dialogs == ()

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_malformed_line_after_blank_runs_names_its_physical_line(self, newline):
        # A blank line, SIMPLE's 7 lines, 3 blank or whitespace-only lines and
        # a good line come first, so the malformed line is physical line 13.
        data = b"\n" + SIMPLE + b"\n \n\n1 hi\thello\n2 five separate tokens in here\n"
        with pytest.raises(ParseError, match="^line 13: not an utterance line"):
            parse_babi(data.replace(b"\n", newline))

    def test_dialog_ids_are_stable(self, babi_corpus):
        assert babi_corpus.dialogs[0].id == "babi-0"
        assert babi_corpus.dialogs[999].id == "babi-999"

    @pytest.mark.parametrize("sidecar, message", [
        (b"babi-7: 0=open_request_screening\n", "babi-7"),
        (b"babi-0: 5=open_request_screening\n", "turn 5 is out of range for babi-0"),
    ])
    def test_sidecar_outside_the_corpus_rejected(self, sidecar, message):
        # One dialog of two turns: neither babi-7 nor turn 5 of babi-0 exists.
        with pytest.raises(ParseError, match=message):
            parse_babi(b"1 hi\thello\n", sidecar)

    @pytest.mark.parametrize("sidecar, message", [
        (b"babi-0: 0=open_request_screening,1=open_request_screening\nbabi-0:\n",
         "sidecar line 2: dialog babi-0 is listed twice"),
        (b"babi-0: 1=open_request_screening,1=capability_expansion\n",
         "sidecar line 1: turn 1 is listed twice"),
        # The same item text twice: the second is read from the parse's memo.
        (b"babi-0: 1=open_request_screening,1=open_request_screening\n",
         "sidecar line 1: turn 1 is listed twice"),
        (b"babi-1: 1=open_request_screening\nbabi-0: 0=open_request_screening,"
         b"1=open_request_screening,1=open_request_screening\n",
         "sidecar line 2: turn 1 is listed twice"),
    ])
    def test_sidecar_repeats_rejected(self, sidecar, message):
        # A later line or mark must not silently replace an earlier one.
        with pytest.raises(ParseError, match=message):
            parse_babi(b"1 hi\thello\n", sidecar)

    @pytest.mark.parametrize("pattern", ["bogus", "", "Open_Request_Screening"])
    def test_sidecar_unknown_pattern_rejected(self, pattern):
        sidecar = f"babi-0: 1={pattern}\n".encode()
        with pytest.raises(ParseError, match=f"sidecar line 1: unknown pattern {pattern!r}"):
            parse_babi(b"1 hi\thello\n", sidecar)

    def test_slot_question_detection(self):
        assert slot_for_question("any preference on a type of cuisine") == "cuisine"
        assert slot_for_question("where should it be") == "location"
        assert slot_for_question("great let me do the reservation") is None


class TestRoundTrip:
    def test_pristine_bytes_shortcut(self, babi_bytes, babi_corpus):
        assert serialize_babi(babi_corpus) == babi_bytes

    def test_canonical_emission_matches_fixture(self, babi_bytes, babi_corpus):
        forced = replace(babi_corpus, source_bytes=b"")
        assert serialize_babi(forced) == babi_bytes

    def test_model_round_trip_after_injection(self, small_babi_corpus):
        cfg = PlanConfig(
            targets={"open_request_screening": 5, "misunderstanding_report": 5},
            seed=3,
            max_patterns_per_dialog=5,
            histogram_targets=None,
        )
        updated = execute(small_babi_corpus, plan(small_babi_corpus, cfg))
        data = serialize_babi(updated)
        sidecar = serialize_origin_sidecar(updated)
        reparsed = parse_babi(data, sidecar)
        assert reparsed == replace(updated, source_bytes=b"")

    def test_block_ending_in_kb_facts_round_trips_with_its_sidecar(self):
        source = SIMPLE + b"8 resto_2 r_phone resto_2_phone\n9 resto_2 r_cuisine french\n"
        corpus = parse_babi(source)
        d = corpus.dialogs[0]
        recipe = RECIPES["open_request_screening"]
        updated = replace(corpus, dialogs=(inject(d, recipe, find_anchors(recipe, d, seed=0)[0], seed=0),),
                          source_bytes=b"")
        data = serialize_babi(updated)
        # The injected exchange adds a line, so the trailing facts are lines 9 and 10.
        assert data.endswith(b"\n9 resto_2 r_phone resto_2_phone\n10 resto_2 r_cuisine french\n")
        assert parse_babi(data, serialize_origin_sidecar(updated)) == updated

    def test_renumbering_after_leading_injection(self):
        corpus = parse_babi(SIMPLE)
        d = corpus.dialogs[0]
        recipe = RECIPES["open_request_screening"]
        anchor = find_anchors(recipe, d, seed=0)[0]
        updated = inject(d, recipe, anchor, seed=0)
        out = serialize_babi(
            replace(corpus, dialogs=(updated,), source_bytes=b"")
        ).decode()
        lines = out.strip().split("\n")
        # Old line 1 ("hi ...") is now line 2 of the block... the injected
        # exchange occupies line 1.
        assert lines[0].startswith("1 ")
        assert "hi\thello what can i help you with today" in lines[1]
        assert lines[1].startswith("2 ")
        # KB facts keep their position before the option agent turn.
        kb_positions = [i for i, ln in enumerate(lines) if " r_phone " in ln or " r_cuisine " in ln]
        option_pos = next(i for i, ln in enumerate(lines) if "what do you think" in ln)
        assert all(p < option_pos for p in kb_positions)
        assert max(kb_positions) == option_pos - 1

    def test_sidecar_lists_injected_indices(self):
        corpus = parse_babi(SIMPLE)
        d = corpus.dialogs[0]
        recipe = RECIPES["open_request_screening"]
        anchor = find_anchors(recipe, d, seed=0)[0]
        updated = replace(corpus, dialogs=(inject(d, recipe, anchor, seed=0),), source_bytes=b"")
        sidecar = serialize_origin_sidecar(updated).decode()
        assert sidecar.startswith("babi-0: 0=open_request_screening,1=open_request_screening")
