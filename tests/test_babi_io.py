import re
from dataclasses import replace

import pytest

from natvar.babi import (
    ParseError,
    parse_babi,
    serialize_origin_sidecar,
    slot_for_question,
    user_slots,
)
from natvar import cli
from natvar.io import load_corpus, serialize_corpus
from natvar.model import Dialog, DialogCorpus, Speaker, Turn, normalize_entity
from natvar.planner import PlanConfig, execute, plan
from natvar.recipes import RECIPES, find_anchors, inject
from natvar.synthetic import make_babi_bytes

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
        assert d.turns[5].text == "api_call french paris six cheap"
        # The api_call's four arguments, and only the request (turn 2) holds them.
        assert list(user_slots(d)) == [
            (2, (("cuisine", "french"), ("location", "paris"), ("number", "six"), ("price", "cheap"))),
        ]

    def test_injected_turns_neither_give_nor_take_slot_values(self):
        # Turns 3-6 are a misunderstanding_report block whose corrupted answer
        # (turn 3) reads like an api_call naming french before the original
        # api_call (turn 9) names italian; turn 6 restates turn 2.
        data = (b"1 hi\thello what can i help you with today\n"
                b"2 i love italian or french food in rome\tapi_call french rome two expensive\n"
                b"3 that is not what i asked for\tsorry could you repeat that\n"
                b"4 i love italian or french food in rome\ti'm on it\n"
                b"5 <silence>\tapi_call italian rome two expensive\n")
        sidecar = b"babi-0: " + b",".join(b"%d=misunderstanding_report" % i for i in range(3, 7))
        d = parse_babi(data, sidecar).dialogs[0]
        assert list(user_slots(d)) == [(2, (("cuisine", "italian"), ("location", "rome")))]
        # Read as all original, the first api_call's french comes first.
        pristine = parse_babi(data).dialogs[0]
        assert list(user_slots(pristine)) == [
            (2, (("cuisine", "french"), ("location", "rome"))),
            (6, (("cuisine", "french"), ("location", "rome"))),
        ]

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

    def test_sidecar_lines_end_only_at_lf_cr_or_crlf(self, inner_break, line_end):
        corpus = b"1 hi\thello\n\n1 hi\thello\n"
        sidecar = f"babi-0:{inner_break}1=open_request_screening{line_end}babi-1: 1=open_request_screening"
        c = parse_babi(corpus, sidecar.encode())
        assert [t.injected_by for d in c.dialogs for t in d.turns] == \
            [None, "open_request_screening", None, "open_request_screening"]
        pattern = f"bo{inner_break}gus"
        bad = f"babi-0: 1=open_request_screening{line_end}babi-1: 0={pattern}{line_end}"
        with pytest.raises(ParseError, match=re.escape(f"sidecar line 2: unknown pattern {pattern!r}")):
            parse_babi(corpus, bad.encode())

    def test_slot_question_detection(self):
        assert slot_for_question("any preference on a type of cuisine") == "cuisine"
        assert slot_for_question("where should it be") == "location"
        assert slot_for_question("great let me do the reservation") is None


class TestRoundTrip:
    def test_pristine_bytes_shortcut(self, babi_bytes, babi_corpus):
        assert serialize_corpus(babi_corpus) == babi_bytes

    def test_canonical_emission_matches_fixture(self, babi_bytes, babi_corpus):
        forced = replace(babi_corpus, source_bytes=b"")
        assert serialize_corpus(forced) == babi_bytes

    def test_model_round_trip_after_injection(self, small_babi_corpus):
        cfg = PlanConfig(
            targets={"open_request_screening": 5, "misunderstanding_report": 5},
            seed=3,
            max_patterns_per_dialog=5,
            histogram_targets=None,
        )
        updated = execute(small_babi_corpus, plan(small_babi_corpus, cfg))
        data = serialize_corpus(updated)
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
        data = serialize_corpus(updated)
        # The injected exchange adds a line, so the trailing facts are lines 9 and 10.
        assert data.endswith(b"\n9 resto_2 r_phone resto_2_phone\n10 resto_2 r_cuisine french\n")
        assert parse_babi(data, serialize_origin_sidecar(updated)) == updated

    def test_mixed_case_kb_fact_keeps_its_spelling_through_inject(self, capsys, tmp_path):
        # Task-5 files spell the attribute "R_phone"; the KB holds "r_phone",
        # and an updated file writes each fact line as its source did. The
        # second spelling is non-ASCII upper case, ending two tokens in a
        # final sigma.
        def facts(block: str) -> list[str]:
            return [line.split(" ", 1)[1] for line in block.split("\n") if line and "\t" not in line]

        for case, phone_fact in enumerate([rb"\1 \2 R_phone \3", r"\1 RESTO_ΑΣ R_Phone ΟΔΟΣ".encode()]):
            source = re.sub(rb"(?m)^(\d+) (\S+) r_phone (\S+)$", phone_fact, make_babi_bytes(n_dialogs=40))
            src, out = tmp_path / f"babi{case}.txt", tmp_path / f"updated{case}.txt"
            src.write_bytes(source)
            assert cli.main(["inject", "--input", str(src), "--format", "babi", "--preset",
                             "babi-table1", "--allow-shortfall", "--output", str(out)]) == 0
            updated = load_corpus(out, "babi")
            assert len(updated.updated_dialogs()) > 30
            assert sorted(facts(out.read_text("utf-8"))) == sorted(facts(source.decode()))
            assert any(" R_" in f for f in facts(source.decode()))
            assert [d.kb.entries for d in updated.dialogs] == [
                tuple(tuple(map(normalize_entity, f.split())) for f in facts(block))
                for block in source.decode().split("\n\n")]
            assert any(attr == "r_phone" for d in updated.dialogs for _, attr, _ in d.kb.entries)
            assert serialize_corpus(replace(updated, source_bytes=b"")) == out.read_bytes()

    def test_fact_after_an_injected_agent_turn_keeps_its_ordinal(self):
        # A fact is anchored by the original agent turns before it; the
        # injected pair on line 2 is not one, so the fact precedes original
        # agent turn 1 and is written back where it was.
        data = (b"1 hi\thello what can i help you with today\n"
                b"2 can you hear me\tyes i can\n"
                b"3 resto_1 R_phone resto_1_phone\n"
                b"4 <silence>\twhat do you think of this option: resto_1\n")
        sidecar = b"babi-0: 2=misunderstanding_report,3=misunderstanding_report\n"
        corpus = parse_babi(data, sidecar)
        assert corpus.dialogs[0].source_info == ((1,), (("resto_1", "R_phone", "resto_1_phone"),))
        assert corpus.dialogs[0].kb.entries == (("resto_1", "r_phone", "resto_1_phone"),)
        assert serialize_corpus(replace(corpus, source_bytes=b"")) == data
        assert serialize_origin_sidecar(corpus) == sidecar

    def test_dialog_built_in_memory_serializes_without_kb_lines(self):
        turns = (Turn(Speaker.USER, "hi"), Turn(Speaker.AGENT, "hello"))
        corpus = DialogCorpus(dialogs=(Dialog("babi-0", "restaurant", turns),), source_format="babi")
        assert serialize_corpus(corpus) == b"1 hi\thello\n"

    def test_renumbering_after_leading_injection(self):
        corpus = parse_babi(SIMPLE)
        d = corpus.dialogs[0]
        recipe = RECIPES["open_request_screening"]
        anchor = find_anchors(recipe, d, seed=0)[0]
        updated = inject(d, recipe, anchor, seed=0)
        out = serialize_corpus(
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
