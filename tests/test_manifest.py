import pytest

from natvar.io import ParseError
from natvar.manifest import (
    export_manifest,
    parse_manifest,
    read_predictions,
    serialize_manifest,
)
from natvar.model import Dialog, DialogCorpus, Speaker, Turn
from natvar.planner import PlanConfig, execute, plan
from natvar.recipes import RECIPES, find_anchors, inject


def _corpus(*dialogs):
    return DialogCorpus(dialogs=tuple(dialogs), source_format="smd")


def _dialog(did="smd-0"):
    return Dialog(
        id=did,
        domain="navigate",
        turns=(
            Turn(Speaker.USER, "hi"),
            Turn(Speaker.AGENT, "hello"),
            Turn(Speaker.USER, "where is it"),
            Turn(Speaker.AGENT, "right here"),
            Turn(Speaker.USER, "thanks"),
            Turn(Speaker.AGENT, "welcome"),
        ),
    )


class TestExportManifest:
    def test_counts_agent_turns(self):
        m = export_manifest(_corpus(_dialog()))
        assert len(m.entries) == 3
        assert [e.gold_text for e in m.entries] == ["hello", "right here", "welcome"]

    def test_injection_does_not_add_entries(self):
        d = _dialog()
        recipe = RECIPES["open_request_screening"]
        anchor = find_anchors(recipe, d, seed=0)[0]
        updated = inject(d, recipe, anchor, seed=0)
        m = export_manifest(_corpus(updated))
        assert len(m.entries) == 3
        assert [e.gold_text for e in m.entries] == ["hello", "right here", "welcome"]

    def test_manifest_gold_sequence_invariant_under_plan(self, small_smd_corpus):
        cfg = PlanConfig(
            targets={"open_request_screening": 4, "capability_expansion": 4},
            seed=11,
            histogram_targets=None,
        )
        updated = execute(small_smd_corpus, plan(small_smd_corpus, cfg))
        before = [(e.dialog_id, e.gold_text) for e in export_manifest(small_smd_corpus).entries]
        after = [(e.dialog_id, e.gold_text) for e in export_manifest(updated).entries]
        assert before == after

    def test_entries_ordered_by_corpus_position(self):
        m = export_manifest(_corpus(_dialog("smd-0"), _dialog("smd-1")))
        assert [e.dialog_id for e in m.entries] == ["smd-0"] * 3 + ["smd-1"] * 3
        assert [e.turn_index for e in m.entries] == [1, 3, 5, 1, 3, 5]


class TestManifestSerialization:
    def test_round_trip(self):
        m = export_manifest(_corpus(_dialog()))
        assert parse_manifest(serialize_manifest(m)) == m

    def test_round_trip_of_a_gold_text_holding_a_unicode_line_break(self, inner_break):
        d = _dialog()
        turns = list(d.turns)
        turns[3] = Turn(Speaker.AGENT, f"right{inner_break}here")
        turns[4] = Turn(Speaker.USER, f"{inner_break}thanks{inner_break}")
        m = export_manifest(_corpus(Dialog(id=d.id, domain=d.domain, turns=tuple(turns))))
        assert m.entries[1].gold_text == f"right{inner_break}here"
        assert parse_manifest(serialize_manifest(m)) == m

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_lone_cr_parse_like_lf(self, newline):
        m = export_manifest(_corpus(_dialog("smd-0"), _dialog("smd-1")))
        data = serialize_manifest(m).decode().replace("\n", newline).encode()
        assert parse_manifest(data) == m

    def test_bad_line_is_named_by_its_number(self):
        data = b"# corpus_tag=smd:x\r\nsmd-0\t1\thello\r\n\r\nsmd-0\tthree\twelcome\r\n"
        with pytest.raises(ParseError, match="manifest line 4: turn index 'three' is not an integer"):
            parse_manifest(data)

    def test_parse_holds_no_list_of_lines(self, babi_corpus, traced):
        # Beyond the entries it keeps, the parse holds the decoded text and the
        # entry list, about 1.2 times the file's size. A list of every line as
        # well (11,634 for the 1,000-dialog fixture) takes it to about twice.
        data = serialize_manifest(export_manifest(babi_corpus))
        m, retained, peak = traced(lambda: parse_manifest(data))
        assert len(m.entries) == 11634
        assert peak - retained < 1.5 * len(data)

    def test_parse_keeps_one_string_per_distinct_id_and_text(self, babi_corpus, traced):
        # 1,000 dialog ids and 2,697 distinct gold texts among 11,634 entries:
        # the entries keep about 1.8 times the file's size on Python 3.10-3.13,
        # and a fresh id and text per entry takes them to 3.8-4.1 times.
        data = serialize_manifest(export_manifest(babi_corpus))
        m, retained, _ = traced(lambda: parse_manifest(data))
        assert retained < 2.5 * len(data)
        assert len({id(e.dialog_id) for e in m.entries}) == 1000
        assert len({id(e.gold_text) for e in m.entries}) == len({e.gold_text for e in m.entries}) == 2697

    def test_tab_separated_lines(self):
        text = serialize_manifest(export_manifest(_corpus(_dialog()))).decode()
        lines = text.strip().split("\n")
        assert lines[0].startswith("# corpus_tag=smd:")
        assert lines[1] == "smd-0\t1\thello"


class TestReadPredictions:
    def test_aligned(self):
        m = export_manifest(_corpus(_dialog()))
        preds = read_predictions(b"a\nb\nc\n", m)
        assert preds.responses == ("a", "b", "c")
        assert preds.manifest_digest == m.digest()

    def test_count_mismatch(self):
        m = export_manifest(_corpus(_dialog()))
        with pytest.raises(ParseError, match="expected 3 predictions, got 2"):
            read_predictions(b"a\nb\n", m)

    def test_lines_end_only_at_lf_cr_or_crlf(self, inner_break, line_end):
        m = export_manifest(_corpus(_dialog()))
        data = f"a{inner_break}b{line_end}c{line_end}d{line_end}".encode()
        assert read_predictions(data, m).responses == (f"a{inner_break}b", "c", "d")

    def test_empty_against_empty(self):
        empty = DialogCorpus(dialogs=(), source_format="smd")
        m = export_manifest(empty)
        assert read_predictions(b"", m).responses == ()

    def test_invalid_utf8_names_offset(self):
        m = export_manifest(_corpus(_dialog()))
        with pytest.raises(ParseError, match="byte 2"):
            read_predictions(b"ok\xff\nb\nc\n", m)
