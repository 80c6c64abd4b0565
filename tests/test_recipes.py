from dataclasses import replace

import pytest

from natvar.babi import parse_babi
from natvar.model import Dialog, DialogCorpus, KbRecord, Speaker, Turn
from natvar.recipes import (
    RECIPES,
    Anchor,
    InjectionError,
    find_anchors,
    inject,
    _fill,
    patterns_for_dataset,
)
from natvar import phrasebank
from natvar.phrasebank import variants


def _smd_dialog(did="smd-0"):
    kb = KbRecord(entries=(
        ("chevron", "poi_type", "gas_station"),
        ("chevron", "address", "783_arcadia_pl"),
        ("valero", "poi_type", "gas_station"),
        ("valero", "address", "200_alester_ave"),
    ))
    turns = (
        Turn(Speaker.USER, "where is the nearest gas station?"),
        Turn(Speaker.AGENT, "Do you want the closest one?"),
        Turn(Speaker.USER, "yes please"),
        Turn(Speaker.AGENT, "chevron is at 783 arcadia pl"),
    )
    return Dialog(id=did, domain="navigate", turns=turns, kb=kb)


class TestFindAnchors:
    def test_screening_anchors_at_start(self):
        anchors = find_anchors(RECIPES["open_request_screening"], _smd_dialog())
        assert len(anchors) == 1
        assert anchors[0].turn_index == 0

    def test_misunderstanding_needs_entity_bearing_agent_turn(self):
        d = Dialog(
            id="smd-1", domain="weather",
            turns=(Turn(Speaker.USER, "hello"), Turn(Speaker.AGENT, "hi there")),
            kb=KbRecord(entries=(("cleveland", "monday", "sunny"),)),
        )
        assert find_anchors(RECIPES["misunderstanding_report"], d) == []

    def test_misunderstanding_binds_corruption(self):
        anchors = find_anchors(RECIPES["misunderstanding_report"], _smd_dialog(), seed=1)
        assert len(anchors) == 1
        a = anchors[0]
        assert a.turn_index == 3
        bound = dict(a.bound)
        assert bound["prior_request"] == "yes please"
        assert bound["corrupted_answer"] != "chevron is at 783 arcadia pl"

    def test_other_correction_distractor_differs(self):
        babi = parse_babi(
            b"1 hi\thello what can i help you with today\n"
            b"2 may i have a table with italian cuisine\ti'm on it\n"
            b"3 <silence>\tapi_call italian paris six cheap\n"
        )
        d = babi.dialogs[0]
        anchors = find_anchors(RECIPES["other_correction"], d, seed=4)
        assert anchors
        bound = dict(anchors[0].bound)
        assert bound["value"] == "italian"
        assert bound["distractor"] != "italian"
        assert bound["distractor"] in {
            "british", "cantonese", "french", "indian", "japanese",
            "korean", "spanish", "thai", "vietnamese",
        }
        assert "italian" not in bound["slip_utterance"]

    def test_dataset_restriction_yields_no_anchors(self):
        assert find_anchors(RECIPES["example_request"], _make_babi_dialog()) == []
        assert find_anchors(RECIPES["recipient_correction"], _make_babi_dialog()) == []

    def test_anchor_ordering(self, smd_corpus):
        for d in smd_corpus.dialogs[:20]:
            for name in patterns_for_dataset("smd"):
                anchors = find_anchors(RECIPES[name], d, seed=0)
                idx = [a.turn_index for a in anchors]
                assert idx == sorted(idx)

    @pytest.mark.parametrize("fmt", ["babi", "smd"])
    def test_no_draw_decides_whether_an_anchor_exists(self, fmt, babi_corpus, smd_corpus):
        # The seed binds values only, so `plan`'s eligibility, which reads the
        # first anchor under the keyed generator, is the same for every seed.
        corpus = babi_corpus if fmt == "babi" else smd_corpus
        for name in patterns_for_dataset(fmt):
            for d in corpus.dialogs:
                positions = [[a.turn_index for a in find_anchors(RECIPES[name], d, seed)]
                             for seed in range(5)]
                assert positions == positions[:1] * 5, (name, d.id)


def _make_babi_dialog():
    return parse_babi(
        b"1 hi\thello what can i help you with today\n"
        b"2 may i have a table\ti'm on it\n"
        b"3 <silence>\tany preference on a type of cuisine\n"
        b"4 i love french food\tok let me look into some options for you\n"
        b"5 <silence>\tapi_call french paris six cheap\n"
    ).dialogs[0]


class TestInject:
    def test_screening_prepends_two_turns(self):
        d = _smd_dialog()
        recipe = RECIPES["open_request_screening"]
        anchor = find_anchors(recipe, d)[0]
        out = inject(d, recipe, anchor, seed=0)
        assert len(out.turns) == 6
        assert out.turns[0].injected_by == "open_request_screening"
        assert out.turns[0].speaker is Speaker.USER
        assert out.turns[1].injected_by == "open_request_screening"
        assert out.turns[1].speaker is Speaker.AGENT
        assert [t.text for t in out.turns[2:]] == [t.text for t in d.turns]

    def test_capability_expansion_adds_ten(self):
        d = _smd_dialog()
        recipe = RECIPES["capability_expansion"]
        anchor = find_anchors(recipe, d)[0]
        out = inject(d, recipe, anchor, seed=0)
        assert len(out.turns) == len(d.turns) + 10

    def test_double_application_rejected(self):
        d = _smd_dialog()
        recipe = RECIPES["open_request_screening"]
        anchor = find_anchors(recipe, d)[0]
        once = inject(d, recipe, anchor, seed=0)
        with pytest.raises(InjectionError, match="already applied"):
            inject(once, recipe, anchor, seed=0)

    def test_pure_function_of_inputs(self):
        d = _smd_dialog()
        for name in patterns_for_dataset("smd"):
            recipe = RECIPES[name]
            anchors = find_anchors(recipe, d, seed=9)
            if not anchors:
                continue
            a = inject(d, recipe, anchors[0], seed=9)
            b = inject(d, recipe, anchors[0], seed=9)
            assert a == b

    def test_seed_changes_surface_draws(self):
        d = _smd_dialog()
        recipe = RECIPES["recipient_correction"]
        anchors = find_anchors(recipe, d, seed=0)
        texts = {
            tuple(t.text for t in inject(d, recipe, anchors[0], seed=s).turns if t.injected_by)
            for s in range(8)
        }
        assert len(texts) > 1

    def test_invalid_anchor_rejected(self):
        d = _smd_dialog()
        recipe = RECIPES["misunderstanding_report"]
        with pytest.raises(InjectionError):
            inject(d, recipe, Anchor(0, (("corrupted_answer", "x"), ("prior_request", "y"))), seed=0)

    @pytest.mark.parametrize("name", list(RECIPES))
    def test_anchor_at_a_turn_of_the_wrong_speaker_rejected(self, name, small_smd_corpus,
                                                            small_babi_corpus):
        recipe = RECIPES[name]
        corpus = small_smd_corpus if "smd" in recipe.datasets else small_babi_corpus
        d, a = next((d, a) for d in corpus.dialogs for a in find_anchors(recipe, d))
        right = d.turns[a.turn_index].speaker
        wrong = [j for j, t in enumerate(d.turns) if t.speaker is not right]
        assert wrong
        for j in wrong:  # the anchor keeps its bindings, so only its turn can be at fault
            with pytest.raises(InjectionError):
                inject(d, recipe, replace(a, turn_index=j), seed=0)

    def test_missing_slot_named(self):
        d = _smd_dialog()
        recipe = RECIPES["open_request_screening"]
        with pytest.raises(InjectionError, match="intent"):
            inject(d, recipe, Anchor(0), seed=0)

    def test_originals_never_modified(self, smd_corpus):
        for d in smd_corpus.dialogs[:30]:
            originals = [t.text for t in d.turns]
            for name in patterns_for_dataset("smd"):
                recipe = RECIPES[name]
                anchors = find_anchors(recipe, d, seed=2)
                if not anchors:
                    continue
                out = inject(d, recipe, anchors[0], seed=2)
                assert [t.text for t in out.turns if t.is_original] == originals


class TestRealize:
    """Surface forms: `inject` fills one of the bank's variants per action."""

    def test_detail_request_canonical(self):
        form = variants("open_request_user_detail_request", "DETAIL-REQUEST", "restaurant")[0]
        assert _fill(form, {}) == "What are my choices?"

    def test_recipient_correction_canonical(self):
        form = variants("recipient_correction", "CORRECTION", "navigate")[0]
        assert _fill(form, {}) == "I'm not talking to you."

    def test_not_helped_closer_paper_forms(self):
        assert set(variants("sequence_closer_not_helped", "CLOSER", "weather")[:2]) \
            == {"too bad", "oh well"}

    def test_unsubstituted_slot_rejected(self):
        form = variants("open_request_screening", "PRE-REQUEST", "weather")[0]
        with pytest.raises(InjectionError, match="intent"):
            _fill(form, {})

    def test_slots_substituted(self):
        d = _smd_dialog()
        out = inject(d, RECIPES["open_request_screening"],
                     Anchor(0, (("intent", "the weather"),)), seed=0)
        forms = variants("open_request_screening", "PRE-REQUEST", "navigate")
        assert out.turns[0].text in {f.format(intent="the weather") for f in forms}
        assert _fill(variants("open_request_screening", "PRE-REQUEST", "weather")[0],
                     {"intent": "the weather"}) == "Can you help me with the weather?"


_DOMAINS = {"babi": ("restaurant",), "smd": ("navigate", "weather", "schedule")}


def test_shipped_phrase_bank_has_the_bank_shape():
    phrasebank.load_bank.cache_clear()  # load and check the file again
    bank = phrasebank.load_bank()  # raises PhraseBankError on a bad shape
    assert phrasebank._shape_problem(bank) is None
    assert set(bank) >= set(RECIPES)


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_every_template_action_has_fillable_forms(name):
    # Every lookup inject() can make finds forms, and each form is fully
    # substituted by the slots the template binds, so the bank can raise
    # neither PhraseBankError nor a slot error on any corpus.
    recipe = RECIPES[name]
    for t in recipe.template:
        slots = {s.rstrip("0123456789").rstrip("_"): "word" for s in t.slots}
        for domain in (dom for ds in sorted(recipe.datasets) for dom in _DOMAINS[ds]):
            forms = variants(name, t.action, domain)
            assert forms, (t.action, domain)
            for form in forms:
                text = form.format_map(slots)
                assert text.strip() and "{" not in text and "}" not in text, (t.action, form)


class TestLaws:
    def test_turn_count_and_subsequence_laws(self, small_smd_corpus, small_babi_corpus):
        cases = 0
        for corpus in (small_smd_corpus, small_babi_corpus):
            dataset = corpus.source_format
            for d in corpus.dialogs:
                for name in patterns_for_dataset(dataset):
                    recipe = RECIPES[name]
                    for anchor in find_anchors(recipe, d, seed=1)[:3]:
                        out = inject(d, recipe, anchor, seed=1)
                        assert len(out.turns) == len(d.turns) + len(recipe.template)
                        assert tuple(t for t in out.turns if t.is_original) == d.turns
                        cases += 1
        assert cases >= 200
