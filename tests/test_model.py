import pytest
from hypothesis import given
from hypothesis import strategies as st

from natvar.model import (
    Dialog,
    DialogCorpus,
    KbRecord,
    Lexicon,
    ModelError,
    Speaker,
    Turn,
    entities_in,
    entity_spans,
    mean_utterances,
    normalize_entity,
)


def brute_force_entities(text, lexicon):
    """Independent oracle: scan every token span, longest match first,
    consuming matched tokens so spans never overlap."""
    toks = []
    for raw in text.lower().split():
        t = raw.strip(".,!?;:\"'()")
        toks.append(t if t else raw)
    consumed = [False] * len(toks)
    found = set()
    max_len = max((e.count("_") + 1 for e in lexicon), default=1)
    for width in range(max_len, 0, -1):
        for i in range(0, len(toks) - width + 1):
            if any(consumed[i:i + width]):
                continue
            cand = "_".join(toks[i:i + width])
            if cand in lexicon:
                found.add(cand)
                for j in range(i, i + width):
                    consumed[j] = True
    return found


class TestNormalizeEntity:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("Dish Parking", "dish_parking"),
            ("dish_parking", "dish_parking"),
            ("  783 Arcadia Pl ", "783_arcadia_pl"),
            ("Chevron", "chevron"),
            ("TWO  WORDS", "two_words"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_entity(raw) == expected

    def test_empty_rejected(self):
        with pytest.raises(ModelError, match="empty entity"):
            normalize_entity("")

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    def test_idempotent(self, s):
        once = normalize_entity(s)
        assert normalize_entity(once) == once


class TestEntitiesIn:
    def test_no_match(self):
        assert entities_in("thanks", {"chevron"}) == set()

    def test_multiword_and_single(self):
        lex = {"chevron", "783_arcadia_pl"}
        got = entities_in("chevron is at 783 arcadia pl", lex)
        assert got == brute_force_entities("chevron is at 783 arcadia pl", lex)
        assert got == {"chevron", "783_arcadia_pl"}

    def test_set_semantics(self):
        assert entities_in("gas station chevron chevron", {"chevron"}) == {"chevron"}

    def test_longest_match_wins(self):
        lex = {"san", "san_francisco"}
        assert entities_in("weather in san francisco", lex) == {"san_francisco"}

    def test_edge_punctuation(self):
        assert entities_in("It's at Chevron.", {"chevron"}) == {"chevron"}

    @pytest.mark.parametrize(
        "text",
        [
            "chevron at 783 arcadia pl near valero",
            "no entities here at all",
            "san francisco san san francisco",
            "the dish parking dish parking lot",
            "783 arcadia pl 783 arcadia",
        ],
    )
    def test_matches_brute_force(self, text):
        lex = {"chevron", "valero", "783_arcadia_pl", "san_francisco", "san",
               "dish_parking", "783_arcadia"}
        assert entities_in(text, lex) == brute_force_entities(text, lex)
        assert entities_in(text, Lexicon(lex)) == brute_force_entities(text, lex)

    @given(
        st.lists(st.sampled_from(["alpha", "beta", "gamma delta", "x"]), max_size=8),
        st.sets(st.sampled_from(["alpha", "beta", "gamma_delta", "epsilon"]), min_size=1),
    )
    def test_subset_of_lexicon(self, words, lexicon):
        text = " ".join(words) or "placeholder"
        assert entities_in(text, lexicon) <= lexicon


class TestLexicon:
    def test_prefixes_end_before_an_underscore(self):
        assert Lexicon({"chevron", "783_arcadia_pl", "san_francisco"}).prefixes == {
            "783", "783_arcadia", "san"}
        assert Lexicon().prefixes == frozenset()

    def test_equals_frozenset(self):
        lex = Lexicon({"a", "b_c"})
        assert lex == frozenset({"a", "b_c"}) and hash(lex) == hash(frozenset({"a", "b_c"}))

    def test_corpus_lexicons_carry_their_bound(self, smd_corpus, babi_corpus):
        for corpus in (smd_corpus, babi_corpus):
            for lex in (corpus.global_entities, corpus.dialogs[0].entity_lexicon()):
                assert isinstance(lex, Lexicon)
                assert lex.prefixes == {e[:k] for e in lex for k, c in enumerate(e) if c == "_"}
        built = DialogCorpus(dialogs=(), source_format="smd", global_entities=frozenset({"x_y"}))
        assert isinstance(built.global_entities, Lexicon) and built.global_entities.prefixes == {"x"}


def _dialog(*speakers_texts, domain="navigate"):
    turns = tuple(Turn(s, t) for s, t in speakers_texts)
    return Dialog(id="d0", domain=domain, turns=turns)


class TestDialogInvariants:
    # Every turn is one utterance.
    def test_utterance_count_empty(self):
        assert mean_utterances(DialogCorpus(dialogs=(_dialog(),), source_format="smd")) == 0

    def test_utterance_count_three_exchanges(self):
        d = _dialog(*[(Speaker.USER, "u"), (Speaker.AGENT, "a")] * 3)
        assert mean_utterances(DialogCorpus(dialogs=(d,), source_format="smd")) == 6

    def test_must_start_with_user(self):
        with pytest.raises(ModelError):
            _dialog((Speaker.AGENT, "hello"))

    def test_no_consecutive_speakers(self):
        with pytest.raises(ModelError):
            _dialog((Speaker.USER, "a"), (Speaker.USER, "b"))

    def test_original_subsequence_must_alternate(self):
        turns = (
            Turn(Speaker.USER, "u"),
            Turn(Speaker.AGENT, "a", injected_by="open_request_screening"),
            Turn(Speaker.USER, "u2"),
        )
        with pytest.raises(ModelError):
            Dialog(id="d1", domain="weather", turns=turns)

    def test_turn_rejects_linebreaks(self):
        with pytest.raises(ModelError):
            Turn(Speaker.USER, "two\nlines")

    def test_turn_rejects_empty(self):
        with pytest.raises(ModelError):
            Turn(Speaker.USER, "")

    def test_applied_patterns_tracks_injections(self):
        d = Dialog(
            id="d2",
            domain="weather",
            turns=(
                Turn(Speaker.USER, "pre", injected_by="open_request_screening"),
                Turn(Speaker.AGENT, "go", injected_by="open_request_screening"),
                Turn(Speaker.USER, "hi"),
                Turn(Speaker.AGENT, "hello"),
            ),
        )
        assert d.applied_patterns == {"open_request_screening"}
        assert [t.text for t in d.turns if t.is_original] == ["hi", "hello"]

    def test_unknown_domain(self):
        with pytest.raises(ModelError):
            _dialog((Speaker.USER, "hi"), domain="flights")


class TestCorpusLevel:
    def test_alternation_on_fixture_corpora(self, smd_corpus, babi_corpus):
        for corpus in (smd_corpus, babi_corpus):
            for d in corpus.dialogs:
                assert d.turns[0].speaker is Speaker.USER
                for a, b in zip(d.turns, d.turns[1:]):
                    assert a.speaker is not b.speaker

    def test_global_entities_closed_under_normalize(self, smd_corpus, babi_corpus):
        for corpus in (smd_corpus, babi_corpus):
            for e in corpus.global_entities:
                assert normalize_entity(e) == e

    def test_smd_mean_utterances(self, smd_corpus):
        total = sum(len(d.turns) for d in smd_corpus.dialogs)
        assert len(smd_corpus.dialogs) == 304
        assert abs(total / 304 - 5.35) <= 0.01

    def test_kb_helpers(self):
        kb = KbRecord(entries=(("a", "color", "red"), ("b", "color", "blue"),
                               ("a", "size", "big")))
        assert kb.values_for("color") == ["red", "blue"]
        assert kb.attributes_of("red") == ["color"]
        assert kb.attributes_of("a") == ["subject"]
        assert kb.subjects() == ["a", "b"]

    def test_entity_spans_positions(self):
        spans = entity_spans("go to dish parking now", {"dish_parking"})
        assert spans == [(2, 4, "dish_parking")]
