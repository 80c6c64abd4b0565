import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natvar.manifest import EvalManifest, ManifestEntry, PredictionSet
from natvar.metrics import (
    MetricError,
    compare,
    corpus_bleu,
    entity_f1,
    render_comparison,
    response_accuracy,
)
from natvar.model import Dialog, DialogCorpus, KbRecord, Speaker, Turn


# --- independent BLEU oracle -------------------------------------------------

def oracle_bleu(pred_sents, gold_sents):
    """Brute-force corpus BLEU: explicit span scans, no Counter reuse."""
    def grams(tokens, n):
        return [" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]

    log_sum = 0.0
    c = sum(len(p.lower().split()) for p in pred_sents)
    r = sum(len(g.lower().split()) for g in gold_sents)
    for n in range(1, 5):
        match = 0
        total = 0
        for p, g in zip(pred_sents, gold_sents):
            pg = grams(p.lower().split(), n)
            gg = grams(g.lower().split(), n)
            total += len(pg)
            for gram in set(pg):
                match += min(pg.count(gram), gg.count(gram))
        if match == 0:
            return 0.0
        log_sum += math.log(match / total) / 4
    if c == 0:
        return 0.0
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return 100.0 * bp * math.exp(log_sum)


def _manifest_for(golds):
    entries = tuple(
        ManifestEntry(f"d{i}", 1, g) for i, g in enumerate(golds)
    )
    return EvalManifest(entries=entries, corpus_tag="test")


def _preds_for(manifest, preds):
    return PredictionSet(tuple(preds), manifest.digest())


def _score(preds, golds):
    m = _manifest_for(golds)
    return corpus_bleu(_preds_for(m, preds), m)


class TestCorpusBleu:
    def test_identity_is_100(self):
        golds = ["the cat sat on the mat today", "please find the nearest gas station"]
        assert _score(golds, golds) == pytest.approx(100.0)

    def test_all_empty_is_0(self):
        golds = ["the cat sat on the mat", "another long gold sentence here"]
        # Whitespace-only predictions tokenize to nothing.
        assert _score([" ", " "], golds) == 0.0

    def test_derived_two_sentence_fixture(self):
        preds = ["the cat sat", "a b c d"]
        golds = ["the cat sat down", "a b c d"]
        expected = oracle_bleu(preds, golds)
        got = _score(preds, golds)
        assert got == pytest.approx(expected, abs=1e-6)
        # All clipped precisions are 1; BP = exp(1 - 8/7).
        assert got == pytest.approx(100.0 * math.exp(1 - 8 / 7), abs=1e-6)

    def test_digest_mismatch(self):
        m = _manifest_for(["a b c"])
        other = _manifest_for(["x y z"])
        preds = _preds_for(other, ["a b c"])
        with pytest.raises(MetricError, match="digest"):
            corpus_bleu(preds, m)

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from("abcdefg"), min_size=0, max_size=9),
                st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=9),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_agrees_with_oracle(self, pairs):
        preds = [" ".join(p) if p else "" for p, _ in pairs]
        golds = [" ".join(g) for _, g in pairs]
        m = _manifest_for(golds)
        got = corpus_bleu(_preds_for(m, preds), m)
        assert got == pytest.approx(oracle_bleu(preds, golds), abs=1e-6)
        assert 0.0 <= got <= 100.0 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abcde"), min_size=4, max_size=10),
                    min_size=1, max_size=5))
    def test_self_bleu_100_with_long_segment(self, sents):
        golds = [" ".join(s) for s in sents]
        assert _score(golds, golds) == pytest.approx(100.0)


# --- entity F1 ---------------------------------------------------------------

def _corpus_with_lexicon(lexicon, n_dialogs=1):
    kb = KbRecord(entries=tuple(("subj", "attr", e) for e in sorted(lexicon)))
    dialogs = tuple(
        Dialog(
            id=f"d{i}",
            domain="navigate",
            turns=(Turn(Speaker.USER, "hi"), Turn(Speaker.AGENT, "hello")),
            kb=kb,
        )
        for i in range(n_dialogs)
    )
    return DialogCorpus(dialogs=dialogs, source_format="smd",
                        global_entities=frozenset(lexicon) | {"subj", "attr"})


def _f1(cases, lexicon, scope="global"):
    """cases: list of (gold_text, pred_text). Returns micro F1."""
    golds = [g for g, _ in cases]
    m = _manifest_for(golds)
    corpus = _corpus_with_lexicon(lexicon, n_dialogs=len(cases))
    preds = _preds_for(m, [p for _, p in cases])
    return entity_f1(preds, m, corpus, scope)


LEX = {"a", "b", "c", "d", "x_y"}

# Each row: (cases, expected F1) with TP/FP/FN done by hand.
F1_CASES = [
    ([("a here", "a here")], 1.0),                              # TP1 -> 1
    ([("a b", "a c")], 0.5),                                    # TP1 FP1 FN1
    ([("a b", "c d")], 0.0),                                    # TP0 FP2 FN2
    ([("a", "")], 0.0),                                         # FN1
    ([("nothing", "b"), ("b", "b")], 2 / 3),                    # FP1 + TP1
    ([("a b", "a b"), ("c", "c")], 1.0),                        # TP3
    ([("a b c", "a")], 0.5),                                    # TP1 FN2 -> 2/(2+2)
    ([("a", "a b c")], 0.5),                                    # TP1 FP2
    ([("go to x y", "x y is there")], 1.0),                     # multiword TP1
    ([("a a a", "a a")], 1.0),                                  # set semantics TP1
    ([("a b", "b a")], 1.0),                                    # order-free TP2
    ([("a b", "a"), ("c", "c d")], 2 / 3),                      # TP2 FP1 FN1 -> 4/6
    ([("A b", "a B")], 1.0),                                    # case folding TP2
    ([("a.", "a!")], 1.0),                                      # edge punctuation TP1
    ([("nothing here", "none either")], 0.0),                   # degenerate -> 0
    ([("nothing", "a b c d")], 0.0),                            # only FPs -> 0
    ([("a", "a"), ("b", "c")], 0.5),                            # TP1 FP1 FN1
    ([("a b c d", "a b c d")], 1.0),                            # TP4
    ([("a b c d", "a b")], 2 / 3),                              # TP2 FN2 -> 4/6
    ([("a", "a a a a")], 1.0),                                  # repeats collapse
    ([("x y b", "x y")], 2 / 3),                                # TP1 FN1 -> 2/3
    ([("a", "x y"), ("b", "b")], 0.5),                          # TP1 FP1 FN1
]


class TestEntityF1:
    @pytest.mark.parametrize("cases, expected", F1_CASES)
    def test_hand_computed(self, cases, expected):
        assert _f1(cases, LEX) == pytest.approx(expected)

    def test_degenerate_warns(self, capsys):
        golds = ["no entities"]
        m = _manifest_for(golds)
        corpus = _corpus_with_lexicon(LEX)
        preds = _preds_for(m, ["none"])
        got = entity_f1(preds, m, corpus)
        assert got == 0.0
        assert "no scoreable entities" in capsys.readouterr().err

    def test_empty_lexicon_rejected(self):
        m = _manifest_for(["a"])
        corpus = DialogCorpus(
            dialogs=(Dialog(id="d0", domain="navigate",
                            turns=(Turn(Speaker.USER, "hi"), Turn(Speaker.AGENT, "a"))),),
            source_format="smd",
        )
        with pytest.raises(MetricError, match="lexicon"):
            entity_f1(_preds_for(m, ["a"]), m, corpus)

    def test_adding_correct_entity_never_decreases(self):
        base = [("a b", "a"), ("c d", "c")]
        improved = [("a b", "a b"), ("c d", "c")]
        assert _f1(improved, LEX) >= _f1(base, LEX)

    @given(st.permutations(["a", "b", "c"]))
    def test_word_order_invariance_single_tokens(self, perm):
        reference = _f1([("a b c", "a b c")], LEX)
        assert _f1([("a b c", " ".join(perm))], LEX) == pytest.approx(reference)

    def test_dialog_scope(self):
        golds = ["a b"]
        m = _manifest_for(golds)
        corpus = _corpus_with_lexicon({"a"})  # dialog KB only knows "a"
        preds = _preds_for(m, ["a b"])
        # global lexicon includes subj/attr but also only "a" among tokens
        global_f1 = entity_f1(preds, m, corpus, "global")
        dialog_f1 = entity_f1(preds, m, corpus, "dialog")
        assert global_f1 == dialog_f1 == 1.0


# --- accuracy ----------------------------------------------------------------

def _acc(rows, n_dialogs=None):
    """rows: list of (dialog_id, gold, pred)."""
    entries = tuple(ManifestEntry(did, 1, gold) for did, gold, _ in rows)
    m = EvalManifest(entries=entries, corpus_tag="t")
    preds = PredictionSet(tuple(p for _, _, p in rows), m.digest())
    return response_accuracy(preds, m, n_dialogs)


class TestResponseAccuracy:
    def test_all_correct(self):
        per_r, per_d = _acc([("d0", "yes", "yes"), ("d1", "no", "no")])
        assert (per_r, per_d) == (1.0, 1.0)

    def test_derived_three_quarters(self):
        rows = [
            ("d0", "a", "a"), ("d0", "b", "b"),
            ("d1", "c", "c"), ("d1", "d", "wrong"),
        ]
        assert _acc(rows) == (0.75, 0.5)

    def test_normalization(self):
        per_r, _ = _acc([("d0", "Hello   There", "hello there")])
        assert per_r == 1.0

    def test_response_free_dialogs_count_correct(self):
        per_r, per_d = _acc([("d0", "a", "wrong")], n_dialogs=2)
        assert per_r == 0.0
        assert per_d == 0.5

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.booleans()),
            min_size=1,
            max_size=20,
        )
    )
    # Dialogs of unequal length: per-response 1/3, per-dialog 1/2.
    @example(rows=[(0, False), (0, False), (1, True)])
    # A dialog with only some responses right must not count as correct.
    @example(rows=[(0, True), (0, False)])
    def test_per_dialog_never_exceeds_per_response(self, rows):
        """Per-dialog accuracy may exceed per-response accuracy when dialogs
        hold different numbers of responses; what holds for any rows is that
        each failed dialog owns at least one wrong response, and that every
        dialog is correct exactly when every response is."""
        data = [
            (f"d{dialog}", "gold text", "gold text" if ok else "nope")
            for dialog, ok in rows
        ]
        per_r, per_d = _acc(data)
        n_rows = len(rows)
        n_dialogs = len({dialog for dialog, _ in rows})
        wrong_responses = n_rows - round(per_r * n_rows)
        failed_dialogs = n_dialogs - round(per_d * n_dialogs)
        assert failed_dialogs <= wrong_responses
        assert (per_d == 1.0) == (per_r == 1.0)


# --- comparison --------------------------------------------------------------

class TestCompare:
    def test_published_entity_f1_drop(self):
        deltas = compare({"bleu": 14.22, "entity_f1": 55.38},
                         {"bleu": 4.73, "entity_f1": 21.05})
        by_name = {d.metric: d for d in deltas}
        assert by_name["entity_f1"].relative_drop_pct == pytest.approx(62.0, abs=0.05)

    def test_identical_reports_zero_deltas(self):
        deltas = compare({"bleu": 10.0, "entity_f1": 0.5},
                         {"bleu": 10.0, "entity_f1": 0.5})
        assert all(d.absolute == 0 and d.relative_drop_pct == 0 for d in deltas)

    def test_per_dialog_drop(self):
        deltas = compare({"per_dialog_acc": 88.5}, {"per_dialog_acc": 12.7})
        assert deltas[0].relative_drop_pct == pytest.approx(85.65, abs=0.01)

    def test_render_contains_all_metrics(self):
        text = render_comparison(compare(
            {"bleu": 14.22, "entity_f1": 0.5538},
            {"bleu": 4.73, "entity_f1": 0.2105},
        ))
        assert "bleu" in text and "entity_f1" in text and "%" in text
