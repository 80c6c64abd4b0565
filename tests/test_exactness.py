"""The text hot paths and the metrics against the straightforward code they
replaced.

Each reference below is the earlier implementation, kept verbatim in
behaviour: the entity matcher that joins up to `max_span` tokens at every
start, the regular-expression entity normalizer, corpus BLEU with one
`Counter` per order built from slices, and the separate manifest walks of
entity F1 and response accuracy. The library forms must return the same
values, compared with `==`, also where the metric walk reuses the row of a
(prediction, gold, lexicon) key it has scored before.
"""

import math
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natvar import metrics
from natvar.manifest import EvalManifest, ManifestEntry, PredictionSet
from natvar.metrics import (
    ROW,
    corpus_bleu,
    dialog_stats,
    entity_f1,
    evaluate,
    finalize,
    response_accuracy,
)
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
    normalize_entity,
)


def reference_entity_spans(text, lexicon):
    """Greedy longest-first scan: at each start, try every join of up to
    the longest member's token count, longest first."""
    if not lexicon:
        return []
    toks = []
    for raw in text.lower().split():
        t = raw.strip(".,!?;:\"'()")
        toks.append(t if t else raw)
    max_len = max((e.count("_") + 1 for e in lexicon), default=1)
    spans = []
    i = 0
    n = len(toks)
    while i < n:
        hit = None
        for j in range(min(n, i + max_len), i, -1):
            cand = "_".join(toks[i:j])
            if cand in lexicon:
                hit = (i, j, cand)
                break
        if hit:
            spans.append(hit)
            i = hit[1]
        else:
            i += 1
    return spans


def reference_normalize_entity(s):
    if not s:
        raise ModelError("empty entity")
    out = re.sub(r"\s+", "_", s.strip().lower())
    if not out:
        raise ModelError("empty entity")
    return out


def reference_corpus_bleu(pred_sents, gold_sents):
    matches = [0] * 4
    totals = [0] * 4
    pred_len = 0
    gold_len = 0
    for pred, gold in zip(pred_sents, gold_sents):
        p = pred.lower().split()
        g = gold.lower().split()
        pred_len += len(p)
        gold_len += len(g)
        for n in range(1, 5):
            pgrams = Counter(tuple(p[i:i + n]) for i in range(len(p) - n + 1))
            ggrams = Counter(tuple(g[i:i + n]) for i in range(len(g) - n + 1))
            matches[n - 1] += sum(min(c, ggrams[gram]) for gram, c in pgrams.items())
            totals[n - 1] += max(0, len(p) - n + 1)
    if pred_len == 0 or any(m == 0 for m in matches):
        return 0.0
    log_precision = 0.0
    for m, t in zip(matches, totals):  # left to right: `sum` of floats is compensated from 3.12
        log_precision += math.log(m / t)
    bp = 1.0 if pred_len > gold_len else math.exp(1 - gold_len / pred_len)
    return 100.0 * bp * math.exp(log_precision / 4)


def reference_entity_f1(pred_sents, manifest, corpus, scope):
    lexicons = {d.id: d.entity_lexicon() for d in corpus.dialogs}
    tp = fp = fn = 0
    for pred, entry in zip(pred_sents, manifest.entries):
        lexicon = corpus.global_entities if scope == "global" else lexicons.get(entry.dialog_id)
        if not lexicon:
            continue
        gold_set = entities_in(entry.gold_text, lexicon)
        pred_set = entities_in(pred, lexicon)
        if gold_set:
            tp += len(gold_set & pred_set)
            fp += len(pred_set - gold_set)
            fn += len(gold_set - pred_set)
        else:
            fp += len(pred_set)
    if tp == 0 and fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def reference_response_accuracy(pred_sents, manifest, n_dialogs=None):
    def norm(text):
        return " ".join(text.lower().split())

    total = len(manifest.entries)
    correct = 0
    dialog_ok = {}
    for pred, entry in zip(pred_sents, manifest.entries):
        ok = norm(pred) == norm(entry.gold_text)
        correct += ok
        dialog_ok[entry.dialog_id] = dialog_ok.get(entry.dialog_id, True) and ok
    in_manifest = len(dialog_ok)
    denom = max(n_dialogs or in_manifest, in_manifest)
    ok_dialogs = sum(dialog_ok.values()) + (denom - in_manifest)
    return (correct / total if total else 1.0), (ok_dialogs / denom if denom else 1.0)


# --- entity spans ---------------------------------------------------------------

# Members that are prefixes of other members, a member whose tokens carry
# `_` themselves, and members that start or end at a `_`.
_WORDS = ["san", "francisco", "bay", "a", "b", "b_c", "c", "_", "x_", "the"]
_MEMBERS = ["san", "san_francisco", "san_francisco_bay", "francisco_bay", "a_b_c",
            "a_b", "b_c", "a__", "x__", "c_the_c", "bay_a", "the_san"]


@st.composite
def _texts(draw):
    words = draw(st.lists(st.sampled_from(_WORDS), max_size=12))
    out = []
    for w in words:
        w = draw(st.sampled_from([w, w.upper(), w.title()]))
        out.append(draw(st.sampled_from(["", "(", "'"])) + w
                   + draw(st.sampled_from(["", ".", ",", "?!", ")"])))
    return " ".join(out)


class TestEntitySpansExact:
    @settings(max_examples=100)
    @given(_texts(), st.sets(st.sampled_from(_MEMBERS)))
    @example("San Francisco Bay, san francisco. bay", {"san", "san_francisco_bay", "francisco_bay"})
    @example("san francisco bay", {"san_francisco", "san_francisco_bay"})
    @example("a b_c c the c", {"a_b_c", "b_c", "c_the_c"})
    @example("x _ _ x", {"x__", "x"})
    @example("a a a a a a a", {"a_a_a"})
    def test_same_span_list(self, text, members):
        expected = reference_entity_spans(text, members)
        assert entity_spans(text, members) == expected
        assert entity_spans(text, Lexicon(members)) == expected

    def test_corpus_lexicon(self, babi_corpus):
        lexicon = babi_corpus.global_entities
        for d in babi_corpus.dialogs[:10]:
            for t in d.turns:
                assert entity_spans(t.text, lexicon) == reference_entity_spans(t.text, lexicon)


# --- normalize_entity -----------------------------------------------------------

class TestNormalizeEntityExact:
    @given(st.text())
    @example("a b\x1c c　d\x85")
    @example(" \t\n")
    def test_same_as_regex_form(self, s):
        try:
            expected = reference_normalize_entity(s)
        except ModelError:
            with pytest.raises(ModelError, match="empty entity"):
                normalize_entity(s)
        else:
            assert normalize_entity(s) == expected


# --- corpus BLEU ----------------------------------------------------------------

def _bleu(preds, golds):
    manifest = EvalManifest(tuple(ManifestEntry(f"d{i}", 1, g) for i, g in enumerate(golds)), "t")
    return corpus_bleu(PredictionSet(tuple(preds), manifest.digest()), manifest)


_sentences = st.lists(st.sampled_from(["a", "b", "c", "A", "d"]), max_size=7).map(" ".join)


@st.composite
def _pairs(draw):
    golds = draw(st.lists(_sentences, min_size=1, max_size=6))
    preds = [g if draw(st.booleans()) else draw(_sentences) for g in golds]
    return preds, golds


class TestCorpusBleuExact:
    @settings(max_examples=100)
    @given(_pairs())
    @example((["a b c d e", "a b"], ["a b c d e", "a b"]))
    @example((["a b c", "d"], ["a b c", "c d"]))
    @example((["a a a a", "b"], ["a a", "b"]))
    # Every order has a match and a predicted n-gram beyond the gold's count.
    @example((["a b c d a b c d", "a b c d a b c d"], ["a b c d e", "a b c d e"]))
    def test_same_as_counter_form(self, pair):
        preds, golds = pair
        assert _bleu(preds, golds) == reference_corpus_bleu(preds, golds)


# --- the shared metric walk -----------------------------------------------------

_ENTITIES = ["a", "b", "x_y"]
_METRIC_WORDS = ["a", "b", "x", "y", "A", "c", "b."]
_metric_sentences = st.lists(st.sampled_from(_METRIC_WORDS), max_size=6).map(" ".join)


@st.composite
def _evaluations(draw):
    """(corpus, manifest, predictions): dialogs d0-d3 with KB lexicons, some
    empty; manifest entries may name d4-d5, which the corpus lacks."""
    dialogs = []
    for i in range(draw(st.integers(1, 4))):
        kb = draw(st.sets(st.sampled_from(_ENTITIES)))
        dialogs.append(Dialog(id=f"d{i}", domain="navigate",
                              turns=(Turn(Speaker.USER, "hi"), Turn(Speaker.AGENT, "ok")),
                              kb=KbRecord(entries=tuple((e, "is", e) for e in sorted(kb)))))
    corpus = DialogCorpus(dialogs=tuple(dialogs), source_format="smd",
                          global_entities=frozenset(draw(st.sets(st.sampled_from(_ENTITIES),
                                                                 min_size=1))))
    rows = draw(st.lists(st.tuples(st.integers(0, 5), _metric_sentences), max_size=10))
    manifest = EvalManifest(tuple(ManifestEntry(f"d{d}", 1, g) for d, g in rows), "t")
    preds = [g if draw(st.booleans()) else draw(st.sampled_from(["", draw(_metric_sentences)]))
             for _, g in rows]
    return corpus, manifest, preds


@st.composite
def _repeated_evaluations(draw):
    """`_evaluations` whose manifest is redrawn from its own (gold,
    prediction) pairs into random dialogs, so pairs repeat within and across
    dialogs, and across dialogs with different KB lexicons."""
    corpus, manifest, preds = draw(_evaluations())
    pairs = [(e.gold_text, p) for e, p in zip(manifest.entries, preds)]
    if not pairs:
        return corpus, manifest, preds
    rows = draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(pairs)), max_size=12))
    manifest = EvalManifest(tuple(ManifestEntry(f"d{d}", 1, g) for d, (g, _) in rows), "t")
    return corpus, manifest, [p for _, (_, p) in rows]


def _assert_same_as_separate_walks(corpus, manifest, preds, scope, n_dialogs):
    ps = PredictionSet(tuple(preds), manifest.digest())
    golds = [e.gold_text for e in manifest.entries]
    bleu = reference_corpus_bleu(preds, golds)
    f1 = reference_entity_f1(preds, manifest, corpus, scope)
    assert corpus_bleu(ps, manifest) == bleu
    assert entity_f1(ps, manifest, corpus, scope) == f1
    for n in (None, n_dialogs):
        assert response_accuracy(ps, manifest, n) == reference_response_accuracy(
            preds, manifest, n)
    report = evaluate(ps, manifest, corpus, scope)
    assert (report.bleu, report.entity_f1, report.per_response_acc, report.per_dialog_acc) \
        == (bleu, f1, *reference_response_accuracy(preds, manifest, len(corpus.dialogs)))


class TestMetricWalkExact:
    @settings(max_examples=150, deadline=None)
    @given(_evaluations(), st.sampled_from(["global", "dialog"]), st.integers(0, 8))
    @example((DialogCorpus(dialogs=(), source_format="smd", global_entities=frozenset({"a"})),
              EvalManifest((), "t"), []), "global", 3)
    def test_same_as_separate_walks(self, evaluation, scope, n_dialogs):
        _assert_same_as_separate_walks(*evaluation, scope, n_dialogs)

    @settings(max_examples=150, deadline=None)
    @given(_repeated_evaluations(), st.sampled_from(["global", "dialog"]), st.integers(0, 8))
    def test_repeated_pairs_same_as_separate_walks(self, evaluation, scope, n_dialogs):
        _assert_same_as_separate_walks(*evaluation, scope, n_dialogs)

    @settings(max_examples=100, deadline=None)
    @given(_evaluations(), st.lists(st.integers(0, 2), min_size=6, max_size=6))
    def test_partition_rows_sum_to_the_aggregate(self, evaluation, part_of):
        corpus, manifest, preds = evaluation
        ps = PredictionSet(tuple(preds), manifest.digest())
        lexicon_of = lambda did: corpus.global_entities
        rows = dialog_stats(ps, manifest, lexicon_of)
        sums = []
        for k in range(3):
            keep = [i for i, e in enumerate(manifest.entries) if part_of[int(e.dialog_id[1:])] == k]
            part = EvalManifest(tuple(manifest.entries[i] for i in keep), "t")
            part_rows = dialog_stats(PredictionSet(tuple(preds[i] for i in keep), part.digest()),
                                     part, lexicon_of)
            # A dialog's row does not depend on the other dialogs' entries.
            assert part_rows == {did: r for did, r in rows.items()
                                 if part_of[int(did[1:])] == k}
            sums.append([sum(column) for column in zip(*part_rows.values())] or [0] * len(ROW))
        total = [sum(column) for column in zip(*rows.values())] or [0] * len(ROW)
        assert [sum(column) for column in zip(*sums)] == total
        assert finalize(sums) == finalize([total]) == finalize(rows.values())


# --- entry rows: one per distinct (prediction, gold, lexicon) key ---------------

def _kb_dialog(dialog_id, entities):
    return Dialog(id=dialog_id, domain="navigate",
                  turns=(Turn(Speaker.USER, "hi"), Turn(Speaker.AGENT, "ok")),
                  kb=KbRecord(entries=tuple((e, "is", e) for e in sorted(entities))))


class TestEntryRowsExact:
    """d0 and d1 have equal KB lexicons and d2 a different one. The pair
    ("a x a", "a b b") repeats within d0 and across all three dialogs; under
    d2's lexicon it scores a miss, under the others a hit. "a b c d a b c d"
    repeats an n-gram of every order beyond its gold's count."""

    CORPUS = DialogCorpus(
        dialogs=(_kb_dialog("d0", {"a"}), _kb_dialog("d1", {"a"}), _kb_dialog("d2", {"b", "x"})),
        source_format="smd", global_entities=frozenset({"a", "b"}))
    ENTRIES = (("d0", "a b b", "a x a"), ("d0", "a b b", "a x a"), ("d1", "a b b", "a x a"),
               ("d2", "a b b", "a x a"), ("d2", "c", "c"), ("d0", "a b c d e", "a b c d a b c d"),
               ("d1", "a b c d e", "a b c d a b c d"), ("d1", "a b b", "a x a"))

    @staticmethod
    def _inputs(entries):
        manifest = EvalManifest(tuple(ManifestEntry(d, 1, g) for d, g, _ in entries), "t")
        return manifest, [p for _, _, p in entries]

    @pytest.mark.parametrize("scope", ["global", "dialog"])
    def test_same_as_separate_walks(self, scope):
        _assert_same_as_separate_walks(self.CORPUS, *self._inputs(self.ENTRIES), scope, 3)

    @pytest.mark.parametrize("scope", ["global", "dialog"])
    def test_each_dialog_row_same_as_its_own_walk(self, scope):
        lexicons = {d.id: d.entity_lexicon() for d in self.CORPUS.dialogs}
        lexicon_of = lexicons.get if scope == "dialog" else lambda _: self.CORPUS.global_entities
        manifest, preds = self._inputs(self.ENTRIES)
        rows = dialog_stats(PredictionSet(tuple(preds), manifest.digest()), manifest, lexicon_of)
        assert list(rows) == ["d0", "d1", "d2"]
        for dialog_id, row in rows.items():
            part, part_preds = self._inputs([e for e in self.ENTRIES if e[0] == dialog_id])
            bleu, f1, per_response, per_dialog = finalize([row])
            assert bleu == reference_corpus_bleu(part_preds, [e.gold_text for e in part.entries])
            assert f1 == reference_entity_f1(part_preds, part, self.CORPUS, scope)
            assert (per_response, per_dialog) == reference_response_accuracy(part_preds, part)
            assert (row[ROW.index("dialogs")], row[ROW.index("responses")]) == (1, len(part.entries))

    def test_each_distinct_key_scored_once(self, monkeypatch):
        keys = []
        entry_row = metrics._entry_row
        monkeypatch.setattr(metrics, "_entry_row", lambda *key: keys.append(key) or entry_row(*key))
        manifest, preds = self._inputs(self.ENTRIES)
        evaluate(PredictionSet(tuple(preds), manifest.digest()), manifest, self.CORPUS, "dialog")
        # d0 and d1 share rows (equal lexicons, distinct objects); d2 does not.
        assert [(p, g, sorted(lexicon)) for p, g, lexicon in keys] == [
            ("a x a", "a b b", ["a"]), ("a x a", "a b b", ["b", "x"]), ("c", "c", ["b", "x"]),
            ("a b c d a b c d", "a b c d e", ["a"])]
