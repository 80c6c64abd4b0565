import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natvar.baseline import (
    BaselineError,
    CandidateSet,
    TfIdfScorer,
    candidates_from_corpus,
    load_candidates,
    predict,
)
from natvar.manifest import export_manifest
from natvar.model import Dialog, DialogCorpus, Speaker, Turn


def _history(*texts):
    out = []
    for i, t in enumerate(texts):
        out.append(Turn(Speaker.USER if i % 2 == 0 else Speaker.AGENT, t))
    return out


class TestLoadCandidates:
    def test_strips_babi_numbering(self):
        cs = load_candidates(b"1 hello there\n1 what can i do\n")
        assert cs.responses == ("hello there", "what can i do")

    def test_strips_multi_digit_numbering(self):
        cs = load_candidates(b"9 a b\n10 c d\n\n 11 e \n")
        assert cs.responses == ("a b", "c d", "e")

    def test_spaces_after_the_number_are_stripped(self):
        # Both lines name one candidate; the first must not keep a leading space.
        assert load_candidates(b"1  hello\n2 hello\n").responses == ("hello",)

    @pytest.mark.parametrize("data, expected", [
        # A real leading number in an unnumbered file.
        (b"7 pm works for me\nsee you then\n", ("7 pm works for me", "see you then")),
        # `str.isdigit` accepts a superscript; the numbering is ASCII only.
        ("\u00b2 x\n\u00b3 y\n".encode(), ("\u00b2 x", "\u00b3 y")),
        # One line without a number: the file is not numbered.
        (b"1 hello there\nhow are you\n", ("1 hello there", "how are you")),
        (b"12\n13\n", ("12", "13")),
    ])
    def test_unnumbered_file_kept_verbatim(self, data, expected):
        assert load_candidates(data).responses == expected

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_lines_end_only_at_lf_cr_or_crlf(self, brk):
        # bAbI turns end at "\n" only, so a response may hold any other line
        # break; it stays one candidate and the file stays numbered.
        data = f"1 resto{brk}x\r\n2 bye\r3 ok\n".encode()
        assert load_candidates(data).responses == (f"resto{brk}x", "bye", "ok")

    def test_dedup_keeps_first(self):
        cs = load_candidates(b"a b\nc d\na b\n")
        assert cs.responses == ("a b", "c d")

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            load_candidates(b"\n\n")


class TestScore:
    def test_disjoint_vocabulary_scores_zero(self):
        scorer = TfIdfScorer(CandidateSet(("alpha beta", "gamma delta")))
        assert scorer.score(_history("completely different words"), 0) == 0.0

    def test_identical_candidate_dominates_disjoint(self):
        scorer = TfIdfScorer(CandidateSet(("find the nearest gas station", "zz qq")))
        h = _history("find the nearest gas station")
        assert scorer.score(h, 0) >= scorer.score(h, 1)
        assert scorer.score(h, 1) == 0.0

    def test_empty_history_rejected(self):
        scorer = TfIdfScorer(CandidateSet(("a",)))
        with pytest.raises(BaselineError):
            scorer.score([], 0)

    def test_ranking_matches_brute_force(self):
        candidates = CandidateSet((
            "the weather is sunny today",
            "your dentist appointment is monday",
            "chevron is the nearest gas station",
        ))
        scorer = TfIdfScorer(candidates)
        history = _history("where is the nearest gas station", "let me check")

        # Brute-force: recompute idf and cosine from scratch.
        docs = [c.split() for c in candidates.responses]
        n = len(docs)
        vocab = {t for d in docs for t in d}
        idf = {t: math.log(n / sum(1 for d in docs if t in d)) + 1.0 for t in vocab}
        h_tokens = " ".join(t.text for t in history).lower().split()

        def vec(tokens):
            v = {}
            for t in tokens:
                if t in idf:
                    v[t] = v.get(t, 0) + idf[t]
            return v

        def cosine(a, b):
            dot = sum(w * b.get(t, 0.0) for t, w in a.items())
            if dot == 0:
                return 0.0
            return dot / (math.sqrt(sum(w * w for w in a.values()))
                          * math.sqrt(sum(w * w for w in b.values())))

        hv = vec(h_tokens)
        brute = [cosine(hv, vec(d)) for d in docs]
        mine = [scorer.score(history, i) for i in range(n)]
        assert mine == pytest.approx(brute, abs=1e-12)
        assert max(range(n), key=lambda i: mine[i]) == 2


def _left_to_right(xs):
    total = 0.0
    for x in xs:
        total += x
    return total


def _compensated(xs):
    """How `sum` adds floats from Python 3.12 on (Neumaier's compensation)."""
    total = comp = 0.0
    for x in xs:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp else total


class TestFloatSumsAddLeftToRight:
    """The scorer adds its dot products and norms left to right, so a score,
    and so a tie, is the same on every supported Python. On these weights a
    compensated `sum` gives a different last bit, so these tests fail on
    3.12 and later if `sum` of floats comes back."""

    CANDIDATES = ("g a", "a g g c b", "a g e b")
    HISTORY = "c a b b"

    def _vector(self, text):
        docs = [c.split() for c in self.CANDIDATES]
        tf = Counter(t for t in text.split() if any(t in d for d in docs))
        return {t: n * (math.log(len(docs) / sum(t in d for d in docs)) + 1.0)
                for t, n in tf.items()}

    def test_candidate_norm(self):
        squares = [w * w for w in self._vector(self.CANDIDATES[1]).values()]
        expected = math.sqrt(_left_to_right(squares))
        assert math.sqrt(_compensated(squares)) != expected
        assert TfIdfScorer(CandidateSet(self.CANDIDATES))._cand_norms[1] == expected

    def test_score(self):
        h, c = self._vector(self.HISTORY), self._vector(self.CANDIDATES[1])
        products = [w * c[t] for t, w in h.items() if t in c]

        def cosine(add):
            return add(products) / (math.sqrt(add([w * w for w in h.values()]))
                                    * math.sqrt(add([w * w for w in c.values()])))

        assert cosine(_compensated) != cosine(_left_to_right)
        scorer = TfIdfScorer(CandidateSet(self.CANDIDATES))
        assert scorer.score(_history(self.HISTORY), 1) == cosine(_left_to_right)


def _tiny_corpus():
    dialogs = (
        Dialog(
            id="smd-0", domain="navigate",
            turns=(
                Turn(Speaker.USER, "where is the gas station"),
                Turn(Speaker.AGENT, "chevron is the gas station"),
                Turn(Speaker.USER, "thanks a lot friend"),
                Turn(Speaker.AGENT, "you are welcome friend"),
            ),
        ),
        Dialog(
            id="smd-1", domain="weather",
            turns=(
                Turn(Speaker.USER, "will it be sunny today"),
                Turn(Speaker.AGENT, "it will be sunny today"),
            ),
        ),
    )
    return DialogCorpus(dialogs=dialogs, source_format="smd")


def _disjoint_corpus():
    """Single-response dialogs with unrelated vocabularies: each gold
    response is the only candidate sharing a term with its history."""
    dialogs = tuple(
        Dialog(
            id=f"smd-{i}", domain=domain,
            turns=(Turn(Speaker.USER, user), Turn(Speaker.AGENT, agent)),
        )
        for i, (domain, user, agent) in enumerate((
            ("navigate", "where is the nearest gas station", "chevron gas station nearest"),
            ("weather", "will it rain in boston tomorrow", "boston rain expected tomorrow"),
            ("schedule", "when is my dentist appointment", "dentist appointment monday"),
        ))
    )
    return DialogCorpus(dialogs=dialogs, source_format="smd")


class TestPredict:
    def test_single_candidate_everywhere(self):
        corpus = _tiny_corpus()
        manifest = export_manifest(corpus)
        preds = predict(corpus, manifest, CandidateSet(("only answer",)))
        assert preds.responses == ("only answer",) * 3

    def test_unique_overlap_gives_perfect_accuracy(self):
        corpus = _disjoint_corpus()
        manifest = export_manifest(corpus)
        candidates = candidates_from_corpus(corpus)
        preds = predict(corpus, manifest, candidates)
        assert preds.responses == tuple(e.gold_text for e in manifest.entries)

    def test_query_is_full_history(self):
        # The second smd-0 response's history holds the earlier gold
        # "chevron is the gas station", which outscores the later gold
        # "you are welcome friend" (cosine ~0.95 against ~0.12).
        corpus = _tiny_corpus()
        manifest = export_manifest(corpus)
        preds = predict(corpus, manifest, candidates_from_corpus(corpus))
        assert preds.responses == (
            "chevron is the gas station",
            "chevron is the gas station",
            "it will be sunny today",
        )

    def test_deterministic(self):
        corpus = _tiny_corpus()
        manifest = export_manifest(corpus)
        candidates = candidates_from_corpus(corpus)
        assert predict(corpus, manifest, candidates) == predict(corpus, manifest, candidates)

    def test_tie_breaks_to_lowest_index(self):
        corpus = _tiny_corpus()
        manifest = export_manifest(corpus)
        # Two identical candidates: argmax must stay at the first.
        preds = predict(corpus, manifest, CandidateSet(("zz unrelated", "zz unrelated2")))
        assert all(r == "zz unrelated" for r in preds.responses)


# --- exactness of the indexed ranking against `score` ------------------------

# Mixed case and a final sigma probe the per-turn lowercasing; "zz" appears in
# histories only, so zero-overlap histories occur.
WORDS = ("where", "gas", "Gas", "station", "the", "ΟΔΟΣ", "<silence>", "sunny")


def _brute_best(scorer, history):
    scores = [scorer.score(history, i) for i in range(len(scorer.candidates.responses))]
    return scores.index(max(scores))


def _brute_predict(corpus, manifest, candidates):
    scorer = TfIdfScorer(candidates)
    by_id = corpus.dialog_by_id()
    out = []
    for e in manifest.entries:
        history = list(by_id[e.dialog_id].turns[: e.turn_index])
        out.append(candidates.responses[_brute_best(scorer, history) if history else 0])
    return tuple(out)


_VOCABULARY = st.lists(st.sampled_from(WORDS), min_size=3, max_size=5, unique=True)


def _texts(vocab):
    return st.lists(st.sampled_from(vocab), min_size=1, max_size=6).map(" ".join)


@st.composite
def _ranking_case(draw):
    vocab = draw(_VOCABULARY)
    # Few candidates over few words: duplicates and equal scores are common.
    candidates = draw(st.lists(_texts(vocab), min_size=1, max_size=8))
    history = draw(st.lists(_texts(vocab + ["zz"]), min_size=1, max_size=6))
    return CandidateSet(tuple(candidates)), _history(*history)


@st.composite
def _corpus_case(draw):
    vocab = draw(_VOCABULARY)
    texts = _texts(vocab + ["zz"])
    dialogs = tuple(
        Dialog(id=f"smd-{i}", domain="navigate",
               turns=tuple(Turn(Speaker.USER if j % 2 == 0 else Speaker.AGENT, t)
                           for j, t in enumerate(draw(st.lists(texts, min_size=1, max_size=8)))))
        for i in range(draw(st.integers(1, 3)))
    )
    candidates = draw(st.lists(_texts(vocab), min_size=1, max_size=8))
    return DialogCorpus(dialogs=dialogs, source_format="smd"), CandidateSet(tuple(candidates))


class TestIndexedRankingIsExact:
    @settings(max_examples=300, deadline=None)
    @given(_ranking_case())
    # Cosines equal in exact arithmetic (parallel vectors) but not in floating
    # point: only the reference's own operation order picks the winner.
    @example((CandidateSet(("where",) * 6 + ("where where where where where where", "gas")),
              _history("where where where")))
    def test_best_is_first_argmax_of_score(self, case):
        candidates, history = case
        scorer = TfIdfScorer(candidates)
        bag = Counter()
        for turn in history:
            scorer.add_turn(bag, turn)
        assert scorer.best_for_bag(bag) == _brute_best(scorer, history)

    def test_best_for_an_empty_bag_is_candidate_zero(self):
        # `score` rejects an empty history; `predict` gives such an entry candidate 0.
        assert TfIdfScorer(CandidateSet(("b", "a"))).best_for_bag(Counter()) == 0

    @pytest.mark.parametrize("pool", ["gold", "single", "disjoint"])
    def test_predict_matches_brute_force_on_tiny_corpus(self, pool):
        corpus = _tiny_corpus()
        manifest = export_manifest(corpus)
        candidates = {
            "gold": candidates_from_corpus(corpus),
            "single": CandidateSet(("only answer",)),
            "disjoint": CandidateSet(("zz unrelated", "zz unrelated2")),
        }[pool]
        assert predict(corpus, manifest, candidates).responses == _brute_predict(
            corpus, manifest, candidates)

    @settings(max_examples=150, deadline=None)
    @given(_corpus_case())
    def test_predict_matches_brute_force(self, case):
        corpus, candidates = case
        manifest = export_manifest(corpus)
        # Entries out of turn order must not reuse a dialog's running history.
        shuffled = replace(manifest, entries=manifest.entries[::-1])
        for m in (manifest, shuffled):
            assert predict(corpus, m, candidates).responses == _brute_predict(corpus, m, candidates)
