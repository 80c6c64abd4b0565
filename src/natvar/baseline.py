"""Deterministic tf-idf retrieval baseline.

Exists to drive the inject -> evaluate pipeline end to end without neural
models; its scores are illustrative, not a modeling claim. For each
scoreable agent response it ranks a fixed candidate set by cosine
similarity between the term-frequency bag of the dialog history and the
candidate, both idf-weighted from the candidate set. The history is every
turn before the response, agent turns included, so an earlier gold
response in the history pulls retrieval toward itself; this full-history
query is what lets injected turns move the baseline's scores. Ties break
toward the lowest candidate index, so output is scheduling-independent.

Ranking is linear in the history and in the candidates that share a term
with it. The scorer keeps an inverted index (term -> (candidate, weight)
postings) and each candidate's norm, both built once. `predict` keeps one
running history bag per dialog, since a dialog's manifest entries come in
turn order, and weights it once per entry; only candidates reached through
the postings of the bag's terms are scored. Each dot product accumulates
in the bag's first-occurrence term order from zero and is divided as
`dot / (nh * nc)`, exactly as `TfIdfScorer.score` computes it, so scores
and tie-breaks are bit-identical to ranking every candidate with `score`.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

from . import NatvarError
from .io import ParseError, numbered_lines
from .manifest import EvalManifest, PredictionSet, export_manifest
from .model import DialogCorpus, Turn


class BaselineError(NatvarError):
    pass


@dataclass(frozen=True)
class CandidateSet:
    responses: tuple[str, ...]

    def __post_init__(self):
        if not self.responses:
            raise BaselineError("empty candidate set")


def load_candidates(data: bytes) -> CandidateSet:
    """One candidate per line, deduplicated keeping first occurrence; lines
    end only at LF, CR or CRLF. The bAbI numbering, an ASCII-decimal token and
    a space before every non-empty line, is stripped with the spaces after it;
    any other file is kept verbatim, real leading numbers too."""
    lines = [line.strip() for _, line in numbered_lines(data, "candidate file") if line.strip()]
    if all(re.match(r"[0-9]+ ", line) for line in lines):
        lines = [line.partition(" ")[2].lstrip() for line in lines]
    out = list(dict.fromkeys(lines))
    if not out:
        raise ParseError("candidate file contains no candidates")
    return CandidateSet(tuple(out))


def candidates_from_corpus(corpus: DialogCorpus) -> CandidateSet:
    """The gold responses of the corpus's manifest as the candidate pool,
    first occurrence first."""
    return CandidateSet(tuple(dict.fromkeys(e.gold_text for e in export_manifest(corpus).entries)))


def _sum_in_order(values) -> float:
    """`sum` added left to right: from Python 3.12 `sum` compensates floats, which can turn a tie."""
    total = 0.0
    for v in values:
        total += v
    return total


class TfIdfScorer:
    """idf weights come from the candidate set; history/candidate vectors
    use raw term frequency times idf."""

    def __init__(self, candidates: CandidateSet):
        self.candidates = candidates
        n = len(candidates.responses)
        df: Counter = Counter()
        cand_tokens = []
        for resp in candidates.responses:
            toks = resp.lower().split()
            cand_tokens.append(toks)
            df.update(set(toks))
        self._idf = {t: math.log(n / c) + 1.0 for t, c in df.items()}
        self._cand_vectors = [self._vector(toks) for toks in cand_tokens]
        self._cand_norms = [math.sqrt(_sum_in_order(w * w for w in c.values())) for c in self._cand_vectors]
        self._postings: dict[str, list[tuple[int, float]]] = {}
        for i, c in enumerate(self._cand_vectors):
            for t, w in c.items():
                self._postings.setdefault(t, []).append((i, w))

    def _vector(self, tokens: list[str]) -> dict[str, float]:
        vec = {}
        for tok, tf in Counter(tokens).items():
            idf = self._idf.get(tok)
            if idf is not None:
                vec[tok] = tf * idf
        return vec

    def score(self, history: list[Turn], candidate_index: int) -> float:
        """Cosine similarity of the concatenated history and one candidate.
        The reference that `best_for_bag` reproduces bit for bit."""
        if not history:
            raise BaselineError("empty history")
        h = self._vector(" ".join(t.text for t in history).lower().split())
        c = self._cand_vectors[candidate_index]
        if not h or not c:
            return 0.0
        dot = _sum_in_order(w * c[t] for t, w in h.items() if t in c)
        if dot == 0.0:
            return 0.0
        nh = math.sqrt(_sum_in_order(w * w for w in h.values()))
        nc = math.sqrt(_sum_in_order(w * w for w in c.values()))
        return dot / (nh * nc)

    def add_turn(self, bag: Counter, turn: Turn) -> None:
        """Count `turn`'s in-vocabulary tokens into a history bag."""
        bag.update(t for t in turn.text.lower().split() if t in self._idf)

    def best_for_bag(self, bag: Counter) -> int:
        """Index of the highest `score` over all candidates, for the history
        whose turns `add_turn` counted into `bag`; the lowest index on a tie,
        so 0 when every score is 0 or the bag is empty."""
        h = [(t, tf * self._idf[t]) for t, tf in bag.items()]
        dots: dict[int, float] = {}
        for t, w in h:
            for i, cw in self._postings[t]:
                dots[i] = dots.get(i, 0) + w * cw
        if not dots:
            return 0
        nh = math.sqrt(_sum_in_order(w * w for _, w in h))
        best_i, best_s = 0, 0.0
        for i, dot in dots.items():
            s = dot / (nh * self._cand_norms[i])
            if s > best_s or (s == best_s and i < best_i):
                best_i, best_s = i, s
        return best_i


def predict(corpus: DialogCorpus, manifest: EvalManifest,
            candidates: CandidateSet) -> PredictionSet:
    """Argmax candidate for each manifest entry over the dialog history up
    to that turn: every turn before it, user and agent alike, so an earlier
    gold response can outscore the entry's own gold. An entry with no
    history gets candidate 0. Deterministic and total given a non-empty
    candidate set."""
    scorer = TfIdfScorer(candidates)
    by_id = corpus.dialog_by_id()
    responses = []
    bag: Counter = Counter()
    bag_dialog, bag_end = None, 0
    for entry in manifest.entries:
        dialog = by_id.get(entry.dialog_id)
        if dialog is None or entry.turn_index >= len(dialog.turns):
            raise BaselineError(f"manifest entry {entry.dialog_id}@{entry.turn_index} not in corpus")
        if entry.dialog_id != bag_dialog or entry.turn_index < bag_end:
            bag, bag_dialog, bag_end = Counter(), entry.dialog_id, 0
        for turn in dialog.turns[bag_end: entry.turn_index]:
            scorer.add_turn(bag, turn)
        bag_end = entry.turn_index
        responses.append(candidates.responses[scorer.best_for_bag(bag)])
    return PredictionSet(tuple(responses), manifest.digest())
