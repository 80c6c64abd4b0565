"""The files `save_corpus` and the CLI's corpus writer stream out are the
bytes the `serialize_*` functions return, and the streamed corpus digest is
the hash of the joined payloads."""

import gc
import hashlib
from dataclasses import replace

import pytest

from natvar.babi import parse_babi, serialize_origin_sidecar
from natvar.cli import _save_with_manifest
from natvar.io import save_corpus, serialize_corpus
from natvar.manifest import export_manifest, parse_manifest, read_predictions, serialize_manifest
from natvar.model import Dialog, DialogCorpus, ModelError, Speaker, Turn, content_digest
from natvar.planner import PlanConfig, execute, plan, preset_config
from natvar.stats import corpus_stats

TARGETS = {"open_request_screening": 5, "misunderstanding_report": 5}


def _updated(corpus):
    cfg = PlanConfig(targets=TARGETS, seed=3, max_patterns_per_dialog=5, histogram_targets=None)
    return execute(corpus, plan(corpus, cfg))


@pytest.fixture(params=["babi-pristine", "babi-injected", "smd-pristine", "smd-injected"])
def corpus(request, small_babi_corpus, small_smd_corpus):
    source = small_babi_corpus if request.param.startswith("babi") else small_smd_corpus
    return _updated(source) if request.param.endswith("injected") else source


def test_saved_files_are_the_serialized_bytes(tmp_path, corpus):
    out = tmp_path / "out"
    written = _save_with_manifest(corpus, out)
    expected = {out: serialize_corpus(corpus),
                tmp_path / "out.manifest.tsv": serialize_manifest(export_manifest(corpus))}
    if corpus.source_format == "babi" and not corpus.is_pristine:
        expected[tmp_path / "out.origin"] = serialize_origin_sidecar(corpus)
    assert sorted(written) == sorted(map(str, expected))
    assert {p: p.read_bytes() for p in expected} == expected
    assert sorted(tmp_path.iterdir()) == sorted(expected)


def test_pristine_babi_is_saved_as_its_source_bytes(tmp_path, small_babi_corpus):
    assert save_corpus(small_babi_corpus, tmp_path / "c.txt") == [tmp_path / "c.txt"]
    assert (tmp_path / "c.txt").read_bytes() == small_babi_corpus.source_bytes


def test_in_memory_digest_is_the_hash_of_the_joined_payloads(small_babi_corpus, small_smd_corpus):
    for corpus in (_updated(small_babi_corpus), _updated(small_smd_corpus)):
        assert not corpus.source_bytes
        payloads = [(f"{d.id}|{d.domain}|" + "\x1f".join(
            f"{t.speaker.value}:{t.injected_by or ''}:{t.text}" for t in d.turns)).encode()
            for d in corpus.dialogs]
        assert content_digest(corpus) == hashlib.sha256(b"\x1e".join(payloads)).hexdigest()
    empty = DialogCorpus(dialogs=(), source_format="babi")
    assert content_digest(empty) == hashlib.sha256(b"").hexdigest()


def _checksum(report: str) -> str:
    """The hex digest on the checksum line of a `corpus_stats` report."""
    return next(line for line in report.splitlines()
                if line.startswith("checksum: ")).removeprefix("checksum: sha256:")


def test_stats_checksum_is_the_hash_of_the_file_bytes(corpus):
    expected = hashlib.sha256(corpus.source_bytes or serialize_corpus(corpus)).hexdigest()
    assert _checksum(corpus_stats(corpus)) == expected


def test_stats_checksum_of_an_empty_corpus():
    for fmt, text in (("babi", b"\n"), ("smd", b"[]\n")):
        empty = DialogCorpus(dialogs=(), source_format=fmt)
        assert _checksum(corpus_stats(empty)) == hashlib.sha256(text).hexdigest()


def test_stats_hashes_an_in_memory_corpus_chunk_by_chunk(smd_bytes, smd_corpus, traced):
    # The serialized file is about ten times its size in transient objects
    # when it is built whole; one dialogue at a time, a few kilobytes.
    forced = replace(smd_corpus, source_bytes=b"")
    report, _, peak = traced(lambda: corpus_stats(forced))
    assert _checksum(report) == hashlib.sha256(smd_bytes).hexdigest()
    assert peak < len(smd_bytes) // 4


def test_odd_turn_count_leaves_no_file(tmp_path):
    turns = (Turn(Speaker.USER, "hi"), Turn(Speaker.AGENT, "hello"), Turn(Speaker.USER, "bye"))
    odd = DialogCorpus(dialogs=(Dialog("babi-0", "restaurant", turns),), source_format="babi")
    message = "dialog babi-0: bAbI requires an even number of turns"
    with pytest.raises(ModelError, match=message):
        serialize_corpus(odd)
    with pytest.raises(ModelError, match=message):
        _save_with_manifest(odd, tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def injected_babi(babi_corpus):
    return execute(babi_corpus, plan(babi_corpus, preset_config("babi-table1")))


def test_manifest_digest_is_the_hash_of_the_manifest_file(corpus):
    m = export_manifest(corpus)
    assert m.digest() == hashlib.sha256(serialize_manifest(m)).hexdigest()


def test_save_keeps_nothing_it_wrote_for_a_spliced_dialog(tmp_path, injected_babi, traced):
    # A spliced dialog is written once, so it keeps none of its outputs, only
    # the empty attribute table that looking them up makes (64 bytes each,
    # 2.9% of the file on Python 3.11). Keeping them is 2.6 times the file.
    # The collection clears the interpreter's free lists, which tracemalloc
    # counts as allocated.
    assert all(d.applied_patterns for d in injected_babi.dialogs)
    out = tmp_path / "out.txt"
    _, retained, _ = traced(lambda: (_save_with_manifest(injected_babi, out), gc.collect()))
    assert retained < 0.05 * out.stat().st_size


def test_parse_holds_one_block_of_lines_at_a_time(babi_bytes, traced):
    # Beyond what the corpus keeps, the parse holds its per-call tables, one
    # block and one 64 KiB piece of decoded lines: 0.98 times the file's size
    # on Python 3.11. Caching every distinct line body, facts included (9,810
    # of the fixture's 14,000 fact lines are distinct), takes it to 2.0.
    # The whole decoded text adds 1.0 more, and a list of every line with its
    # number (the fixture has about 27,000) 3.3 more.
    corpus, retained, peak = traced(lambda: parse_babi(babi_bytes))
    assert len(corpus.dialogs) == 1000
    assert peak - retained < 1.3 * len(babi_bytes)


def test_manifest_and_prediction_reads_hold_no_whole_file_text(injected_babi, traced):
    # On Python 3.11, the manifest parse holds 0.58 times its file beyond what
    # it keeps, mostly its string table, and reading predictions with the
    # manifest digest 0.21 times. Decoding the whole text first takes them to
    # 1.18 and 1.01, and hashing a joined manifest takes the latter to 5.9.
    manifest_bytes = serialize_manifest(export_manifest(injected_babi))
    manifest, retained, peak = traced(lambda: parse_manifest(manifest_bytes))
    assert peak - retained < 0.9 * len(manifest_bytes)
    preds = "".join(f"{e.gold_text}\n" for e in manifest.entries).encode("utf-8")
    _, retained, peak = traced(lambda: read_predictions(preds, manifest))
    assert peak - retained < 0.5 * len(preds)


def test_parse_keeps_each_kb_token_and_fact_once(babi_bytes, traced):
    # The corpus keeps each distinct KB token as one string and each distinct
    # fact as one tuple, shared by the KBs and serialization: 1.83 times the
    # file's size on Python 3.11. A fresh tuple per fact line takes it to 1.92,
    # a raw copy of every fact beside its KB entry to 2.5 and fresh token
    # strings per fact to 2.8; with the last two, 5.2 times.
    corpus, retained, _ = traced(lambda: parse_babi(babi_bytes))
    assert retained < 2.5 * len(babi_bytes)
    facts = [fact for d in corpus.dialogs for fact in d.kb.entries]
    assert len(facts) == 14000
    assert len({id(tok) for fact in facts for tok in fact}) == len({tok for fact in facts for tok in fact})
    assert len({id(fact) for fact in facts}) == len(set(facts))
    assert all(d.source_info[1] == () for d in corpus.dialogs)
