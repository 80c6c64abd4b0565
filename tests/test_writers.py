"""The files `save_corpus` and the CLI's corpus writer stream out are the
bytes the `serialize_*` functions return, and the streamed corpus digest is
the hash of the joined payloads."""

import gc
import hashlib
import tracemalloc
from dataclasses import replace

import pytest

from natvar.babi import parse_babi, serialize_origin_sidecar
from natvar.cli import _save_with_manifest
from natvar.io import save_corpus, serialize_corpus
from natvar.manifest import export_manifest, serialize_manifest
from natvar.model import Dialog, DialogCorpus, ModelError, Speaker, Turn, content_digest
from natvar.planner import PlanConfig, execute, plan

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


def test_odd_turn_count_leaves_no_file(tmp_path):
    turns = (Turn(Speaker.USER, "hi"), Turn(Speaker.AGENT, "hello"), Turn(Speaker.USER, "bye"))
    odd = DialogCorpus(dialogs=(Dialog("babi-0", "restaurant", turns),), source_format="babi")
    message = "dialog babi-0: bAbI requires an even number of turns"
    with pytest.raises(ModelError, match=message):
        serialize_corpus(odd)
    with pytest.raises(ModelError, match=message):
        _save_with_manifest(odd, tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_parse_holds_one_block_of_lines_at_a_time(babi_bytes):
    # Beyond what the corpus keeps, the parse holds the decoded text, its
    # per-call caches and one block. A list of every line with its number
    # (the 1,000-dialog fixture has about 27,000) pushes the transient
    # peak above the retained size on Python 3.10-3.13.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        corpus = parse_babi(babi_bytes)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if gc_was_enabled:
            gc.enable()
    assert len(corpus.dialogs) == 1000
    assert peak - retained < retained
