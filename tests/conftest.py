import gc
import tracemalloc

import pytest

from natvar.babi import parse_babi
from natvar.smd import parse_smd
from natvar.synthetic import make_babi_bytes, make_smd_bytes


@pytest.fixture(scope="session")
def smd_bytes() -> bytes:
    return make_smd_bytes()


@pytest.fixture(scope="session")
def babi_bytes() -> bytes:
    return make_babi_bytes()


@pytest.fixture(scope="session")
def smd_corpus(smd_bytes):
    return parse_smd(smd_bytes)


@pytest.fixture(scope="session")
def babi_corpus(babi_bytes):
    return parse_babi(babi_bytes)


@pytest.fixture(scope="session")
def small_smd_corpus():
    return parse_smd(make_smd_bytes(n_dialogs=30))


@pytest.fixture(scope="session")
def small_babi_corpus():
    return parse_babi(make_babi_bytes(n_dialogs=40))


@pytest.fixture
def traced():
    """`traced(f)` runs `f()` under tracemalloc with the cyclic GC off and
    returns (its result, bytes still allocated, peak bytes)."""
    def run(f):
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            result = f()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if gc_was_enabled:
                gc.enable()
        return result, retained, peak
    return run
