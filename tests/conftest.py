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


# Every line break of `str.splitlines` but LF and CR. A turn may hold any of
# them, so every line-oriented reader keeps them inside a line.
@pytest.fixture(params=["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
                ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"])
def inner_break(request) -> str:
    return request.param


# The line ends every line-oriented reader takes.
@pytest.fixture(params=["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
def line_end(request) -> str:
    return request.param


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
