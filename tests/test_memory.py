"""Memory held after the hot paths have run.

CPython keeps up to 2000 freed tuples of each length below 20 in free
lists.  A tuple built from a generator or a map is allocated at length 10
and realloced to its real length, so a loop that builds such tuples keeps
taking fresh blocks and parking them in the free list of its length: a
sweep used to leave about 4 MB there.  These tests read what a run leaves
traced by tracemalloc.  The reading is taken before any later garbage
collection, because a full collection empties the free lists and would
hide the parked blocks; the one collection before the run empties them,
so that earlier tests do not decide what the run can park.
"""

import gc
import tracemalloc

import pytest

from bigsurf.bigness import agreement_sweep, orthogonal_complement
from bigsurf.linalg import integer_kernel
from bigsurf.picard import DivisorClass, blowup_p2


def _held_bytes(run) -> int:
    """Bytes still traced after run() returns, against the start."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


A = DivisorClass(range(1, 16))
B = DivisorClass([3, -1] * 7 + [2])
M = [[1, 0, 2] * 5, [0, 1, -1] * 5, [1, 1, 0, 0, 1] * 3]


def _arithmetic() -> None:
    for _ in range(5000):
        A + B, A - B, -A, A * 3, 2 * B


def _kernel() -> None:
    # each call builds 12 kernel vectors of length 15 and negates some of
    # them, so 500 calls build well over the 2000 tuples a free list keeps
    for _ in range(500):
        integer_kernel(M)


def _gram() -> None:
    # the dense form from `gram_of`, restricted to the complement's kernel
    lattice = blowup_p2(14)
    for _ in range(500):
        orthogonal_complement(lattice, [lattice.canonical])


@pytest.mark.parametrize("run", [_arithmetic, _kernel, _gram])
def test_rank_length_tuples_park_nothing(run):
    # about 310 kB each with generator-built tuples (CPython 3.11)
    assert _held_bytes(run) < 64 * 1024


def test_a_sweep_parks_no_tuples():
    # about 1160 kB with generator-built tuples, and about 40 kB (86 kB on
    # CPython 3.10) once every rank-length and configuration tuple is sized
    assert _held_bytes(lambda: agreement_sweep(6, 6, 3)) < 200 * 1024


def test_a_lattice_build_holds_only_its_canonical_numerators():
    # the canonical class's numerators hold one pointer per basis class;
    # anything else kept per basis class (a label string would be over 50
    # bytes each) would pass the bound
    rank = 10_001
    lattices = []
    assert _held_bytes(lambda: lattices.append(blowup_p2(rank - 1))) < rank * 8 + 16 * 1024
