"""Golden outputs: the sha256 of each report's JSON, against tests/golden/digests.txt.

Each entry names one library call (or, for three lines, the eight flag
patterns of one count triple) and digests the JSON the CLI would print for
it.  A documented output change rewrites the digest file in the same
change; to print the current digests, run

    PYTHONPATH=src python tests/test_golden.py > tests/golden/digests.txt
"""

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

from bigsurf import serialize as ser
from bigsurf.bigness import classify_anticanonical
from bigsurf.cli import _type_label as type_label
from bigsurf.picard import LineConic, ThreeLines
from bigsurf.zariski import FamilyParams, zariski_decompose

DIGESTS = Path(__file__).parent / "golden" / "digests.txt"


def _zariski_members():
    """Every family member with rank <= 12 and n <= k + 2 (the CLI
    workload's inputs), then n = 8..40 with k = n + 1 and multiplicities
    3..9 in turn (the classes workload's, unshuffled)."""
    for k in (3, 4, 5):
        for a in itertools.product(range(1, 9), repeat=k):
            if 2 + sum(a) <= 12 and sum(Fraction(1, x) for x in a) < k - 2:
                yield from ((n, k, a) for n in range(max(2, k - 1), k + 3))
    for n in range(8, 41):
        yield n, n + 1, tuple(3 + i % 7 for i in range(n + 1))


def _classify(config):
    return ser.classify_to_dict(classify_anticanonical(config), type_label(config))


def entries():
    """(name, JSON-ready report) for every golden entry, in file order."""
    for n, k, a in _zariski_members():
        yield (f"zariski n={n} k={k} a={','.join(map(str, a))}",
               ser.zariski_report_to_dict(zariski_decompose(FamilyParams(n, k, a))))
    # every configuration of agreement_sweep(12, 12, 6)
    for a, b, both in itertools.product(range(13), range(13), range(3)):
        yield f"classify line_conic a={a} b={b} both={both}", _classify(LineConic(a, b, both))
    for counts in itertools.product(range(7), repeat=3):
        yield (f"classify three_lines a={counts} (all flag patterns)",
               [_classify(ThreeLines(*counts, *flags))
                for flags in itertools.product((False, True), repeat=3)])
    # ranks 100..300
    for a in range(94, 295):
        yield f"classify three_lines a=({a}, 3, 2)", _classify(ThreeLines(a, 3, 2))
    for rank in range(100, 301, 10):
        for a in (1, 2, (rank - 1) // 2):
            yield (f"classify line_conic a={a} b={rank - 1 - a}",
                   _classify(LineConic(a, rank - 1 - a)))


def digest_lines():
    for name, report in entries():
        yield f"{hashlib.sha256(json.dumps(report).encode()).hexdigest()}  {name}"


def test_golden_digests():
    expected = DIGESTS.read_text().splitlines()
    actual = list(digest_lines())
    for want, got in zip(expected, actual):
        assert got == want, f"first differing entry: {want.split('  ', 1)[1]}"
    assert len(actual) == len(expected)


if __name__ == "__main__":
    for line in digest_lines():
        print(line)
