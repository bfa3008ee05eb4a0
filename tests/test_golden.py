"""Golden outputs: the sha256 of each report's JSON, against tests/golden/digests.txt.

Each library entry names one call (or, for classify on three lines, the
eight flag patterns of one count triple) and digests the JSON the CLI would
print for it.  Each CLI entry names one request of tests/golden/cli_requests.json
and digests the JSON of [status, stdout, stderr] from in-process `cli.main`.
A documented output change rewrites the digest file in the same change; to
list every entry that changed, run

    PYTHONPATH=src python tests/golden/update.py

and to print the current digests, run

    PYTHONPATH=src python tests/test_golden.py > tests/golden/digests.txt
"""

import contextlib
import hashlib
import io
import itertools
import json
import shlex
from fractions import Fraction
from pathlib import Path

from bigsurf import cli, serialize as ser
from bigsurf.bigness import classify_anticanonical, cross_check
from bigsurf.cli import _type_label as type_label, _witness_args as witness_args
from bigsurf.enumeration import negative_classes
from bigsurf.errors import NotNegativeDefiniteError
from bigsurf.picard import FamilyParams, Generic, LineConic, ThreeLines, verify_witness
from bigsurf.roots import classify, extract_roots, root_lattice_of_config
from bigsurf.zariski import zariski_decompose

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "digests.txt"


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


# the witness requests of the README and of CI's console-script step
WITNESS_REQUESTS = [
    '{"example":"hirzebruch_b","n":2}',
    '{"example":"hirzebruch_b","n":3}',
    '{"example":"conic_c","n":5}',
    '{"example":"castravet_d"}',
    '{"example":"conic_c","n":500}',
    '{"example":"hirzebruch_b","n":200}',
    '{"example":"hirzebruch_b","n":2,"fibers":[[1,true],[0,false],[2,false]]}',
]


def _classify(config):
    return ser.classify_to_dict(classify_anticanonical(config), type_label(config))


def _roots_entries(name, config):
    """The roots report of a big configuration; none for any other."""
    basis, gram = root_lattice_of_config(config)
    try:
        roots = extract_roots(gram)
    except NotNegativeDefiniteError:
        return
    yield f"roots {name}", ser.roots_to_dict(classify(roots, gram), basis)


def _cli_entries():
    """[status, stdout, stderr] of every corpus request through cli.main.
    The corpus holds no --help, usage error or JSON-decoder message: their
    text varies with the Python version and COLUMNS."""
    for argvs in json.loads((GOLDEN / "cli_requests.json").read_text()).values():
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
            yield f"cli {shlex.join(argv)}", [status, out.getvalue(), err.getvalue()]


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
    for r in range(9):
        yield from _roots_entries(f"generic r={r}", Generic(r))
    for a, b, both in itertools.product(range(8), range(8), range(3)):
        yield from _roots_entries(f"line_conic a={a} b={b} both={both}",
                                  LineConic(a, b, both))
    for counts in itertools.product(range(6), repeat=3):
        for flags in itertools.product((False, True), repeat=3):
            yield from _roots_entries(f"three_lines a={counts} intersections={flags}",
                                      ThreeLines(*counts, *flags))
    for r in range(9):
        yield f"enumerate generic r={r}", ser.class_table_to_dict(negative_classes(r))
    for request in WITNESS_REQUESTS:
        yield (f"witness {request}",
               ser.witness_to_dict(verify_witness(**witness_args(json.loads(request)))))
    for r in range(13):
        yield f"classify generic r={r}", _classify(Generic(r))
        yield (f"check generic r={r}",
               ser.cross_check_to_dict(cross_check(Generic(r)), type_label(Generic(r))))
    yield from _cli_entries()


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
