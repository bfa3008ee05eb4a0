"""The benchmark's workloads: inputs drawn from a seed, a timed pass over
them, and a check of every operation's output.

A workload is a list of operations run back to back by one closed-loop
client: the next operation starts when the previous one has returned.
Each operation carries the lattice rank of its input, which orders the
rank ladders, and a check on its output against an oracle of the
benchmark's own (closed forms, count formulas, or the in-process CLI).
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import bigsurf
from bigsurf import bigness, cli
from speed import NoMeter
from bigsurf import FamilyParams, Generic, LineConic, ThreeLines

# The program is called through module attributes (bigsurf.f, cli.main),
# never through names imported here, so that the traced run's rebinding
# reaches every call.


@dataclass(frozen=True)
class Op:
    """One operation: run() produces the program's output, check(output)
    says whether it is right."""

    label: str
    rank: int
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass(frozen=True)
class Record:
    label: str
    rank: int
    seconds: float
    ok: bool
    start: float = 0.0


@dataclass(frozen=True)
class Pass:
    """wall_s is the pass's time without speed samples; gap_s the part of
    it spent outside the timed operations (the sweep's own loop)."""

    wall_s: float
    records: list[Record]
    outputs: list[Any]
    start: float = 0.0
    gap_s: float = 0.0


def closed_loop(ops: list[Op], tracer: Any = None, keep: bool = False,
                meter: Any = None) -> Pass:
    """Run every operation in turn, timing each call and checking its
    output right after; a pass's wall time is the sum of its calls.  Only
    a pass asked to keep its outputs holds them past their check.  A
    meter samples the host's speed between calls, untimed."""
    meter = meter or NoMeter()
    records, outputs = [], []
    start = perf_counter()
    for op in ops:
        gc.collect()  # each call starts from a clean heap, whatever ran before
        meter.due()
        spent = meter.spent_s
        t0 = perf_counter()
        try:
            out = op.run() if tracer is None else tracer.call("op", op.run)
        except Exception as exc:  # an operation that raises counts as failed
            out = exc
        seconds = perf_counter() - t0 - (meter.spent_s - spent)
        records.append(Record(op.label, op.rank, seconds,
                              not isinstance(out, Exception) and op.check(out), t0))
        if keep:
            outputs.append(out)
    meter.sample()
    return Pass(sum(r.seconds for r in records), records, outputs, start)


# sweep -----------------------------------------------------------------------

SWEEP_BOUNDS = (12, 12, 6)


def _config_rank(config: LineConic | ThreeLines) -> int:
    if isinstance(config, LineConic):
        return 1 + config.a + config.b + config.both
    return 1 + sum(config.counts) + sum(config.flags)


def sweep_check(report: Any, bounds: tuple[int, int, int]) -> bool:
    """Clean report, and every configuration of the bounds was visited."""
    a, b, ai = bounds
    return (report.clean
            and report.line_conic_count == 3 * (a + 1) * (b + 1)
            and report.three_lines_count == 8 * (ai + 1) ** 3)


def sweep_pass(bounds: tuple[int, int, int], meter: Any = None) -> Pass:
    """One agreement_sweep; an operation is one cross-checked configuration,
    timed where the sweep calls cross_check.  A meter samples the host's
    speed between calls; its time is taken out of the pass's."""
    meter = meter or NoMeter()
    timed: list[tuple[Any, float, float, bool]] = []
    inner = bigness.cross_check

    def probe(config: Any) -> Any:
        meter.due()
        spent = meter.spent_s
        t0 = perf_counter()
        report = inner(config)
        seconds = perf_counter() - t0 - (meter.spent_s - spent)
        timed.append((config, t0, seconds, report.ok))
        return report

    spent = meter.spent_s
    bigness.cross_check = probe
    start = perf_counter()
    try:
        report = bigness.agreement_sweep(*bounds)
    except Exception as exc:
        report = exc
    finally:
        bigness.cross_check = inner
    meter.sample()
    wall = perf_counter() - start - (meter.spent_s - spent)
    whole_ok = not isinstance(report, Exception) and sweep_check(report, bounds)
    # rungs are bands of ten ranks: the top rank alone is one configuration
    bands = [_config_rank(c) // 10 * 10 for c, _, _, _ in timed]
    records = [Record(f"ranks{band}-{band + 9}", band + 9, s, ok and whole_ok, t0)
               for band, (_, t0, s, ok) in zip(bands, timed)]
    if not whole_ok and not records:
        records = [Record("sweep", 0, wall, False, start)]
    return Pass(wall, records, [report], start, wall - sum(r.seconds for r in records))


# roots -----------------------------------------------------------------------

_E_ROOTS = {6: 72, 7: 126, 8: 240}


def _family_root_count(family: str, rank: int) -> int:
    """Closed-form root counts of the simply laced types the ladder meets."""
    if family == "A":
        return rank * (rank + 1)
    if family == "D":
        return 2 * rank * (rank - 1)
    return _E_ROOTS[rank]


def _roots_case(config: Any, expected: tuple[tuple[str, int], ...]
                ) -> tuple[int, Callable[[], Any], Callable[[Any], bool]]:
    """Rank, computation and check of one configuration's root system."""
    if isinstance(config, Generic):
        lattice = bigsurf.blowup_p2(config.r)

        def run() -> Any:
            _, gram = bigsurf.orthogonal_complement(lattice, [lattice.anticanonical])
            return bigsurf.classify(bigsurf.extract_roots(gram), gram)
        rank = config.r + 1
    else:
        def run() -> Any:
            _, gram = bigsurf.root_lattice_of_config(config)
            return bigsurf.classify(bigsurf.extract_roots(gram), gram)
        rank = _config_rank(config)
    count = sum(_family_root_count(f, r) for f, r in expected)

    def check(report: Any) -> bool:
        return (bigsurf.type_string(report.components) == bigsurf.type_string(expected)
                and len(report.roots) == count
                and count == sum(bigsurf.expected_root_count(f, r) for f, r in expected))

    return rank, run, check


def _roots_op(label: str, cases: list[tuple[Any, tuple[tuple[str, int], ...]]]) -> Op:
    """One rung: the root systems of the cases, in turn."""
    parts = [_roots_case(config, expected) for config, expected in cases]
    return Op(label, max(rank for rank, _, _ in parts),
              lambda: [run() for _, run, _ in parts],
              lambda reports: all(check(report)
                                  for (_, _, check), report in zip(parts, reports, strict=True)))


def roots_ops(seed: int, d_ladder: tuple[int, ...] = (12, 16, 20, 24, 28)) -> list[Op]:
    """One rung per D_n from LineConic(1, n); one for the exceptional table
    entries, one for a few A/D three-line cases and one for generic r = 6,
    7, 8.  The small cases are grouped because a single one lasts tens of
    milliseconds, too short to time steadily on a shared host.  The seed
    only shuffles the rungs."""
    ops = [_roots_op(f"D{n}", [(LineConic(1, n), (("D", n),))]) for n in d_ladder]
    table = [LineConic(2, 5), LineConic(3, 5), LineConic(2, 6), LineConic(4, 5),
             LineConic(2, 7), ThreeLines(3, 3, 2), ThreeLines(4, 3, 2), ThreeLines(5, 3, 2)]
    three_lines = [ThreeLines(6, 4, 0), ThreeLines(7, 3, 1, True),
                   ThreeLines(8, 2, 2, True, True, False), ThreeLines(6, 2, 2)]
    ops.append(_roots_op("E_table", [(c, bigsurf.predicted_type(c)) for c in table]))
    ops.append(_roots_op("AD_three_lines",
                         [(c, bigsurf.predicted_type(c)) for c in three_lines]))
    ops.append(_roots_op("E_generic", [(Generic(r), (("E", r),)) for r in (6, 7, 8)]))
    random.Random(seed).shuffle(ops)
    return ops


# classes ---------------------------------------------------------------------


def _verdict_op(label: str, config: LineConic | ThreeLines) -> Op:
    if isinstance(config, LineConic):
        a, b = config.a, config.b
        lhs = Fraction(1, a) + Fraction(4, b)
        v_squared = (a * b) ** 2 * (1 - lhs)
    else:
        a1, a2, a3 = config.counts
        lhs = Fraction(1, a1) + Fraction(1, a2) + Fraction(1, a3)
        v_squared = (a1 * a2 * a3) ** 2 * (1 - lhs)

    def check(verdict: Any) -> bool:
        return verdict.big == (lhs > 1) and verdict.v_squared == v_squared

    return Op(label, _config_rank(config), lambda: bigsurf.classify_anticanonical(config), check)


def _zariski_op(n: int, a: tuple[int, ...]) -> Op:
    params = FamilyParams(n, n + 1, a)
    k, s = n + 1, sum(Fraction(1, ai) for ai in a)
    p_squared = Fraction((n + 2 - k) ** 2) / (n - s)

    def check(report: Any) -> bool:
        return report.checks.all_pass and report.p_squared == p_squared

    return Op(f"Z{n}", 2 + sum(a), lambda: bigsurf.zariski_decompose(params), check)


def _witness_op(example: str, n: int, rank: int) -> Op:
    return Op(f"{'HB' if example == 'hirzebruch_b' else 'CC'}{n}", rank,
              lambda: bigsurf.verify_witness(example, n), lambda report: report.holds)


def _multiplicities(rng: random.Random, k: int) -> tuple[int, ...]:
    """k multiplicities in [3, 9]: the values 3..9 in turn, placed on the
    fibers in a seeded order.  The cost of the exact arithmetic follows the
    denominators, so independent draws would change the work by up to
    twice between seeds; a fixed multiset keeps it the same."""
    values = [3 + i % 7 for i in range(k)]
    rng.shuffle(values)
    return tuple(values)


def classes_ops(seed: int, scale: int = 1) -> list[Op]:
    """Huge lattices with rational classes; scale > 1 shrinks every input
    (used by the benchmark's own tests)."""
    rng = random.Random(seed)
    ops = [_verdict_op(f"TL{a // scale}", ThreeLines(a // scale, 3, 2))
           for a in (100, 200, 300)]
    ops += [_verdict_op(f"LC{a // scale}_{b // scale}", LineConic(a // scale, b // scale))
            for a, b in ((100, 100), (200, 100))]
    ops += [_zariski_op(n, _multiplicities(rng, n + 1))
            for n in (range(8, 21, 2) if scale == 1 else (8,))]
    ops += [_witness_op("hirzebruch_b", n // scale, n // scale + 3) for n in (50, 100, 200)]
    ops += [_witness_op("conic_c", n // scale, n // scale + 2) for n in (200, 500)]
    return ops


# cli -------------------------------------------------------------------------


def _zariski_params() -> list[tuple[int, int, tuple[int, ...]]]:
    """Every family member with rank at most 12 and n <= k + 2."""
    found = []
    for k in (3, 4, 5):
        for a in itertools.product(range(1, 9), repeat=k):
            if 2 + sum(a) <= 12 and sum(Fraction(1, x) for x in a) < k - 2:
                found.extend((n, k, a) for n in range(max(2, k - 1), k + 3))
    return found


def _point_request(rng: random.Random, big_only: bool) -> tuple[dict, int]:
    """A line-conic or three-lines configuration of rank at most 12."""
    while True:
        if rng.random() < 0.5:
            both = rng.randint(0, 2)
            a, b = rng.randint(0, 11 - both), rng.randint(0, 11 - both)
            if a + b + both > 11:
                continue
            big = a * b == 0 or Fraction(1, a) + Fraction(4, b) > 1
            cfg: dict[str, Any] = {"model": "line_conic", "a": a, "b": b, "both": both}
            rank = 1 + a + b + both
        else:
            counts = [rng.randint(0, 8) for _ in range(3)]
            flags = [rng.random() < 0.5 for _ in range(3)]
            if sum(counts) + sum(flags) > 11:
                continue
            big = (0 in counts
                   or sum(Fraction(1, c) for c in counts) > 1)
            cfg = {"model": "three_lines", "a": counts, "intersections": flags}
            rank = 1 + sum(counts) + sum(flags)
        if big or not big_only:
            return cfg, rank


def cli_requests(seed: int, count: int = 100) -> list[tuple[list[str], int]]:
    """A seeded stream of small CLI requests (rank <= 12): argv and rank."""
    rng = random.Random(seed)
    zariski = _zariski_params()
    requests = []
    for _ in range(count):
        command = rng.choices(
            ["classify", "check", "roots", "zariski", "enumerate", "witness"],
            weights=[20, 20, 25, 10, 10, 15])[0]
        fmt = ["--format", rng.choice(["json", "text"])]
        if command in ("classify", "check"):
            if command == "classify" and rng.random() < 0.25:
                r = rng.randint(0, 11)
                cfg, rank = {"model": "generic", "r": r}, r + 1
            else:
                cfg, rank = _point_request(rng, big_only=False)
        elif command == "roots":
            fmt = ["--format", rng.choice(["json", "dot", "text"])]
            if rng.random() < 0.25:
                r = rng.randint(3, 8)
                cfg, rank = {"model": "generic", "r": r}, r + 1
            else:
                cfg, rank = _point_request(rng, big_only=True)
        elif command == "zariski":
            n, k, a = rng.choice(zariski)
            cfg, rank = {"model": "hirzebruch_family", "n": n, "k": k, "a": list(a)}, 2 + sum(a)
        elif command == "enumerate":
            r = rng.randint(3, 8)
            cfg, rank = {"model": "generic", "r": r}, r + 1
        else:
            example = rng.choice(["hirzebruch_b", "conic_c", "castravet_d"])
            if example == "hirzebruch_b":
                n = rng.randint(1, 9)
                cfg, rank = {"example": example, "n": n}, n + 3
            elif example == "conic_c":
                n = rng.randint(1, 10)
                cfg, rank = {"example": example, "n": n}, n + 2
            else:
                cfg, rank = {"example": example}, 11
        argv = [command, "--json", json.dumps(cfg, separators=(",", ":"))] + fmt
        requests.append((argv, rank))
    return requests


def run_in_process(argv: list[str]) -> tuple[int, str]:
    """cli.main on argv with stdout captured: exit code and output."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


def cli_env(src: Path) -> dict[str, str]:
    """Environment of a CLI subprocess: the package from src, bytecode
    caching on so that repeated requests load the .pyc files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cli_subprocess_ops(requests: list[tuple[list[str], int]],
                       expected: list[tuple[int, str]],
                       env: dict[str, str], cwd: Path) -> list[Op]:
    """Each request as a fresh `python -m bigsurf` process; its output must
    match the in-process cli.main output byte for byte, with exit code 0."""
    ops = []
    for (argv, rank), (code, text) in zip(requests, expected, strict=True):
        want = text.encode("utf-8")

        def run(argv: list[str] = argv) -> Any:
            return subprocess.run([sys.executable, "-m", "bigsurf", *argv],
                                  capture_output=True, env=env, cwd=cwd, timeout=60)

        def check(proc: Any, want: bytes = want, code: int = code) -> bool:
            return code == 0 and proc.returncode == 0 and proc.stdout == want

        ops.append(Op(argv[0], rank, run, check))
    return ops


def cli_in_process_ops(requests: list[tuple[list[str], int]]) -> list[Op]:
    """The same requests through cli.main in this process."""
    return [Op(argv[0], rank, lambda argv=argv: run_in_process(argv),
               lambda out: out[0] == 0)
            for argv, rank in requests]


# -----------------------------------------------------------------------------


class Workload:
    """One workload's inputs, built from the seed at full or test size.

    run_pass runs every operation once, in process, traced when given a
    tracer.  The cli workload's in-process pass also gives the reference
    output of each request for run_subprocess_pass.
    """

    def __init__(self, name: str, seed: int, small: bool = False) -> None:
        self.name = name
        self.bounds = (3, 3, 2) if small else SWEEP_BOUNDS
        self.requests: list[tuple[list[str], int]] = []
        if name == "sweep":
            self.ops: list[Op] = []
        elif name == "roots":
            self.ops = roots_ops(seed, (5, 6) if small else (12, 16, 20, 24, 28))
        elif name == "classes":
            self.ops = classes_ops(seed, 10 if small else 1)
        elif name == "cli":
            self.requests = cli_requests(seed, 12 if small else 100)
            self.ops = cli_in_process_ops(self.requests)
        else:
            raise ValueError(f"unknown workload {name!r}")

    def run_pass(self, tracer: Any = None, keep: bool = False, meter: Any = None) -> Pass:
        if self.name == "sweep":
            return sweep_pass(self.bounds, meter)
        return closed_loop(self.ops, tracer, keep, meter)

    def run_subprocess_pass(self, reference: Pass, env: dict[str, str], cwd: Path,
                            meter: Any = None) -> Pass:
        expected = [(1, "") if isinstance(out, Exception) else out
                    for out in reference.outputs]
        return closed_loop(cli_subprocess_ops(self.requests, expected, env, cwd),
                           meter=meter)
