"""Tests of the benchmark itself, on reduced inputs.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import bigsurf  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as w  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _quick_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_reduced_pass_gives_every_declared_metric(name, trace):
    outcome = run.run_workload(name, seed=3, seconds=0, trace=trace, small=True)
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(outcome["metrics"]) == declared
    assert outcome["correct"] and outcome["failed"] == 0 and outcome["attempted"] > 0
    assert all(isinstance(v, float) for v in outcome["metrics"].values())
    assert outcome["ladder"]


def test_end_to_end_metrics_are_positive():
    outcome = run.run_workload("roots", seed=3, seconds=0, trace=False, small=True)
    assert all(v > 0 for v in outcome["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(name):
    load = w.Workload(name, seed=4, small=True)
    plain = load.run_pass(keep=True)
    with tracing.Tracer() as tracer:
        traced = load.run_pass(tracer, keep=True)
    assert tracer.spans
    assert traced.outputs == plain.outputs
    assert all(r.ok for r in plain.records + traced.records)


def test_tracer_restores_every_binding():
    before = (bigsurf.linalg.integer_kernel, bigsurf.bigness.integer_kernel,
              bigsurf.picard.DivisorClass.__rmul__, bigsurf.cli.classify_roots)
    with tracing.Tracer():
        assert bigsurf.bigness.integer_kernel is not before[1]
        assert bigsurf.picard.DivisorClass.__rmul__ is not before[2]
        assert bigsurf.cli.classify_roots is not before[3]
    after = (bigsurf.linalg.integer_kernel, bigsurf.bigness.integer_kernel,
             bigsurf.picard.DivisorClass.__rmul__, bigsurf.cli.classify_roots)
    assert after == before


def test_tracer_fails_loudly_on_a_missing_function(monkeypatch):
    layers = dict(tracing.LAYERS, **{"linalg.gone": ("bigsurf.linalg:no_such_function",)})
    monkeypatch.setattr(tracing, "LAYERS", layers)
    with pytest.raises(LookupError, match="no_such_function"):
        tracing.Tracer().install()


def test_speed_scale_uses_the_samples_around_a_call():
    meter = speed.SpeedMeter()
    meter.mids[:] = [0.0, 1.0, 2.0, 3.0, 10.0]
    meter.times[:] = [0.02, 0.04, 0.02, 0.02, 0.08]
    ref = speed.REFERENCE_S
    assert meter.scale(1.9, 2.1) == pytest.approx(ref / 0.02)
    assert meter.scale(5.0, 6.0) == pytest.approx(ref / 0.05)


def test_scaled_passes_take_the_host_speed_out():
    meter = speed.SpeedMeter()
    meter.mids[:] = [0.0, 5.0]
    meter.times[:] = [2 * speed.REFERENCE_S] * 2
    records = [w.Record("a", 1, 1.0, True, 1.0), w.Record("b", 2, 0.4, True, 2.0)]
    (p,) = run.scaled([w.Pass(1.5, records, [], 1.0, 0.1)], meter)
    assert [r.seconds for r in p.records] == pytest.approx([0.5, 0.2])
    assert p.gap_s == pytest.approx(0.05) and p.wall_s == pytest.approx(0.75)


def test_speed_samples_are_not_counted_in_a_call():
    meter = speed.SpeedMeter()
    op = w.Op("sampling", 1, meter.sample, lambda out: True)
    p = w.closed_loop([op], meter=meter)
    assert len(meter.times) == 3
    assert p.records[0].seconds < min(meter.times) / 2


def test_self_time_excludes_children():
    t = tracing.Tracer()
    t.spans[:] = [["outer", -1, 0, 100], ["inner", 0, 10, 40], ["inner", 0, 50, 60]]
    self_s, durations = t.self_times()
    assert self_s["outer"] == pytest.approx(60e-9)
    assert self_s["inner"] == pytest.approx(40e-9)
    assert len(durations["inner"]) == 2
    assert t.calls_under("inner", "outer") == 2


def _op(ops, label):
    return next(op for op in ops if op.label == label)


def test_roots_check_rejects_a_wrong_root_count():
    op = _op(w.roots_ops(1, (5,)), "D5")
    (report,) = op.run()
    assert op.check([report])
    assert not op.check([dataclasses.replace(report, roots=report.roots[:-1])])


def test_classes_checks_reject_corrupted_results():
    ops = w.classes_ops(1, scale=10)
    tl = _op(ops, "TL10")
    verdict = tl.run()
    assert tl.check(verdict)
    assert not tl.check(dataclasses.replace(verdict, big=not verdict.big))
    assert not tl.check(dataclasses.replace(verdict, v_squared=verdict.v_squared + 1))
    z = _op(ops, "Z8")
    report = z.run()
    assert z.check(report)
    assert not z.check(dataclasses.replace(report, p_squared=report.p_squared * 2))


def test_sweep_check_rejects_missing_configurations_and_disagreements():
    report = bigsurf.agreement_sweep(2, 2, 1)
    assert w.sweep_check(report, (2, 2, 1))
    assert not w.sweep_check(report, (2, 3, 1))
    assert not w.sweep_check(dataclasses.replace(report, disagreements=("x",)), (2, 2, 1))


def test_cli_check_rejects_changed_bytes_and_exit_codes():
    argv, rank = w.cli_requests(5, 1)[0]
    code, text = w.run_in_process(argv)
    (good,) = w.cli_subprocess_ops([(argv, rank)], [(code, text)], {}, BENCH.parent)
    (bad,) = w.cli_subprocess_ops([(argv, rank)], [(code, text + " ")], {}, BENCH.parent)
    proc = subprocess.CompletedProcess(argv, 0, stdout=text.encode(), stderr=b"")
    assert good.check(proc)
    assert not bad.check(proc)
    assert not good.check(subprocess.CompletedProcess(argv, 1, proc.stdout, b""))


def test_failed_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(w, "_family_root_count", lambda family, rank: 0)
    outcome = run.run_workload("roots", seed=3, seconds=0, trace=False, small=True)
    assert not outcome["correct"] and outcome["failed"] == outcome["attempted"]
    monkeypatch.setattr(run, "run_workload", lambda *args: outcome)
    assert run.report("roots", 3, 0, False) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(last)["correct"] is False
