"""bigsurf benchmark: one workload per invocation, or all of them in turn.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Every time of an end-to-end metric is scaled to the host's reference speed
(see speed.py), measured in the same run on the same CPU: on a shared host
raw times drift by 15-20 % between runs of the same code.  The raw setup
and pass times are printed beside the scaled ones and kept in the result
file.

The package is imported from the src/ directory of the tree this file sits
in, never from an installed copy.  With --trace 0 the last stdout line is a
JSON object carrying every end-to-end metric of BENCHMARK.json; with
--trace 1 it carries every per-layer metric, from a traced measurement of
the same workload that follows an untraced one.  The lines before it give
the environment, every metric by name and unit, failed_frac and the rank
ladder.  Spans and a result file go to .bench_out/.  The exit code is
non-zero when any operation's output fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from speed import REFERENCE_S, SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep", "roots", "classes", "cli")
SETUP_REPEATS = 21


def _commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict[str, Any]:
    return {"commit": _commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "loadavg": list(os.getloadavg()), "seed": seed}


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the speed
    samples see the CPU the measured work runs on; a request's child
    process then runs where the samples were taken, while this one waits."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure_setup(env: dict[str, str], meter: SpeedMeter) -> tuple[float, float]:
    """Median time a fresh interpreter takes to run `import bigsurf.cli`,
    timed inside it, scaled to the host's reference speed; and the raw
    median.

    The interpreter's own start (site and what it imports) is left out, as
    it is not the program's.  An untimed CLI request first writes the
    bytecode cache, so every timed import reads .pyc files, as a user's
    repeated invocations do.
    """
    subprocess.run([sys.executable, "-m", "bigsurf", "classify", "--json",
                    '{"model":"generic","r":6}'],
                   env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
    cmd = [sys.executable, "-c", "from time import perf_counter as now; t = now(); "
           "import bigsurf.cli; print(repr(now() - t))"]
    times = []
    for _ in range(SETUP_REPEATS):
        meter.sample()
        t0 = perf_counter()
        child = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                               text=True, timeout=60)
        times.append((t0, perf_counter() - t0, float(child.stdout)))
    meter.sample()
    return (statistics.median(s * meter.scale(t0, t0 + wall) for t0, wall, s in times),
            statistics.median(s for _, _, s in times))


def repeat_passes(run_pass: Callable[..., Any], seconds: float) -> list[Any]:
    """Back-to-back passes, at least one, while the next is expected to
    end within the time budget.  The first pass keeps its outputs."""
    start = perf_counter()
    passes = [run_pass(keep=True)]
    while perf_counter() - start + passes[-1].wall_s <= seconds:
        passes.append(run_pass())
    return passes


def quantile(values: list[float], q: float) -> float:
    """The q-quantile, interpolating linearly between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def scaled(passes: list[Any], meter: SpeedMeter) -> list[Any]:
    """The passes with every time scaled to the host's reference speed: an
    operation by the speed samples around it, the time between operations
    by those around the whole pass."""
    out = []
    for p in passes:
        records = [replace(r, seconds=r.seconds * meter.scale(r.start, r.start + r.seconds))
                   for r in p.records]
        gap_s = p.gap_s * meter.scale(p.start, p.start + p.wall_s)
        out.append(replace(p, records=records, gap_s=gap_s,
                           wall_s=sum(r.seconds for r in records) + gap_s))
    return out


def end_to_end(passes: list[Any], setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of the untraced passes, their times scaled.

    The host's speed swings within seconds, so every time is averaged over
    the whole run: an operation's latency is its mean over the passes, and
    the percentiles are taken over operations.
    """
    per_op = [statistics.fmean(r.seconds for r in same)
              for same in zip(*(p.records for p in passes))]
    ranks = [r.rank for r in passes[0].records]
    total = sum(p.wall_s for p in passes)
    return {
        "setup_s": setup_s,
        "wall_s": total / len(passes),
        "ops_per_s": sum(len(p.records) for p in passes) / total,
        "op_p50_ms": 1000 * quantile(per_op, 0.5),
        "op_p90_ms": 1000 * quantile(per_op, 0.9),
        "top_rung_s": statistics.fmean(t for t, rank in zip(per_op, ranks) if rank == max(ranks)),
        "peak_rss_mb": peak_rss_mb,
    }


def ladder(passes: list[Any]) -> dict[str, float]:
    """Mean time per rung label, in order of rank."""
    by_label: dict[str, tuple[int, list[float]]] = {}
    for r in (r for p in passes for r in p.records):
        by_label.setdefault(r.label, (r.rank, []))[1].append(r.seconds)
    ordered = sorted(by_label.items(), key=lambda item: (item[1][0], item[0]))
    return {label: statistics.fmean(times) for label, (_, times) in ordered}


def per_layer(tracer: Any, traced: list[Any], untraced: list[Any]) -> dict[str, float]:
    """Every per-layer metric, as an amount per traced pass.  Self times
    are raw span times; trace.overhead_frac compares the passes' scaled
    times, taken at different moments on a host whose speed drifts."""
    k = len(traced)
    self_s, durations = tracer.self_times()
    cross = durations.get("bigness.cross_check", [])
    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0) / k for layer in (
        "linalg.integer_kernel", "linalg.gram_restrict",
        "linalg.is_negative_definite", "linalg.short_vectors",
        "picard.anticanonical_components", "picard.PicardLattice.pair",
        "picard.DivisorClass.arith", "picard.verify_witness",
        "bigness.cross_check", "bigness.orthogonal_complement",
        "bigness.classify_anticanonical", "roots.extract_roots", "roots.classify",
        "zariski.zariski_decompose", "enumeration.negative_classes",
        "serialize.to_dict", "cli.main")}
    metrics.update({f"{layer}.calls": len(durations.get(layer, [])) / k for layer in (
        "linalg.integer_kernel", "linalg.is_negative_definite",
        "picard.config_lattice", "picard.PicardLattice.pair",
        "picard.DivisorClass.arith")})
    metrics.update({name: tracer.counts[name] / k for name in (
        "linalg.short_vectors.vectors_out", "roots.classify.roots_in")})
    metrics["picard.config_lattice.per_cross_check"] = (
        tracer.calls_under("picard.config_lattice", "bigness.cross_check") / len(cross)
        if cross else 0.0)
    metrics["bigness.cross_check.p50_ms"] = 1000 * quantile(cross, 0.5) if cross else 0.0
    metrics["bigness.cross_check.p99_ms"] = 1000 * quantile(cross, 0.99) if cross else 0.0
    metrics["trace.overhead_frac"] = (statistics.fmean(p.wall_s for p in traced)
                                      / statistics.fmean(p.wall_s for p in untraced) - 1)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict[str, Any]:
    """Measure one workload.

    Returns the result line (correct, attempted, failed, metric values)
    and the rank ladder.  With trace, the workload is measured untraced for
    half the time and then traced for as many passes.
    """
    import workloads as w
    from tracer import Tracer

    env = w.cli_env(SRC)
    meter = SpeedMeter()
    setup_s, raw_setup_s = measure_setup(env, meter)
    load = w.Workload(name, seed, small)
    budget = seconds / 2 if trace else seconds
    if name == "cli":
        load.run_pass()  # untimed: first calls of cli.main settle
        # in process: the reference output of every request
        untraced = [load.run_pass(keep=True, meter=meter)]
        timed = repeat_passes(
            lambda keep=False: load.run_subprocess_pass(untraced[0], env, ROOT, meter), budget)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        with meter.ticking():
            untraced = timed = repeat_passes(
                lambda keep=False: load.run_pass(keep=keep, meter=meter), budget)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checked = untraced + timed if name == "cli" else timed
    mismatches = 0
    if trace:
        tracer = Tracer()
        with tracer:
            # speed samples between calls only, so that no span holds one
            traced = [load.run_pass(tracer, keep=True, meter=meter) for _ in untraced]
        checked = checked + traced
        mismatches = sum(t.outputs != untraced[0].outputs for t in traced)
        in_process = scaled(untraced, meter)
        metrics = per_layer(tracer, scaled(traced, meter), in_process)
        metrics["cli.bytes_out"] = float(sum(
            len(out[1].encode("utf-8")) for out in traced[0].outputs)) if name == "cli" else 0.0
        metrics["cli.process_overhead_ms"] = 1000 * (
            statistics.median(r.seconds for p in scaled(timed, meter) for r in p.records)
            - statistics.median(r.seconds for r in in_process[0].records)) if name == "cli" else 0.0
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}.jsonl")
    steady = scaled(timed, meter)
    if not trace:
        metrics = end_to_end(steady, setup_s, rss_kb * 1024 / 1e6)
    attempted = sum(len(p.records) for p in checked) + mismatches
    failed = sum(not r.ok for p in checked for r in p.records) + mismatches
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "ladder": ladder(steady),
            "pass_wall_s": [p.wall_s for p in steady],
            "raw": {"setup_s": raw_setup_s,
                    "pass_wall_s": [p.wall_s for p in timed],
                    "reference_loop_ms": 1000 * meter.median_s(),
                    "speed_samples": len(meter.times)}}


def _spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload, print its metrics and the result line."""
    env = environment(seed)
    print("environment", json.dumps(env), flush=True)
    outcome = run_workload(name, seed, seconds, trace)
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    if set(outcome["metrics"]) != set(declared):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(outcome['metrics']) ^ set(declared))}")
    metrics = {m: {"value": outcome["metrics"][m], "unit": unit} for m, unit in declared.items()}
    for m, v in metrics.items():
        print(f"{name}.{m} {v['value']:.6g} {v['unit']}")
    failed_frac = outcome["failed"] / outcome["attempted"]
    print(f"{name}.failed_frac {failed_frac:.6g} frac "
          f"({outcome['failed']} of {outcome['attempted']})")
    for label, secs in outcome["ladder"].items():
        print(f"{name}.rung.{label}_s {secs:.6g} s")
    raw = outcome["raw"]
    print(f"{name}.raw.setup_s {raw['setup_s']:.6g} s")
    print(f"{name}.raw.wall_s {statistics.fmean(raw['pass_wall_s']):.6g} s")
    print(f"host.reference_loop_ms {raw['reference_loop_ms']:.6g} ms "
          f"({raw['speed_samples']} samples; {1000 * REFERENCE_S:g} ms sets the scale)")
    result = {"correct": outcome["correct"], "attempted": outcome["attempted"],
              "failed": outcome["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-trace{int(trace)}.json").write_text(json.dumps(
        {"environment": env, "workload": name, "seconds": seconds,
         "failed_frac": failed_frac, "pass_wall_s": outcome["pass_wall_s"], "raw": raw,
         "ladder": outcome["ladder"], **result},
        indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if outcome["correct"] else 1


def report_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, in turn; one combined last line."""
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    if worst <= 1:
        print(json.dumps(combined), flush=True)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bigsurf" / "__init__.py").is_file():
        print(f"bench: no bigsurf package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    pin_to_one_cpu()
    if args.workload == "all":
        return report_all(args.seed, args.seconds, bool(args.trace))
    return report(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
