#!/usr/bin/env python3
"""Benchmark of the ``nodalseries`` library.

    python3 perfbench/run.py --workload series_corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The library is imported from the ``src/`` directory next to this one; all
work runs on one thread. A run makes the workload's inputs from the seed
(the set-up, done ``SETUP_ROUNDS`` times), then runs the fixed item set in
whole passes for about ``--seconds`` seconds, checking every item's verdicts
against the ones its recipe guarantees. Every execution of an item in any
pass is one latency sample; the timings are taken over all samples of the
run, each divided by the slowdown that other load on the machine caused at
the time, which ``contention`` measures between items. Every set-up and
every pass runs in a process forked for it
alone from a parent that has imported the library but never called it, so
no cache the program keeps carries over from one set-up or pass to the next:
each sees what a fresh run of the CLI sees.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it makes one traced set-up, then untraced and traced passes in turn, and
reports the per-layer metrics of ``tracer.Tracer``. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 when every item gave its expected verdicts, 1 when the gate
failed, 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import contention

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("verify_large", "series_corpus", "orbit_audit")
SETUP_ROUNDS = 3
SETUP_PROBE_S = 0.05  # reference bursts on either side of a set-up last at least this
MIN_PASSES = 3  # so that every item is timed at several moments of the run
TAIL_BEYOND = 10  # samples beyond the tail percentile; the run makes more than twice as many
SHOWN_FAILURES = 5


def load_workloads():
    """Import the workloads, and with them ``nodalseries`` from ``src/``."""
    if not (SRC / "nodalseries" / "__init__.py").is_file():
        raise ImportError(f"no nodalseries package in {SRC}")
    sys.path[:0] = [path for path in (str(SRC), str(HERE)) if path not in sys.path]
    import nodalseries
    import workloads

    if Path(nodalseries.__file__).resolve().parent != SRC / "nodalseries":
        raise ImportError(f"nodalseries was imported from {nodalseries.__file__}, not {SRC}")
    return workloads


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)  # reference-unit times, see contention
    outputs: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0  # of the process that ran the pass


def run_pass(workload, items) -> Pass:
    """Run every item once; an item fails when it raises or its verdicts differ."""
    result = Pass()
    probe = contention.Probe()
    start = time.perf_counter()
    for index, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            observed, canonical = workload.run(item)
        except Exception as exc:  # an item that raises is a failed item, not a crash
            observed, canonical = None, f"raised {type(exc).__name__}: {exc}"
        result.latencies.append(time.perf_counter() - t0)
        probe.after(result.latencies[-1])
        result.outputs.append(canonical)
        if observed != item.expected:
            shown = canonical if observed is None else observed
            result.failures.append(f"item {index} ({item.kind}): expected {item.expected}, got {shown}")
    result.probes = probe.finish()
    result.wall_s = time.perf_counter() - start
    return result


def in_child(fn, *args):
    """``fn(*args)`` in a process forked for this call alone.

    The parent never calls into the library, so the child starts with no
    result of an earlier set-up or pass in memory."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        return pool.submit(fn, *args).result()


def setup_round(workload, seed: int):
    """One set-up, its duration, and reference-unit times taken right before
    and right after it."""
    probes = contention.burst(SETUP_PROBE_S)
    t0 = time.perf_counter()
    prepared = workload.setup(seed)
    duration = time.perf_counter() - t0
    probes += contention.burst(max(SETUP_PROBE_S, contention.PROBE_SHARE * duration))
    return duration, prepared, probes


def pass_round(workload, items) -> Pass:
    result = run_pass(workload, items)
    result.peak_rss_mb = peak_rss_mb()
    return result


def traced_round(fn, phase: str, *args):
    """``fn(*args)`` with every traced function wrapped; its result and the
    tracer's aggregates, charged to ``phase``."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.phase = phase
    tracer.install()
    try:
        return fn(*args), tracer.stats
    finally:
        tracer.uninstall()


def check_repeat(first: Pass, again: Pass) -> None:
    """A later pass, run in another process, must reproduce the first pass's
    outputs exactly."""
    for index, (a, b) in enumerate(zip(first.outputs, again.outputs)):
        if a != b:
            again.failures.append(f"item {index}: output differs from the first pass")


def digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def samples(passes: list[Pass]) -> list[float]:
    """Every item latency of every pass, divided by its pass's slowdown.

    Timings pool all samples rather than take one estimate per item, so that
    what is left of the machine's drift averages over the whole run.
    """
    return [
        latency / contention.slowdown(p.probes) for p in passes for latency in p.latencies
    ]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it,
    and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def result_line(passes: list[Pass], metrics: dict[str, tuple[float, str]]) -> dict:
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def check_setups(prepared, rounds) -> list[str]:
    """Every set-up at one seed must make the same inputs."""
    return [
        f"set-up round {k} made other inputs than round 0"
        for k, (_, again, _) in enumerate(rounds)
        if again.inputs != prepared.inputs
    ]


def report_header(args, prepared, passes: list[Pass]) -> None:
    print(
        f"workload {args.workload}  seed {args.seed}  items {len(prepared.items)}"
        f"  passes {len(passes)}  samples {sum(len(p.latencies) for p in passes)}"
    )
    print(f"inputs  sha256 {digest(prepared.inputs)}")
    print(f"outputs sha256 {digest(passes[0].outputs)}")
    print(f"generation errors in set-up (entries skipped): {prepared.generation_errors}")
    failures = [line for p in passes for line in p.failures]
    for line in failures[:SHOWN_FAILURES]:
        print(f"FAIL {line}", file=sys.stderr)


def timed_run(args, workload, import_s: float) -> dict:
    rounds = [in_child(setup_round, workload, args.seed) for _ in range(SETUP_ROUNDS)]
    prepared = rounds[0][1]
    items = prepared.items
    passes: list[Pass] = []
    start = time.perf_counter()
    # stop at the pass boundary nearest to --seconds, after at least MIN_PASSES
    # and once the tail percentile lies above the median
    while (
        len(passes) < MIN_PASSES
        or len(passes) * len(items) <= 2 * TAIL_BEYOND
        or time.perf_counter() - start + passes[-1].wall_s / 2 < args.seconds
    ):
        passes.append(in_child(pass_round, workload, items))
    for again in passes[1:]:
        check_repeat(passes[0], again)
    passes[0].failures.extend(check_setups(prepared, rounds))
    timed = samples(passes)
    tail_s, tail_percentile = tail(timed)
    setup_slowdowns = [contention.slowdown(probes) for _, _, probes in rounds]
    setup_times = [seconds / factor for (seconds, _, _), factor in zip(rounds, setup_slowdowns)]
    pass_slowdowns = [contention.slowdown(p.probes) for p in passes]
    raw = [latency for p in passes for latency in p.latencies]
    metrics = {
        "setup_s": (import_s / statistics.median(setup_slowdowns) + statistics.median(setup_times), "s"),
        "items_per_s": (len(timed) / sum(timed), "1/s"),
        "item_p50_ms": (1000.0 * statistics.median(timed), "ms"),
        "item_tail_ms": (1000.0 * tail_s, "ms"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
    }
    result = result_line(passes, metrics)
    report_header(args, prepared, passes)
    raw_tail_s, _ = tail(raw)
    notes = {
        "setup_s": f"import + median of {SETUP_ROUNDS} set-ups {[round(r, 3) for r in setup_times]};"
        f" as measured {import_s + statistics.median(r[0] for r in rounds):.4f}",
        "items_per_s": f"{len(timed)} samples ({len(items)} items x {len(passes)} passes)"
        f" over their summed latency; as measured {len(raw) / sum(raw):.4f}",
        "item_p50_ms": f"median of {len(timed)} samples; as measured {1000.0 * statistics.median(raw):.4f}",
        "item_tail_ms": f"p{tail_percentile:.2f} of {len(timed)} samples; as measured"
        f" {1000.0 * raw_tail_s:.4f}",
        "peak_rss_mb": f"median over the {len(passes)} passes' processes",
    }
    print(f"slowdown by other load: set-ups {[round(f, 3) for f in setup_slowdowns]}, passes"
          f" {min(pass_slowdowns):.3f}-{max(pass_slowdowns):.3f} (median"
          f" {statistics.median(pass_slowdowns):.3f}), from {sum(len(p.probes) for p in passes)}"
          f" reference samples in the passes, best {1000.0 * min(min(p.probes) for p in passes):.4f} ms"
          f" against {1000.0 * contention.REFERENCE_S} ms; timings below are divided by it")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<13} {value:12.4f} {unit:<5} {notes[name]}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<13} {ratio:12.4f} ratio {result['failed']} of {result['attempted']} items")
    return result


def traced_run(args, workload) -> dict:
    """One traced set-up, then untraced and traced passes in turn for
    ``--seconds``. Counts are those of the set-up and the first traced pass;
    self times add the set-up's to the mean of the traced passes."""
    import tracer as tracing

    tracer = tracing.Tracer()
    (_, prepared, _), stats = in_child(traced_round, setup_round, "setup", workload, args.seed)
    tracer.stats.update(stats)
    items = prepared.items
    untraced, traced, phases = [], [], []
    start = time.perf_counter()
    while not phases or (
        time.perf_counter() - start + (untraced[-1].wall_s + traced[-1].wall_s) / 2 < args.seconds
    ):
        untraced.append(in_child(pass_round, workload, items))
        phases.append(f"pass{len(phases) + 1}")
        done, stats = in_child(traced_round, pass_round, phases[-1], workload, items)
        traced.append(done)
        tracer.stats.update(stats)
    passes = untraced + traced
    for again in passes[1:]:
        check_repeat(passes[0], again)

    def calls(key: str) -> int:
        return tracer.total(key, ("setup", phases[0])).calls

    def self_s(key: str) -> float:
        return tracer.total(key, ("setup",)).self_s + tracer.total(key, tuple(phases)).self_s / len(phases)

    metrics: dict[str, tuple[float, str]] = {}
    for key in tracing.FUNCTIONS:
        metrics[f"{key}.calls"] = (calls(key), "count")
        metrics[f"{key}.self_s"] = (self_s(key), "s")
    for layer in tracing.TARGETS:
        layer_s = sum(self_s(key) for key in tracing.FUNCTIONS if key.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (layer_s, "s")
    for key in ("torus.block_profile", "curve.section_space", "linalg.determinant"):
        per_item = tracer.total(key, (phases[0],)).calls / len(items)
        metrics[f"{key}.calls_per_item"] = (per_item, "calls/item")
    pairs = tracer.total("generate.random_linked_pair", ("setup",))
    draws = tracer.total("generate.random_nonfixed_subspace", ("setup",)).calls
    accepted = pairs.calls - pairs.errors
    metrics["generate.random_linked_pair.errors"] = (pairs.errors, "count")
    metrics["generate.random_linked_pair.accept_ratio"] = (accepted / draws if draws else 0.0, "ratio")
    traced_s = statistics.median(sum(p.latencies) for p in traced)
    untraced_s = statistics.median(sum(p.latencies) for p in untraced)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")

    result = result_line(passes, metrics)
    report_header(args, prepared, passes)
    print(f"linked pairs accepted {accepted} of {draws} nonfixed draws in set-up")
    print(f"tracing overhead: median item time per pass {traced_s:.3f} s traced / {untraced_s:.3f} s untraced,"
          f" {len(phases)} passes each")
    for phase in ("setup", phases[0]):
        per_phase = tracer.stats.get(phase, {})
        total = sum(s.self_s for s in per_phase.values())
        print(f"{phase}: {total:.3f} s self time in traced functions; top functions by self"
              " and by inclusive time (self s, share of self time, inclusive s, calls):")
        by_self = sorted(per_phase.items(), key=lambda kv: -kv[1].self_s)[:8]
        by_inclusive = sorted(per_phase.items(), key=lambda kv: -kv[1].total_s)[:4]
        for key, stat in by_self + [kv for kv in by_inclusive if kv not in by_self]:
            share = stat.self_s / total if total else 0.0
            print(f"  {key:<42} {stat.self_s:9.4f} {share:6.1%} {stat.total_s:9.4f} {stat.calls:9d}")
    return result


def run_all(args) -> int:
    """Run each workload in a child process; print all end-to-end metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        status = max(status, child.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return max(status, 1)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        workloads = load_workloads()
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        workload = workloads.WORKLOADS[args.workload](Path(workdir))
        if args.trace:
            result = traced_run(args, workload)
        else:
            result = timed_run(args, workload, import_s)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
