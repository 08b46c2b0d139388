"""Tests of the benchmark itself: tracer coverage, self-time accounting, the
slowdown correction, the correctness gate, digests, isolation of passes, and
the metric list in BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import contention  # noqa: E402
import nodalseries  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _package_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "nodalseries"]


def _shrink(monkeypatch, cls, count: int, edit=None) -> None:
    """Keep only the first ``count`` items of a workload, optionally editing them."""
    setup = cls.setup

    def small_setup(self, seed):
        prepared = setup(self, seed)
        prepared.items = prepared.items[:count]
        if edit is not None:
            edit(prepared.items)
        return prepared

    monkeypatch.setattr(cls, "setup", small_setup)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_tracer_wraps_every_binding():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        originals = tracer.originals()
        assert set(originals) == set(tracing.FUNCTIONS)
        ids = {id(fn): key for key, fn in originals.items()}
        for module in _package_modules():
            for binding, value in vars(module).items():
                assert id(value) not in ids, f"{module.__name__}.{binding} is unwrapped"
                if isinstance(value, type) and value.__module__.startswith("nodalseries"):
                    for attr, raw in vars(value).items():
                        fn = getattr(raw, "__func__", raw)
                        assert id(fn) not in ids, f"{value.__name__}.{attr} is unwrapped"
        nodalseries.rref(nodalseries.Matrix.from_rows([[1, 2], [2, 4]]))
        assert tracer.total("linalg.rref").calls == 1
        assert tracer.total("linalg.Matrix.from_rows").calls >= 1
    finally:
        tracer.uninstall()
    assert nodalseries.linalg.rref is originals["linalg.rref"]
    assert nodalseries.rref is originals["linalg.rref"]
    assert nodalseries.Subspace.from_spanning.__func__ is originals["linalg.Subspace.from_spanning"]


def test_self_times_add_up_to_top_level_spans(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.SeriesCorpus, "MAX_D", 1)
    workload = workloads.SeriesCorpus(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        prepared = workload.setup(5)
        tracer.phase = "timed"
        assert not run.run_pass(workload, prepared.items).failures
    finally:
        tracer.uninstall()
    self_total = sum(tracer.total(key).self_s for key in tracing.FUNCTIONS)
    assert tracer.top_level_s > 0
    assert math.isclose(self_total, tracer.top_level_s, rel_tol=1e-9, abs_tol=1e-9)
    assert tracer.total("generate.random_exact_lls", ("setup",)).calls == len(prepared.items)
    assert tracer.total("chain.build_chain", ("timed",)).calls >= len(prepared.items)


def test_timings_are_divided_by_the_slowdown_of_their_pass():
    slow = run.Pass(latencies=[1.0, 3.0], probes=[2 * contention.REFERENCE_S] * 4)
    idle = run.Pass(latencies=[1.0], probes=[contention.REFERENCE_S, contention.REFERENCE_S])
    assert run.samples([slow, idle]) == [0.5, 1.5, 1.0]
    probe = contention.Probe()
    probe.after(contention.PROBE_EVERY / 2)
    assert probe.samples == []  # too little item time for a burst yet
    assert len(probe.finish()) >= 1  # but every pass ends with one


def test_gate_reports_a_flipped_verdict(monkeypatch, capsys):
    def flip(items):
        items[0].expected["exact"] = not items[0].expected["exact"]

    monkeypatch.setattr(workloads.SeriesCorpus, "MAX_D", 1)
    _shrink(monkeypatch, workloads.SeriesCorpus, 2)
    argv = ["--workload", "series_corpus", "--seed", "3", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    clean = _last_json(capsys.readouterr().out)
    assert clean["correct"] and clean["failed"] == 0

    _shrink(monkeypatch, workloads.SeriesCorpus, 2, edit=flip)
    assert run.main(argv) == 1
    out = capsys.readouterr().out
    result = _last_json(out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2  # item 0 of 2, every pass
    assert "fail_ratio" in out and "0.5000" in out


def test_passes_do_not_share_state(monkeypatch, capsys):
    """What one pass leaves in memory, as a cache would, is gone in the next."""
    calls = []
    original = workloads.SeriesCorpus.run

    def remembering_run(self, item):
        observed, canonical = original(self, item)
        calls.append(item.kind)
        return observed, f"{canonical}\ncalls before: {len(calls) - 1}"

    monkeypatch.setattr(workloads.SeriesCorpus, "MAX_D", 1)
    monkeypatch.setattr(workloads.SeriesCorpus, "run", remembering_run)
    _shrink(monkeypatch, workloads.SeriesCorpus, 2)
    argv = ["--workload", "series_corpus", "--seed", "4", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    result = _last_json(capsys.readouterr().out)
    # 2 items need 11 passes before more than 2 * TAIL_BEYOND samples exist
    assert result["correct"] and result["attempted"] == 2 * (run.TAIL_BEYOND + 1)
    assert calls == []  # every item ran in a child process


@pytest.mark.parametrize("cls", [workloads.VerifyLarge, workloads.SeriesCorpus, workloads.OrbitAudit])
def test_digests_repeat_at_one_seed(cls, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.VerifyLarge, "SHAPES", ((3, 1, (1, 2, 1)),))
    monkeypatch.setattr(workloads.VerifyLarge, "COUNT", 2)
    monkeypatch.setattr(workloads.SeriesCorpus, "MAX_D", 2)
    monkeypatch.setattr(workloads.OrbitAudit, "LINKED", workloads.OrbitAudit.LINKED[:3])
    monkeypatch.setattr(workloads.OrbitAudit, "CHAINS", workloads.OrbitAudit.CHAINS[:1])
    workload = cls(tmp_path)
    runs = []
    for _ in range(2):
        prepared = workload.setup(11)
        done = run.run_pass(workload, prepared.items)
        assert not done.failures
        runs.append((run.digest(prepared.inputs), run.digest(done.outputs)))
    assert runs[0] == runs[1]
    assert run.digest(workload.setup(12).inputs) != runs[0][0]


def test_benchmark_json_names_every_reported_metric(monkeypatch, capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(workloads.OrbitAudit, "LINKED", workloads.OrbitAudit.LINKED[:3])
    _shrink(monkeypatch, workloads.OrbitAudit, 3)
    argv = ["--workload", "orbit_audit", "--seed", "2", "--seconds", "0"]
    assert run.main(argv + ["--trace", "0"]) == 0
    timed = _last_json(capsys.readouterr().out)["metrics"]
    assert run.main(argv + ["--trace", "1"]) == 0
    traced = _last_json(capsys.readouterr().out)["metrics"]
    for section, reported in (("end_to_end", timed), ("per_layer", traced)):
        assert [m["name"] for m in spec[section]] == list(reported)
        assert [m["unit"] for m in spec[section]] == [v["unit"] for v in reported.values()]
    assert traced["generate.random_linked_pair.calls"]["value"] == 3
    assert traced["generate.random_linked_pair.errors"]["value"] >= 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    command = [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "orbit_audit",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
