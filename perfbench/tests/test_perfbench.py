"""Tests of the benchmark's own tooling: self-time arithmetic, wrapper coverage, gates.

The coverage tests run one traced ``verify`` process per workload (about 20 s
in all).  A wrapper that misses a by-name import records no calls, so they
fail for it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

SEED = run.DEFAULT_SEED
ALL_TARGETS = {name for name, *_ in tracer.TARGETS}
FOCK_TARGETS = {n for n in ALL_TARGETS if n.startswith("fock.")}
# Wrapped names that only the Fock route (Eq21/Eq47) reaches.
FOCK_ONLY = FOCK_TARGETS | {"qlaurent.delta_extract", "heisenberg.ModeBracketTable.value"}
USES = {
    "fock-A2": ALL_TARGETS,
    "series-E8": ALL_TARGETS - FOCK_ONLY,
    "wide-E6": ALL_TARGETS - FOCK_ONLY,
}


def span(name, start, end, parent=None, in_leaf=False, leaf_s=0.0):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "in_leaf": in_leaf, "leaf_s": leaf_s}


def test_self_time_on_synthetic_nested_spans():
    spans = [
        # a check whose direct leaf call (5.5 .. 8.5) covers 3 s
        span("check", 0.0, 10.0, leaf_s=3.0),
        # two overlapping children: their union 1 .. 5 covers 4 s, not 5 s
        span("contract", 1.0, 4.0, parent=0),
        span("contract", 3.0, 5.0, parent=0),
        # a grandchild, and a child of it that runs past its parent's end
        span("sector_modes", 1.5, 2.0, parent=1),
        span("inner", 1.9, 2.5, parent=3),
        # a span inside the leaf call: already counted in the check's leaf_s
        span("contract", 6.0, 8.0, parent=0, in_leaf=True),
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx(
        {"check": 10 - 4 - 3, "contract": 2.5 + 2.0 + 2.0, "sector_modes": 0.4, "inner": 0.6}
    )


def test_tracer_wrappers_fold_leaf_time_into_the_enclosing_span(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracer, "clock", lambda: float(next(ticks)))
    t = tracer.Tracer("synthetic")
    inner = t.wrap("inner", lambda: None, span=True)
    leaf = t.wrap("leaf", lambda: inner())
    side = t.wrap("side", lambda: None, span=True)

    def body():
        leaf()
        side()

    t.wrap("outer", body, span=True)()
    # clock reads: outer 0, leaf 1, inner 2..3, leaf 4, side 5..6, outer 7
    assert t.counters["leaf"][:2] == [1, 3.0]
    assert tracer.self_times(t.dump()["spans"]) == {"outer": 3.0, "inner": 1.0, "side": 1.0}


def test_child_env_strips_the_worker_pool(monkeypatch):
    monkeypatch.setenv("SCREENALG_WORKERS", "4")
    assert "SCREENALG_WORKERS" not in run.child_env()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced process per workload."""
    work = tmp_path_factory.mktemp("perfbench")
    out = {}
    for name, w in run.WORKLOADS.items():
        p = run.run_process(w, SEED, True, f"test-{name}", timeout=120, workdir=work)
        assert not p.error, f"{name}: {p.error}"
        out[name] = p
    return out


@pytest.mark.parametrize("workload", sorted(USES))
def test_every_wrapped_name_records_calls_on_its_workload(traced, workload):
    p = traced[workload]
    counters = p.trace["counters"]
    assert set(counters) == ALL_TARGETS | {tracer.CHECK_SPAN}
    silent = sorted(n for n in USES[workload] if counters[n]["calls"] == 0)
    assert not silent, f"wrapped but never called on {workload}: {silent}"
    checks = [s["label"] for s in p.trace["spans"] if s["name"] == tracer.CHECK_SPAN]
    assert checks == list(p.workload.checks)


@pytest.mark.parametrize("workload", ["series-E8", "wide-E6"])
def test_fock_counts_are_zero_off_the_fock_workload(traced, workload):
    vals = run.layer_values(traced[workload].trace, traced[workload].report)
    fock = {k: v for k, v in vals.items() if k.startswith("fock.")}
    assert fock and all(v == 0 for v in fock.values()), fock
    on_a2 = run.layer_values(traced["fock-A2"].trace, traced["fock-A2"].report)
    assert all(on_a2[f"{n}.calls"] > 0 for n in FOCK_TARGETS)


def test_report_gate_rejects_wrong_reports(traced):
    p = traced["fock-A2"]
    good = p.report
    assert run.check_report(p.workload, SEED, 0, good) == ""
    assert run.check_report(p.workload, SEED + 1, 0, good)
    assert run.check_report(p.workload, SEED, 1, good)
    short = dict(good, checks=good["checks"][1:])
    assert "expected the 48" in run.check_report(p.workload, SEED, 0, short)
    failing = json.loads(json.dumps(good))
    failing["checks"][0]["pass"] = False
    assert run.check_report(p.workload, SEED, 0, failing)
    assert run.check_report(p.workload, SEED, 0, None)


def test_a_hung_process_is_killed_and_counts_every_check_failed(tmp_path):
    w = run.WORKLOADS["fock-A2"]
    p = run.run_process(w, SEED, False, "test-timeout", timeout=0.5, workdir=tmp_path)
    assert p.error.startswith("timed out")
    assert (p.attempted, p.failed) == (48, 48)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fock-A2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
