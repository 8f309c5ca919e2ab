"""screenalg benchmark: time to a verdict of ``verify`` on fixed workloads.

    python3 perfbench/run.py --workload fock-A2 --seed 75018 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, interleaved, as a table

Run from the root of a source checkout; nothing needs installing or building.
Each measurement is a fresh ``verify`` process (``child.py``), started one at
a time, because a CLI user pays the cold module caches (``lru_cache`` on
``states_of_degree``, ``_den_lattice``, ``_merged_kappa``) on every run.
Processes are started while they still fit in ``--seconds`` (at least one),
and the run reports medians over them.  With ``--workload all`` the workloads take
turns process by process, so that host drift spreads over all of them.

Every report is checked: exit code, check names against the expected list,
run parameters, and ``pass`` on every row.  A crash, a timeout or a wrong
report counts all of that process's checks as failed.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and ``failed``
(catalogue checks) and ``metrics``, which are the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced processes; the difference of their median wall
times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import TARGETS, self_times

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
DEFAULT_SEED = 75018
# A process still running this long after the run's time is up is killed and
# counted as failed (D4's Fock route runs for minutes); this keeps a run of
# --seconds <= 60 under 180 s.
PROCESS_TIMEOUT_S = 110.0

CATALOGUE = (
    "theta-quasiperiodicity", "heisenberg-bracket",
    "Eq7-SpSp-exchange", "Eq8-SmSm-exchange",
    "Eq10-SpSm-same-node", "Eq11-SpSm-adjacent", "Eq12-SpSm-orthogonal",
    "Eq13-SmSp-same-node", "Eq14-SmSp-adjacent", "Eq15-SmSp-orthogonal",
    "PostEq20-EF-same-node", "PostEq20-EF-adjacent", "PostEq20-EF-orthogonal",
    "PostEq20-FE-same-node", "PostEq20-FE-adjacent", "PostEq20-FE-orthogonal",
    "Eq19-EE-exchange", "Eq20-FF-exchange", "Eq21-EF-commutator",
    "Eq24-HH-exchange", "Eq25-HpHm-exchange", "Eq26-HpE-exchange", "Eq27-HmE-exchange",
    "Eq28-HpF-exchange", "Eq29-HmF-exchange",
    "Eq30-sl2-HH-generic-c", "Eq31-sl2-HpHm-generic-c", "Eq32-sl2-HpE-generic-c",
    "Eq33-sl2-HmE-generic-c", "Eq34-sl2-HpF-generic-c", "Eq35-sl2-HmF-generic-c",
    "Eq36-sl2-EE-generic-c", "Eq37-sl2-FF-generic-c", "Eq38-sl2-EF-commutator-generic-c",
    "Eq39-HH-exchange-c", "Eq40-HpHm-exchange-c", "Eq41-HpE-exchange-c", "Eq42-HmE-exchange-c",
    "Eq43-HpF-exchange-c", "Eq44-HmF-exchange-c", "Eq45-EE-exchange-c", "Eq46-FF-exchange-c",
    "Eq47-EF-commutator-c", "Eq48-Serre-E", "Eq51-Serre-F",
    "psi-inversion", "phi-factorization", "serre-coefficients-from-psi",
)
# The only two checks that reach the Fock route.  The rest are passed by full
# name, because --relations is a substring filter.
FOCK_CHECKS = ("Eq21-EF-commutator", "Eq47-EF-commutator-c")
SERIES = tuple(n for n in CATALOGUE if n not in FOCK_CHECKS)


@dataclass(frozen=True)
class Workload:
    name: str
    algebra: str
    checks: tuple[str, ...]
    p: str = "0.09"
    q: str = "0.3"

    def argv(self, seed: int) -> list[str]:
        args = ["--algebra", self.algebra, "--p", self.p, "--q", self.q, "--seed", str(seed)]
        if self.checks != CATALOGUE:
            args += ["--relations", ",".join(self.checks)]
        return args


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fock-A2", "A2", CATALOGUE),
        Workload("series-E8", "E8", SERIES),
        Workload("wide-E6", "E6", SERIES, p="0.3", q="0.7"),
    )
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def _layer(prefix: str, *fields_units: tuple[str, str]) -> list[tuple[str, str]]:
    return [(f"{prefix}.{f}", unit) for f, unit in fields_units]


CALLS, SECS, SELF = ("calls", "count"), ("s", "s"), ("self_s", "s")
US = ("us_per_call", "us")
PER_LAYER = (
    _layer("fock.FockSpace.sector_modes", CALLS, ("misses", "count"), SECS)
    + _layer("fock.FockSpace.pair_modes", CALLS, SECS)
    + _layer("fock.FockSpace.commutator_check", CALLS, SECS, SELF)
    + _layer("fock.blocks_compose", CALLS, SECS)
    + _layer("fock.blocks_linear", CALLS, SECS)
    + [("fock.tgt_cap.max", "degree"), ("fock.sector_dim.max", "states"),
       ("fock.mode_blocks.bytes", "computed-bytes")]
    + _layer("qlaurent.theta", CALLS, SECS, US)
    + _layer("qlaurent.qpochhammer", CALLS, SECS)
    + _layer("currents.ContractionKernel.evaluate", CALLS, SECS, US)
    + _layer("currents.contract", CALLS, SECS, SELF)
    + _layer("qlaurent.series_exp", CALLS, SECS)
    + _layer("heisenberg.contraction_log_coeff", CALLS, SECS)
    + _layer("heisenberg.zero_mode_reorder", CALLS)
    + _layer("qlaurent.delta_extract", CALLS, SECS)
    + _layer("heisenberg.ModeBracketTable.value", CALLS)
    + _layer("heisenberg.osc_coeff", CALLS)
    + _layer("verifier.VerifierContext.contract", CALLS, ("hit_ratio", "ratio"))
    + _layer("verifier.VerifierContext.exchange_ratio", CALLS, SECS)
    + _layer("verifier.VerifierContext.theta_g", CALLS)
    + _layer("verifier.run_suite", SECS)
    + [(f"verifier.route.{r}.s", "s") for r in ("series", "both", "function", "direct")]
    + _layer("verifier.checks", ("executed", "count"), ("failed", "count"))
    + _layer("verifier.samples", ("compared", "count"), ("skipped", "count"))
    + [("verifier.min_headroom_decades", "decades")]
    + _layer("cli.context_from_config", SECS)
    + [("process.cpu_s", "s"), ("process.tracing_overhead_s", "s")]
)


@dataclass
class Process:
    """One finished ``verify`` process and what the checks made of it."""

    workload: Workload
    traced: bool
    wall_s: float
    setup_s: float | None
    rss_mib: float
    cpu_s: float
    attempted: int
    failed: int
    error: str = ""
    report: dict | None = None
    trace: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    # The thread-pool path is slower (8.4 s against 5.6 s on A2); keep it out.
    env.pop("SCREENALG_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def wait_with_timeout(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with wait4, so that its rusage is its own; kill it on timeout.

    The child is first waited for without reaping it (WNOWAIT), so the kill
    can never hit a reused pid.
    """
    lock, state = threading.Lock(), {"exited": False, "killed": False}

    def kill():
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    except BaseException:  # interrupted: stop and reap the child, then give up
        timer.cancel()
        with lock:
            state["exited"] = True
        proc.kill()
        proc.wait()
        raise
    with lock:
        state["exited"] = True
    timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, state["killed"]


def run_process(w: Workload, seed: int, traced: bool, run_id: str, timeout: float,
                workdir: Path = WORK) -> Process:
    workdir.mkdir(parents=True, exist_ok=True)
    report_path = workdir / f"{run_id}.report.json"
    probe_path = workdir / f"{run_id}.probe.json"
    err_path = workdir / f"{run_id}.stderr"
    for path in (report_path, probe_path):
        path.unlink(missing_ok=True)
    argv = [sys.executable, str(Path(__file__).with_name("child.py")), str(probe_path),
            "1" if traced else "0", "--", *w.argv(seed), "--quiet", "--out", str(report_path)]
    with open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        rc, usage, killed = wait_with_timeout(proc, timeout)
        wall = time.monotonic() - t0
    report = _read_json(report_path)
    probe = _read_json(probe_path) or {}
    stderr = err_path.read_text(errors="replace").strip()
    for path in (report_path, probe_path, err_path):
        path.unlink(missing_ok=True)

    suite_start = probe.get("suite_start_monotonic")
    error = "timed out" if killed else check_report(w, seed, rc, report)
    if not error and suite_start is None:
        error = "the suite never started"
    if error and stderr:
        error += ": " + stderr.splitlines()[-1]
    n = len(w.checks)
    failed = n if error else sum(not row["pass"] for row in report["checks"])
    return Process(
        workload=w,
        traced=traced,
        wall_s=wall,
        setup_s=None if suite_start is None else suite_start - t0,
        rss_mib=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        cpu_s=usage.ru_utime + usage.ru_stime,
        attempted=n,
        failed=failed,
        error=error,
        report=None if error else report,
        trace=probe.get("trace"),
    )


def _read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def check_report(w: Workload, seed: int, rc: int, report) -> str:
    """Return why the report is wrong for this workload, or '' if it is right."""
    if not isinstance(report, dict) or not isinstance(report.get("checks"), list):
        return f"exit code {rc}, no readable report"
    if not all(isinstance(row, dict) for row in report["checks"]):
        return "report has a check row that is not an object"
    names = [row.get("relation") for row in report["checks"]]
    if names != list(w.checks):
        return f"report lists {len(names)} checks, expected the {len(w.checks)} of {w.name}"
    expected = {"algebra": w.algebra, "seed": seed, "order": 80, "fock_degree": 3,
                "p": repr(complex(w.p)), "q": repr(complex(w.q))}
    for key, value in expected.items():
        if report.get(key) != value:
            return f"report {key} is {report.get(key)!r}, expected {value!r}"
    all_pass = all(row.get("pass") is True for row in report["checks"])
    if rc != (0 if all_pass else 1) or report.get("all_pass") is not all_pass:
        return f"exit code {rc} disagrees with the report (all_pass {all_pass})"
    return ""


def layer_values(trace: dict, report: dict) -> dict[str, float]:
    """Per-layer values of one traced process (without the process.* metrics)."""
    vals: dict[str, float] = {}
    counters = trace["counters"]
    for name, _, _, span in TARGETS:
        c = counters[name]
        vals[f"{name}.calls"] = c["calls"]
        vals[f"{name}.s"] = c["s"]
        vals[f"{name}.us_per_call"] = c["s"] / c["calls"] * 1e6 if c["calls"] else 0.0
        if span:
            vals[f"{name}.self_s"] = 0.0
    for name, s in self_times(trace["spans"]).items():
        vals[f"{name}.self_s"] = s
    fock = trace["fock"]
    vals["fock.FockSpace.sector_modes.misses"] = fock["sector_modes_misses"]
    vals["fock.tgt_cap.max"] = fock["tgt_cap_max"]
    vals["fock.sector_dim.max"] = fock["sector_dim_max"]
    vals["fock.mode_blocks.bytes"] = fock["mode_block_bytes"]
    lookups = counters["verifier.VerifierContext.contract"]["calls"]
    builds = counters["currents.contract"]["calls"]
    vals["verifier.VerifierContext.contract.hit_ratio"] = 1 - builds / lookups if lookups else 0.0
    rows = report["checks"]
    for route in ("series", "both", "function", "direct"):
        vals[f"verifier.route.{route}.s"] = sum(r["seconds"] for r in rows if r["route"] == route)
    vals["verifier.checks.executed"] = len(rows)
    vals["verifier.checks.failed"] = sum(not r["pass"] for r in rows)
    vals["verifier.samples.compared"] = sum(r["n_samples"] for r in rows)
    vals["verifier.samples.skipped"] = sum(r["skipped_samples"] for r in rows)
    vals["verifier.min_headroom_decades"] = min_headroom_decades(rows)
    return vals


def min_headroom_decades(rows) -> float:
    """Smallest log10(tolerance / residual) over checks with a finite nonzero residual."""
    margins = [
        math.log10(r["tolerance"] / r["max_residual"])
        for r in rows
        if r["tolerance"] > 0 and 0 < r["max_residual"] < math.inf
    ]
    return min(margins, default=0.0)


def measure(workloads: list[Workload], seed: int, seconds: float, trace: bool) -> list[Process]:
    """Run rounds of processes, the workloads taking turns, within ``seconds`` per workload.

    A round starts only if one more round as long as the last still ends within
    the time, so a run lasts at most ``seconds`` per workload (and one round at least).
    """
    warm_up()
    start = time.monotonic()
    budget = seconds * len(workloads)
    deadline = start + budget + PROCESS_TIMEOUT_S
    procs: list[Process] = []
    last_round = 0.0
    while not procs or time.monotonic() - start + last_round <= budget:
        round_start = time.monotonic()
        for w in workloads:
            for traced in (False, True) if trace else (False,):
                timeout = max(1.0, deadline - time.monotonic())
                p = run_process(w, seed, traced, f"{w.name}-{seed}-{len(procs)}", timeout)
                if p.error:
                    print(f"# {w.name}{' traced' if traced else ''}: FAILED: {p.error}")
                procs.append(p)
        last_round = time.monotonic() - round_start
    return procs


def warm_up():
    """Compile and page in the package once, unmeasured, as an installed CLI would be."""
    subprocess.run([sys.executable, "-c", "import screenalg.cli"], cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
                   check=False)


def summarize(w: Workload, procs: list[Process], trace: bool) -> dict:
    mine = [p for p in procs if p.workload is w]
    plain = [p for p in mine if not p.traced]
    attempted = sum(p.attempted for p in mine)
    failed = sum(p.failed for p in mine)
    walls = [p.wall_s for p in plain]
    # A process that never reached a check spent its whole life in set-up.
    setups = [p.wall_s if p.setup_s is None else p.setup_s for p in plain]
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p.rss_mib for p in plain),
    }
    out = {
        "workload": w.name,
        "processes": len(plain),
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "end_to_end": e2e,
        "spread": {
            "wall_s": _quartiles(walls),
            "setup_s": _quartiles(setups),
        },
        "check_seconds": _median_seconds_per_check([p.report for p in plain if p.report]),
    }
    if trace:
        traced = [p for p in mine if p.traced and not p.error and p.trace]
        if traced:
            per = [layer_values(p.trace, p.report) for p in traced]
            layers = {name: statistics.median(v[name] for v in per)
                      for name, _ in PER_LAYER if name in per[0]}
            layers["process.cpu_s"] = statistics.median(p.cpu_s for p in plain)
            layers["process.tracing_overhead_s"] = (
                statistics.median(p.wall_s for p in traced) - e2e["wall_s"]
            )
        else:
            layers = {name: 0.0 for name, _ in PER_LAYER}
        out["traced_processes"] = len(traced)
        out["per_layer"] = layers
    return out


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]] if values else []
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def _median_seconds_per_check(reports: list[dict]) -> dict:
    names = [row["relation"] for row in reports[0]["checks"]] if reports else []
    return {n: statistics.median(r["checks"][i]["seconds"] for r in reports)
            for i, n in enumerate(names)}


def result_line(summary: dict, trace: bool) -> dict:
    spec = PER_LAYER if trace else END_TO_END
    values = summary["per_layer"] if trace else summary["end_to_end"]
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy = version("numpy")
    except Exception:  # noqa: BLE001  (any metadata failure only loses the label)
        numpy = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy,
    }


def print_table(s: dict, trace: bool):
    print(f"{s['workload']}: {s['processes']} processes, {s['attempted']} checks attempted, "
          f"{s['failed']} failed, fail_share {s['fail_share']:.4g} share")
    for name, unit in END_TO_END:
        q = s["spread"].get(name)
        extra = f"  (quartiles {q[0]:.4f} .. {q[1]:.4f})" if q else ""
        print(f"  {name:<34} {s['end_to_end'][name]:12.4f} {unit}{extra}")
    if trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<50} {s['per_layer'][name]:14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="seed passed to verify --seed (default %(default)s)")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measuring time per workload (default %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from traced processes")
    ap.add_argument("--save", type=Path, help="also write the full results as JSON here")
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "screenalg" / "cli.py").is_file():
        print(f"error: no screenalg source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    info = machine()
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    procs = measure(workloads, args.seed, args.seconds, bool(args.trace))
    summaries = [summarize(w, procs, bool(args.trace)) for w in workloads]
    for s in summaries:
        print_table(s, bool(args.trace))
    if args.save:
        args.save.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "machine": info, "workloads": summaries}, indent=1, sort_keys=True) + "\n")
    if len(summaries) == 1:
        print(json.dumps(result_line(summaries[0], bool(args.trace))))
    else:
        print(json.dumps({s["workload"]: result_line(s, bool(args.trace)) for s in summaries}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
