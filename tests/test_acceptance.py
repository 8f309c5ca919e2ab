"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with the measured residual and runtime.  Tolerances are pinned
here and nowhere else."""

import json
import time

import numpy as np
import pytest

from screenalg import (
    ModeBracketTable,
    VerifierContext,
    closed_form,
    contract,
    current_spec,
    make_cartan,
    make_params,
    run_suite,
    theta,
)
from screenalg.cli import main as cli_main
from screenalg.verifier import (
    _commutator_driver,
    _serre_driver,
    _structure_driver,
)

PR = make_params(0.09, 0.3, 1)


def report(criterion, residual, tol, seconds, extra=""):
    print(
        f"\nACCEPTANCE {criterion}: residual {residual:.3e} (tol {tol:.1e}) "
        f"in {seconds:.2f}s {extra}-> PASS"
    )


def test_criterion_1_theta_toolkit():
    tol = 1e-9
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.05, 0.5) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        x = rng.uniform(0.2, 1.8) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        quasi = abs(theta(a * x, a, 80) + theta(x, a, 80) / x) / max(
            abs(theta(x, a, 80) / x), 1e-30
        )
        periodic = abs(theta(x, a, 80) - theta(x, a, 80))  # same numeric point
        worst = max(worst, quasi, periodic)
    dt = time.perf_counter() - t0
    assert worst <= tol
    assert dt < 1.0
    report("1 (theta toolkit)", worst, tol, dt)


def test_criterion_2_heisenberg_layer():
    tol = 1e-12
    t0 = time.perf_counter()
    worst = 0.0
    for cartan in (make_cartan("A", 2), make_cartan("D", 4)):
        table = ModeBracketTable(cartan, PR)
        p, q, ph = PR.p, PR.q, PR.p_half
        for i, j, a_ij in cartan.node_pairs():
            for n in range(1, 31):
                got = table.bracket(i, j, n, -n)
                want = (
                    (1 - q**n)
                    * (ph ** (a_ij * n) - ph ** (-a_ij * n))
                    * (1 - (p / q) ** n)
                    / (n * (1 - p**n))
                )
                scale = max(abs(want), 1e-30)
                worst = max(worst, abs(got - want) / scale)
                worst = max(worst, abs(got + table.bracket(j, i, -n, n)) / scale)
                if a_ij == 0:
                    worst = max(worst, abs(got))
                assert table.bracket(i, j, n, n + 3) == 0.0
    dt = time.perf_counter() - t0
    assert worst <= tol
    report("2 (Heisenberg layer)", worst, tol, dt, "[A2 and D4, |n| <= 30] ")


def test_criterion_3_contraction_vs_closed_form():
    tol = 1e-8
    t0 = time.perf_counter()
    cartan = make_cartan("A", 3)  # carries all three Cartan entry classes
    nodes = {2: (0, 0), -1: (0, 1), 0: (0, 2)}
    xs = 0.5 * np.exp(1j * ((np.arange(16) + 0.5) / 16 * 2 * np.pi - np.pi))
    worst = 0.0
    for kx, ky in (("S+", "S-"), ("S-", "S+"), ("E", "F"), ("F", "E")):
        for a_cls, (i, j) in nodes.items():
            ope = contract(
                current_spec(kx, i, 3, PR), current_spec(ky, j, 3, PR), cartan, PR, 80
            )
            cf = closed_form(kx, ky, a_cls, PR)
            for x in xs:
                got = ope.evaluate(1.0, complex(x))[0]
                want = cf(1.0 + 0j, complex(x))
                worst = max(worst, abs(got - want) / max(abs(got), abs(want)))
    dt = time.perf_counter() - t0
    assert worst <= tol
    assert dt < 10.0
    report("3 (contraction vs closed form)", worst, tol, dt, "[12 pair classes x 16 pts] ")


EXCHANGE_RELATIONS = [
    "Eq7-", "Eq8-", "Eq19-", "Eq20-", "Eq24-", "Eq25-", "Eq26-", "Eq27-",
    "Eq28-", "Eq29-", "Eq39-", "Eq40-", "Eq41-", "Eq42-", "Eq43-", "Eq44-",
    "Eq45-", "Eq46-", "Eq47-",
]


def test_criterion_4_exchange_relations():
    tol = 1e-8
    t0 = time.perf_counter()
    worst = 0.0
    for rank in (1, 2):
        ctx = VerifierContext(cartan=make_cartan("A", rank), params=PR, order=80)
        rep = run_suite(ctx, relation_filter=EXCHANGE_RELATIONS)
        for r in rep.results:
            assert r.passed, f"{r.name} failed at rank {rank}: {r.max_residual:.3e}"
            worst = max(worst, r.max_residual)
    dt = time.perf_counter() - t0
    assert worst <= tol
    assert dt < 60.0
    report("4 (exchange relations, A1+A2)", worst, tol, dt)


def test_criterion_5_delta_commutator():
    tol = 1e-8
    t0 = time.perf_counter()
    worst_series = worst_fock = 0.0
    for rank in (1, 2):
        ctx = VerifierContext(
            cartan=make_cartan("A", rank), params=PR, order=80,
            fock_cap=3, fock_window=3,
        )
        out = _commutator_driver(ctx)
        worst_series = max(worst_series, out["series"])
        worst_fock = max(worst_fock, out["fock"])
        sup = out["details"].get("supports[0,0]")
        got = sorted(abs(complex(s)) for s, _ in sup)
        assert got == pytest.approx([abs(PR.p / PR.q), abs(1 / PR.q)])
    dt = time.perf_counter() - t0
    assert worst_series <= tol and worst_fock <= tol
    assert dt < 180.0
    report(
        "5 (delta commutator)", max(worst_series, worst_fock), tol, dt,
        f"[series {worst_series:.2e}, fock {worst_fock:.2e}, D=3, |m|,|n|<=3] ",
    )


def test_criterion_6_serre_relations():
    tol = 1e-7
    t0 = time.perf_counter()
    ctx = VerifierContext(
        cartan=make_cartan("A", 2), params=PR, order=80, serre_samples=8
    )
    worst = 0.0
    for kind in ("E", "F"):
        out = _serre_driver(ctx, kind)
        assert out["passed"]
        worst = max(worst, out["max_residual"])
    dt = time.perf_counter() - t0
    assert worst <= tol
    report("6 (Serre relations, E and F)", worst, tol, dt, "[8 triples each] ")


def test_criterion_7_structure_functions():
    t0 = time.perf_counter()
    ctx = VerifierContext(cartan=make_cartan("A", 2), params=PR, order=80, n_random=100)
    inv = _structure_driver(ctx, "psi-inversion")
    fac = _structure_driver(ctx, "phi-factorization")
    reb = _structure_driver(ctx, "from-engine")
    assert inv["passed"] and inv["max_residual"] <= 1e-10
    assert fac["passed"] and fac["max_residual"] <= 1e-10
    assert reb["passed"] and reb["max_residual"] <= 1e-9
    dt = time.perf_counter() - t0
    report(
        "7 (structure functions)",
        max(inv["max_residual"], fac["max_residual"], reb["max_residual"]),
        1e-9, dt,
        "[inversion/factorization 1e-10, rebuild 1e-9] ",
    )


def test_criterion_8_full_default_suite(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "suite.json"
    rc = cli_main(["--algebra", "A2", "--quiet", "--out", str(out)])
    dt = time.perf_counter() - t0
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["all_pass"] is True
    assert len(data["checks"]) == 48
    assert dt < 300.0
    report("8 (full default A2 suite)", 0.0, 1.0, dt, f"[exit {rc}, 48 checks] ")
