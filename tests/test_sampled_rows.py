"""The array drivers of the sampled rows against their scalar reference loops."""

import dataclasses

import numpy as np
import pytest
import sampled_reference as ref

from screenalg import VerifierContext, make_cartan, make_params, run_suite, theta, verifier

# (array driver, scalar reference, args), one per sampled row
ROWS = [
    (verifier._theta_driver, ref._theta_driver, ()),
    (verifier._structure_driver, ref._structure_driver, ("psi-inversion",)),
    (verifier._structure_driver, ref._structure_driver, ("phi-factorization",)),
    (verifier._structure_driver, ref._structure_driver, ("from-engine",)),
    (verifier._serre_driver, ref._serre_driver, ("E",)),
    (verifier._serre_driver, ref._serre_driver, ("F",)),
]
SIX = [
    "theta-quasiperiodicity", "psi-inversion", "phi-factorization",
    "serre-coefficients-from-psi", "Eq48-Serre-E", "Eq51-Serre-F",
]


def captured(monkeypatch, module, driver, ctx, args):
    """The driver's outcome and the residuals it handed to ``_outcome``, sorted."""
    seen = []
    outcome = verifier._outcome

    def spy(residuals, *rest, **kw):
        seen.append(np.sort(np.asarray(residuals, dtype=float)))
        return outcome(residuals, *rest, **kw)

    with monkeypatch.context() as mp:
        mp.setattr(module, "_outcome", spy)
        out = driver(ctx, *args)
    return out, seen[0]


def assert_rows_match(ctx, monkeypatch):
    for new, old, args in ROWS:
        got, got_res = captured(monkeypatch, verifier, new, ctx, args)
        want, want_res = captured(monkeypatch, ref, old, ctx, args)
        for key in ("n_samples", "skipped", "passed", "notes", "tolerance"):
            assert got[key] == want[key], (new.__name__, args, key)
        assert abs(got["max_residual"] - want["max_residual"]) <= 1e-14, (new.__name__, args)
        # every compared point, so the same draws were kept, skipped and topped up
        assert got_res.shape == want_res.shape, (new.__name__, args)
        assert np.max(np.abs(got_res - want_res), initial=0.0) <= 1e-14, (new.__name__, args)


@pytest.mark.parametrize("label, rank, p, q", [
    ("A", 2, 0.09, 0.3), ("A", 2, 0.3, 0.7), ("E", 6, 0.3, 0.7),
])
def test_array_rows_match_scalar_reference(label, rank, p, q, monkeypatch):
    ctx = VerifierContext(cartan=make_cartan(label, rank), params=make_params(p, q, 1))
    assert_rows_match(ctx, monkeypatch)


def test_forced_serre_skips_match_scalar_reference(monkeypatch):
    # at pole_floor 0.3, 3 of the 19 triples drawn per Serre row and 6 of the
    # 25 serre-coefficients-from-psi triples are skipped, and the Serre rows
    # draw replacements
    ctx = VerifierContext(cartan=make_cartan("A", 2), params=make_params(0.09, 0.3, 1), pole_floor=0.3)
    for kind in ("E", "F"):
        out = verifier._serre_driver(ctx, kind)
        assert (out["n_samples"], out["skipped"], out["passed"]) == (19, 3, True)
    assert verifier._structure_driver(ctx, "from-engine")["skipped"] == 6
    assert_rows_match(ctx, monkeypatch)


def failing(ctx):
    return [r.name for r in run_suite(ctx, SIX).results if not r.passed]


def test_shifted_psi_fails_every_row_built_on_it(monkeypatch):
    # psi with p^{(A_ij + 1)/2} in place of p^{A_ij/2}; psi-inversion holds
    # for any shift, so it passes
    def shifted_psi(x, a_ij, base, params, order=80):
        pa = params.p_half ** (a_ij + 1)
        return (-1.0) ** (a_ij - 1) * x ** (-1.0) * theta(x * pa, base, order) / theta(pa / x, base, order)

    monkeypatch.setattr(verifier, "psi", shifted_psi)
    ctx = VerifierContext(cartan=make_cartan("A", 2), params=make_params(0.09, 0.3, 1))
    assert failing(ctx) == [
        "Eq48-Serre-E", "Eq51-Serre-F", "phi-factorization", "serre-coefficients-from-psi",
    ]


def test_scaled_e0_e1_kernel_fails_the_e_serre_rows(monkeypatch):
    # the q-product kernel of E_0(z) E_1(w) read at x (1 + 1e-6)
    contract = VerifierContext.contract

    def patched(ctx, sx, sy):
        ope = contract(ctx, sx, sy)
        if (sx.kind, sx.node, sy.kind, sy.node) == ("E", 0, "E", 1):
            return dataclasses.replace(ope, kernel=ope.kernel.scale(1 + 1e-6))
        return ope

    monkeypatch.setattr(VerifierContext, "contract", patched)
    ctx = VerifierContext(cartan=make_cartan("A", 2), params=make_params(0.09, 0.3, 1))
    assert failing(ctx) == ["Eq48-Serre-E", "serre-coefficients-from-psi"]
