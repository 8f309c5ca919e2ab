import dataclasses

import numpy as np
import pytest

from screenalg import (
    CATALOGUE_NAMES,
    VerifierContext,
    build_catalogue,
    make_cartan,
    make_params,
    phi,
    psi,
    run_suite,
    serre_coefficient,
    theta,
)
from screenalg import currents, verifier
from screenalg.currents import ContractionKernel, KernelGroup, _oscillator_part
from screenalg.qlaurent import qpochhammer
from screenalg.verifier import (
    SkipSample,
    _closed_form_driver,
    _commutator_driver,
    _exchange_driver,
    _serre_driver,
    _structure_driver,
    _wrap_g,
    g_ee,
    g_he,
    g_spsp,
)

PR = make_params(0.09, 0.3, 1)


def ctx_for(label, rank, **kw):
    return VerifierContext(cartan=make_cartan(label, rank), params=PR, **kw)


class TestStructureFunctions:
    def test_psi_inversion_all_entries(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(0.3, 1.7) * np.exp(1j * rng.uniform(-3, 3))
            for a in (2, -1, 0):
                for base in (PR.q, PR.qtilde):
                    v = psi(x, a, base, PR) * psi(1 / x, a, base, PR)
                    assert abs(v - 1) < 1e-10

    def test_phi_factorization_corrected_monomial(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform(0.4, 1.6) * np.exp(1j * rng.uniform(-3, 3))
            for a in (2, -1, 0):
                lhs = phi(x, a, PR.q, PR.q_half, PR) / phi(1 / x, a, PR.q, PR.q_half, PR)
                rhs = x ** float(a) * psi(x, a, PR.q, PR)
                assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-10

    def test_phi_factorization_exact_only_at_a0(self):
        # the uncorrected identity fails by x^A away from A = 0
        x = 0.8 * np.exp(0.9j)
        for a in (2, -1):
            lhs = phi(x, a, PR.q, PR.q_half, PR) / phi(1 / x, a, PR.q, PR.q_half, PR)
            assert abs(lhs - psi(x, a, PR.q, PR)) > 1e-3
        lhs0 = phi(x, 0, PR.q, PR.q_half, PR) / phi(1 / x, 0, PR.q, PR.q_half, PR)
        assert abs(lhs0 - psi(x, 0, PR.q, PR)) < 1e-12

    def test_serre_coefficient_degenerate_limit(self):
        # psi_ii(1) = -1 makes f at z1 = z2 a 0/0 limit; nearby evaluations
        # from both sides must agree (the limit exists)
        def psi_q(x, a):
            return psi(x, a, PR.q, PR)

        w = 1.3 * np.exp(0.4j)
        z = 0.9 * np.exp(-0.2j)
        with pytest.raises(SkipSample):
            serre_coefficient(z, z, w, psi_q)
        eps = 1e-5
        up = serre_coefficient(z * (1 + eps), z, w, psi_q)
        dn = serre_coefficient(z * (1 - eps), z, w, psi_q)
        assert abs(up - dn) / abs(up) < 1e-3


class TestExchangeDrivers:
    def test_eq19_a1(self):
        out = _exchange_driver(ctx_for("A", 1, order=60), "E", "E", _wrap_g(g_ee))
        assert out["passed"] and out["max_residual"] < 1e-8

    def test_eq19_orthogonal_is_exact(self):
        out = _exchange_driver(
            ctx_for("A", 3, order=40), "E", "E", _wrap_g(g_ee), a_filter=(0,)
        )
        assert out["max_residual"] < 1e-14

    def test_eq7_vacuous_without_instances(self):
        out = _exchange_driver(
            ctx_for("A", 1, order=40), "S+", "S+", _wrap_g(g_spsp), a_filter=(-1,)
        )
        assert out["passed"] and "vacuous" in out["notes"]

    def test_he_sign_correction_needed(self):
        # with the uncorrected (-1)^{A-1} sign the adjacent-node relation fails
        ctx = ctx_for("A", 2, order=60)

        def g_wrong(c, z, w, a_ij, i, j):
            return -g_he(c, z, w, a_ij, +1)

        out = _exchange_driver(ctx, "H+", "E", g_wrong, a_filter=(-1,))
        assert not out["passed"]
        out2 = _exchange_driver(ctx, "H+", "E", _wrap_g(g_he, sign=+1), a_filter=(-1,))
        assert out2["passed"]


class TestCommutatorDriver:
    def test_a1_both_routes(self):
        ctx = ctx_for("A", 1, order=60, fock_cap=2, fock_window=2)
        out = _commutator_driver(ctx)
        assert out["series"] < 1e-8
        assert out["fock"] < 1e-8

    def test_a2_delta_supports(self):
        ctx = ctx_for("A", 2, order=60, fock_cap=2, fock_window=2)
        out = _commutator_driver(ctx)
        assert out["series"] < 1e-8 and out["fock"] < 1e-8
        # the same-node comb sits at w/z = 1/q and w/z = p/q
        sup = out["details"]["supports[0,0]"]
        vals = sorted(abs(complex(s)) for s, _ in sup)
        assert vals == pytest.approx([abs(PR.p / PR.q), abs(1 / PR.q)])

    def test_a2_default_counts_compared_and_vacuous_rows(self):
        # 4 node pairs x 49 (m, n) rows at cap 3, window 3; in 22 of them
        # both sides reach only negative degrees, so nothing is compared
        rep = run_suite(ctx_for("A", 2), relation_filter=["Eq21", "Eq47"])
        assert [(r.n_samples, r.skipped, r.passed) for r in rep.results] == [(174, 22, True)] * 2

    def test_two_route_agreement(self):
        ctx = ctx_for("A", 2, order=60, fock_cap=2, fock_window=2)
        out = _commutator_driver(ctx)
        passes = (out["series"] <= ctx.tol_series, out["fock"] <= ctx.tol_fock)
        assert passes[0] == passes[1]


class TestSerreDriver:
    def test_a2_e_and_f(self):
        ctx = ctx_for("A", 2, order=60, serre_samples=4)
        for kind in ("E", "F"):
            out = _serre_driver(ctx, kind)
            assert out["passed"] and out["max_residual"] < 1e-7

    def test_vacuous_on_a1(self):
        out = _serre_driver(ctx_for("A", 1, order=40), "E")
        assert out["passed"] and "vacuous" in out["notes"]


class TestCatalogue:
    def test_completeness(self):
        ctx = ctx_for("A", 2)
        names = [name for name, *_ in build_catalogue(ctx)]
        assert names == CATALOGUE_NAMES
        assert len(set(names)) == len(names)

    def test_every_entry_has_anchor(self):
        for name, anchor, route, _ in build_catalogue(ctx_for("A", 2)):
            assert anchor.strip(), name
            assert route in ("series", "fock", "both", "function", "direct", "skipped")

    def test_generic_c_relations_skip_operator_routes(self):
        pr2 = make_params(0.09, 0.3, 2)
        ctx = VerifierContext(cartan=make_cartan("A", 2), params=pr2)
        entries = {name: route for name, _, route, _ in build_catalogue(ctx)}
        assert entries["Eq21-EF-commutator"] == "skipped"
        assert entries["Eq19-EE-exchange"] == "series"


class TestRunSuite:
    def test_filtered_quick_run(self):
        ctx = ctx_for("A", 1, order=40, fock_cap=2, fock_window=2)
        rep = run_suite(ctx, relation_filter=["Eq19", "Eq21", "psi-inversion"])
        names = [r.name for r in rep.results]
        assert names == ["Eq19-EE-exchange", "Eq21-EF-commutator", "psi-inversion"]
        assert rep.all_pass

    def test_structure_relation_from_engine(self):
        ctx = ctx_for("A", 2, order=60)
        out = _structure_driver(ctx, "from-engine")
        assert out["passed"] and out["max_residual"] < 1e-9

    def test_report_dict_schema(self):
        ctx = ctx_for("A", 1, order=40)
        rep = run_suite(ctx, relation_filter=["theta"])
        d = rep.to_dict()
        assert set(d["checks"][0]) == {
            "relation", "anchor_quote", "route", "n_samples", "skipped_samples",
            "max_residual", "tolerance", "pass", "notes", "seconds", "details",
        }
        assert d["all_pass"] is True
        assert len(d["errata"]) == 5


class TestThetaDriver:
    def test_triple_product_sum_separates_a_mutant(self, monkeypatch):
        # quasi-periodicity cannot see a constant factor; the Jacobi
        # triple-product sum can
        ctx = ctx_for("A", 1)
        out = verifier._theta_driver(ctx)
        assert out["passed"] and out["max_residual"] < 1e-12

        def theta_without_aa(x, a, order=80):
            return theta(x, a, order) / qpochhammer(a, a, order)

        monkeypatch.setattr(verifier, "theta", theta_without_aa)
        out = verifier._theta_driver(ctx)
        assert not out["passed"]


class TestThetaSkipPath:
    def test_theta_floor_raises_skip(self):
        # p = q^2 at the default parameters, so theta_q(x p) vanishes at x = 1
        ctx = ctx_for("A", 1, order=80)
        with pytest.raises(SkipSample):
            ctx.theta_g(PR.p * 1.0, PR.q)
        v = theta(PR.p, PR.q, 80)
        assert abs(v) < 1e-10

    def test_exchange_samples_near_zeros_are_skipped_and_reported(self):
        # an absurd floor forces every sample onto the skip path; a check
        # with nothing left to compare must not report a pass
        ctx = ctx_for("A", 1, order=40, theta_floor=1e6)
        out = _exchange_driver(ctx, "E", "E", _wrap_g(g_ee))
        assert out["skipped"] == out["n_samples"] > 0
        assert not out["passed"]

    def test_closed_form_samples_near_poles_are_skipped_and_reported(self):
        # the closed-form driver follows the same rule: all 16 samples
        # skipped is not a pass
        ctx = ctx_for("A", 1, order=40, pole_floor=1e6)
        out = _closed_form_driver(ctx, "E", "F", 2)
        assert out["skipped"] == out["n_samples"] == 16
        assert not out["passed"]

    def test_cached_theta_still_hits_the_floor(self):
        ctx = ctx_for("A", 1, order=80)
        for _ in range(2):
            with pytest.raises(SkipSample):
                ctx.theta_g(PR.p * 1.0, PR.q)
        assert len(ctx._theta_cache) == 1


class TestSeriesCaches:
    def test_each_distinct_kernel_value_is_evaluated_once(self, monkeypatch):
        # D4 has 16 ordered node pairs in three Cartan classes; each class
        # shares one E-E kernel, evaluated at the 16 samples x and at 1/x
        seen = []
        evaluate = ContractionKernel.evaluate

        def counted(kernel, x, *args):
            seen.append((kernel, x))
            return evaluate(kernel, x, *args)

        monkeypatch.setattr(ContractionKernel, "evaluate", counted)
        ctx = ctx_for("D", 4)
        out = _exchange_driver(ctx, "E", "E", _wrap_g(g_ee))
        assert out["passed"] and out["n_samples"] == 16 * 16
        assert len(seen) == len(set(seen)) == 3 * 2 * 16
        assert len(seen) < 16 * 16 * 2

    def test_a_defect_in_one_node_pair_is_not_hidden(self):
        # a kernel off by 1e-6 on one node pair, not the first of its
        # class, is its own cache key and fails the check
        ctx = ctx_for("D", 4)
        pairs = [(i, j) for i, j, a in ctx.cartan.node_pairs() if a == -1]
        i, j = pairs[1]
        ope = ctx.contract(ctx.spec("E", i), ctx.spec("E", j))
        bad = ContractionKernel(tuple(
            KernelGroup(tuple((sg, mu * (1 + 1e-6)) for sg, mu in g.terms), g.dens)
            for g in ope.kernel.groups
        ))
        ctx._contract_cache[("E", i, "E", j)] = dataclasses.replace(ope, kernel=bad)
        out = _exchange_driver(ctx, "E", "E", _wrap_g(g_ee))
        assert not out["passed"] and out["max_residual"] > 1e-8

    def test_series_exp_runs_once_per_cartan_class(self, monkeypatch):
        # D4's 16 ordered node pairs fall into the classes A_ij = 2, -1, 0
        calls = []
        series_exp = currents.series_exp

        def counted(log):
            calls.append(log)
            return series_exp(log)

        _oscillator_part.cache_clear()
        monkeypatch.setattr(currents, "series_exp", counted)
        ctx = ctx_for("D", 4)
        (res,) = run_suite(ctx, ["Eq19"]).results
        assert res.passed and res.n_samples == 16 * 16
        assert len(ctx._contract_cache) == 16 and len(calls) == 3

    def test_a_zero_mode_defect_in_one_node_pair_is_not_hidden(self):
        # the zero-mode monomial is still reordered per node pair: an error
        # of 1e-6 in one node pair's coefficient, not the first of its class,
        # fails the check
        ctx = ctx_for("D", 4)
        pairs = [(i, j) for i, j, a in ctx.cartan.node_pairs() if a == -1]
        i, j = pairs[1]
        ope = ctx.contract(ctx.spec("E", i), ctx.spec("E", j))
        bad = dataclasses.replace(ope, coeff=ope.coeff * (1 + 1e-6))
        ctx._contract_cache[("E", i, "E", j)] = bad
        (res,) = run_suite(ctx, ["Eq19"]).results
        assert not res.passed and res.max_residual > 1e-8

    def test_circle_samples_are_computed_once_and_read_only(self):
        ctx = ctx_for("A", 1)
        xs = ctx.circle_samples()
        assert ctx.circle_samples() is xs and len(xs) == ctx.n_samples
        with pytest.raises(ValueError):
            xs[0] = 0.0


class TestThetaOrderGuard:
    def test_a_context_rejects_an_order_too_low_for_its_theta_bases(self):
        # at q = 0.9, theta(order=80) is off by ~5e-3: Eq19 would read a
        # false FAIL (7.0e-3)
        a1, params = make_cartan("A", 1), make_params(0.5, 0.9, 1)
        with pytest.raises(ValueError, match="use --order 241 or more"):
            VerifierContext(cartan=a1, params=params)
        ctx = VerifierContext(cartan=a1, params=params, order=241)
        # the generic-c checks build inner contexts of their own
        (res,) = run_suite(ctx, ["Eq30"]).results
        assert res.n_samples > 0
