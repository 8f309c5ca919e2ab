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
from screenalg.currents import ContractionKernel, KernelGroup, _node_free_part
from screenalg.qlaurent import qpochhammer
from screenalg.verifier import (
    _closed_form_driver,
    _commutator_driver,
    _exchange_driver,
    _serre_driver,
    _structure_driver,
    g_ee,
    g_he,
    g_spsp,
)

PR = make_params(0.09, 0.3, 1)

# the 48 relations of the catalogue, in report order, written out so that
# the catalogue is not tested against itself
EXPECTED_NAMES = [
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
]

# each general-c row that repeats a level-1 row's computation, and that row
ALIASES = {
    "Eq39-HH-exchange-c": "Eq24-HH-exchange",
    "Eq40-HpHm-exchange-c": "Eq25-HpHm-exchange",
    "Eq41-HpE-exchange-c": "Eq26-HpE-exchange",
    "Eq42-HmE-exchange-c": "Eq27-HmE-exchange",
    "Eq43-HpF-exchange-c": "Eq28-HpF-exchange",
    "Eq44-HmF-exchange-c": "Eq29-HmF-exchange",
    "Eq45-EE-exchange-c": "Eq19-EE-exchange",
    "Eq47-EF-commutator-c": "Eq21-EF-commutator",
}


def ctx_for(label, rank, **kw):
    return VerifierContext(cartan=make_cartan(label, rank), params=PR, **kw)


def defective(monkeypatch, key, bad):
    """Make VerifierContext.contract return ``bad`` for the one (kind, node, kind, node) ``key``."""
    contract = VerifierContext.contract

    def patched(ctx, sx, sy):
        return bad if (sx.kind, sx.node, sy.kind, sy.node) == key else contract(ctx, sx, sy)

    monkeypatch.setattr(VerifierContext, "contract", patched)


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
            return psi(x, a, PR.q, PR), False

        w = 1.3 * np.exp(0.4j)
        z = 0.9 * np.exp(-0.2j)
        _, skip = serre_coefficient(z, z, w, psi_q)
        assert skip
        eps = 1e-5
        up, skip_up = serre_coefficient(z * (1 + eps), z, w, psi_q)
        dn, skip_dn = serre_coefficient(z * (1 - eps), z, w, psi_q)
        assert not skip_up and not skip_dn
        assert abs(up - dn) / abs(up) < 1e-3


class TestExchangeDrivers:
    def test_eq19_a1(self):
        out = _exchange_driver(ctx_for("A", 1, order=60), (("E", "E"),), g_ee)
        assert out["passed"] and out["max_residual"] < 1e-8

    def test_eq19_orthogonal_is_exact(self):
        out = _exchange_driver(
            ctx_for("A", 3, order=40), (("E", "E"),), g_ee, a_filter=(0,)
        )
        assert out["max_residual"] < 1e-14

    def test_eq7_vacuous_without_instances(self):
        out = _exchange_driver(
            ctx_for("A", 1, order=40), (("S+", "S+"),), g_spsp, a_filter=(-1,)
        )
        assert out["passed"] and "vacuous" in out["notes"]

    def test_he_sign_correction_needed(self):
        # with the uncorrected (-1)^{A-1} sign the adjacent-node relation fails
        ctx = ctx_for("A", 2, order=60)

        def g_wrong(c, z, w, a_ij):
            return -g_he(c, z, w, a_ij, +1)

        out = _exchange_driver(ctx, (("H+", "E"),), g_wrong, a_filter=(-1,))
        assert not out["passed"]
        out2 = _exchange_driver(ctx, (("H+", "E"),), g_he, (("sign", 1),), a_filter=(-1,))
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

    def test_a3_default_fock_route_passes(self):
        # 9 node pairs x 49 rows at cap 3, window 3; the same counts as by
        # whole-sector composition
        (res,) = run_suite(ctx_for("A", 3), relation_filter=["Eq21"]).results
        assert (res.n_samples, res.skipped, res.passed) == (386, 55, True)
        assert res.max_residual < 1e-13

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
        assert names == CATALOGUE_NAMES == EXPECTED_NAMES
        assert len(set(names)) == len(names) == 48

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


class TestAliases:
    @pytest.mark.parametrize("label, rank, fock", [("A", 2, True), ("E", 6, False)])
    def test_alias_rows_equal_their_owner_rows(self, label, rank, fock):
        # the E6 Fock route is out of reach, so there the commutator pair is left out
        pairs = {a: o for a, o in ALIASES.items() if fock or "commutator" not in a}
        ctx = ctx_for(label, rank, order=60)
        rows = {r.name: r for r in run_suite(ctx, [*pairs, *pairs.values()]).results}
        assert len(rows) == 2 * len(pairs)
        for alias, owner in pairs.items():
            a, o = dataclasses.asdict(rows[alias]), dataclasses.asdict(rows[owner])
            for key in ("name", "anchor", "notes", "seconds"):
                a.pop(key), o.pop(key)
            assert a == o and rows[alias].passed
            at_c1 = "" if alias.startswith("Eq45") else " at c = 1"
            assert rows[alias].notes.endswith(f"same computation as {owner}{at_c1}")
            assert "same computation" not in rows[owner].notes

    def test_eq46_is_not_an_alias(self):
        # qtilde = exp(log p)/q is p/q only up to rounding, so Eq46 computes
        (eq20, eq46) = run_suite(ctx_for("A", 2), ["Eq20-FF", "Eq46-FF"]).results
        assert eq46.notes == "" and eq46.passed
        assert eq46.max_residual != eq20.max_residual

    def test_an_alias_run_alone_computes_and_says_so(self):
        (res,) = run_suite(ctx_for("A", 2), ["Eq41"]).results
        assert res.passed and res.n_samples == 4 * 16
        assert res.notes == "same computation as Eq26-HpE-exchange at c = 1"

    @pytest.mark.parametrize("owner, alias", [("Eq24", "Eq39"), ("Eq21", "Eq47")])
    def test_each_driver_runs_once_per_computation(self, monkeypatch, owner, alias):
        calls = []

        def counting(driver):
            def counted(ctx, *args):
                calls.append(driver)
                return driver(ctx, *args)

            return counted

        wrapped = {row[3]: counting(row[3]) for row in verifier.CATALOGUE}
        monkeypatch.setattr(verifier, "CATALOGUE", tuple(
            (*row[:3], wrapped[row[3]], *row[4:]) for row in verifier.CATALOGUE
        ))
        ctx = ctx_for("A", 2, order=60, fock_cap=2, fock_window=2)
        rep = run_suite(ctx, [owner, alias])
        assert len(rep.results) == 2 and rep.all_pass
        assert len(calls) == 1

    def test_hh_row_fails_when_one_kind_pair_skips_every_sample(self, monkeypatch):
        ratio = VerifierContext.exchange_ratio

        def skip_hmhm(ctx, ope_xy, ope_yx, x):
            r, skip = ratio(ctx, ope_xy, ope_yx, x)
            if ope_xy.spec_x.kind == ope_xy.spec_y.kind == "H-":
                skip = np.ones_like(skip)  # every H-H- sample skipped
            return r, skip

        monkeypatch.setattr(VerifierContext, "exchange_ratio", skip_hmhm)
        (res,) = run_suite(ctx_for("A", 2, order=60), ["Eq24"]).results
        assert res.skipped == res.n_samples // 2 > 0
        assert res.max_residual < 1e-8 and not res.passed


class TestPassRule:
    def test_zero_random_points_fail_the_random_checks(self):
        ctx = ctx_for("A", 2, n_random=0)
        rows = run_suite(ctx, ["theta", "psi-inversion", "phi-factorization"]).results
        assert [(r.n_samples, r.passed) for r in rows] == [(0, False)] * 3

    def test_zero_exchange_samples_fail_unless_vacuous(self):
        rows = run_suite(ctx_for("A", 1, n_samples=0), ["Eq19", "Eq10", "Eq11"]).results
        # A1 has no adjacent node pair, so Eq11 is vacuous and still passes
        assert [(r.name, r.passed) for r in rows] == [
            ("Eq10-SpSm-same-node", False), ("Eq11-SpSm-adjacent", True), ("Eq19-EE-exchange", False)
        ]
        assert "vacuous" in rows[1].notes

    def test_generic_c_skips_are_counted_and_all_skipped_fails(self):
        # every theta value below the floor, which the c = 2, 3 contexts inherit
        (res,) = run_suite(ctx_for("A", 1, theta_floor=1e6), ["Eq30"]).results
        assert res.skipped == res.n_samples == 24
        assert not res.passed


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

    def test_full_catalogue_passes_off_p_equals_q_squared(self):
        # at the default p = q^2, (p/q)^{1/2} = q^{1/2}: a mix-up of E's and F's
        # zero-mode constants passes every row there and fails 12 rows here
        ctx = VerifierContext(cartan=make_cartan("A", 2), params=make_params(0.3, 0.7, 1))
        rep = run_suite(ctx)
        assert len(rep.results) == 48
        assert [r.name for r in rep.results if not r.passed] == []

    @pytest.mark.parametrize("pattern, names", [
        ("Eq20", ["Eq20-FF-exchange"]),
        ("eq20-ff", ["Eq20-FF-exchange"]),
        ("Eq7-", ["Eq7-SpSp-exchange"]),
        ("Eq19-EE-exchange", ["Eq19-EE-exchange"]),
        ("PostEq20", [n for n in EXPECTED_NAMES if n.startswith("PostEq20-")]),
        ("Eq1", []),
        ("Eq20-F", []),
    ])
    def test_filter_matches_whole_leading_name_parts(self, pattern, names):
        rep = run_suite(ctx_for("A", 1, order=40), [pattern])
        assert [r.name for r in rep.results] == names
        assert rep.all_pass

    def test_heisenberg_bracket_counts_what_it_compares(self):
        # A2's 4 node pairs and D4's 16, n = 1..30, two residuals each, and
        # one more per D4 orthogonal pair (6 of them)
        (res,) = run_suite(ctx_for("A", 2), ["heisenberg-bracket"]).results
        assert res.passed and res.n_samples == (4 + 16) * 30 * 2 + 6 * 30 == 1380


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
        g, skip = ctx.structure_function(g_ee, np.array([1.0, 0.5j, 1.0]), 2)
        assert skip.tolist() == [True, False, True] and np.isfinite(g[1])
        v = theta(PR.p, PR.q, 80)
        assert abs(v) < 1e-10

    def test_mixed_skips_are_counted_per_sample(self):
        # a floor at the median of A1's smallest E-E theta factor per sample
        # skips some samples but not all; the reference counts them one by one
        pa = PR.p_half**2
        xs = list(map(complex, ctx_for("A", 1).circle_samples()))
        low = [min(abs(theta(x * pa, PR.q)), abs(theta(pa / x, PR.q))) for x in xs]
        ctx = ctx_for("A", 1, theta_floor=float(np.median(low)))
        kernel = ctx.contract(ctx.spec("E", 0), ctx.spec("E", 0)).kernel
        want = sum(
            t < ctx.theta_floor
            or min(kernel.evaluate(x)[1], kernel.evaluate(1 / x)[1]) < ctx.pole_floor
            for t, x in zip(low, xs)
        )
        out = _exchange_driver(ctx, (("E", "E"),), g_ee)
        assert 0 < out["skipped"] == want < out["n_samples"] == 16
        assert out["passed"]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_nan_sample_fails_the_row(self, monkeypatch):
        # NaN is never read as a skip: a NaN from a defect fails the check
        ctx = ctx_for("A", 2)
        ope = ctx.contract(ctx.spec("E", 1), ctx.spec("E", 0))
        defective(monkeypatch, ("E", 1, "E", 0), dataclasses.replace(ope, coeff=complex("nan")))
        out = _exchange_driver(ctx, (("E", "E"),), g_ee)
        assert out["skipped"] == 0 and not out["passed"]
        assert np.isnan(out["max_residual"])

    def test_exchange_samples_near_zeros_are_skipped_and_reported(self):
        # an absurd floor forces every sample onto the skip path; a check
        # with nothing left to compare must not report a pass
        ctx = ctx_for("A", 1, order=40, theta_floor=1e6)
        out = _exchange_driver(ctx, (("E", "E"),), g_ee)
        assert out["skipped"] == out["n_samples"] > 0
        assert not out["passed"]

    def test_closed_form_samples_near_poles_are_skipped_and_reported(self):
        # the closed-form driver follows the same rule: all 16 samples
        # skipped is not a pass
        ctx = ctx_for("A", 1, order=40, pole_floor=1e6)
        out = _closed_form_driver(ctx, "E", "F", 2)
        assert out["skipped"] == out["n_samples"] == 16
        assert not out["passed"]


class TestSeriesCaches:
    def test_each_distinct_kernel_value_is_evaluated_once(self, monkeypatch):
        # D4 has 16 ordered node pairs in three Cartan classes; each class
        # shares one E-E contraction per direction, evaluated once on the
        # whole sample array (x, then 1/x)
        seen = []
        evaluate = ContractionKernel.evaluate

        def counted(kernel, x, *args):
            seen.append((kernel, np.shape(x)))
            return evaluate(kernel, x, *args)

        monkeypatch.setattr(ContractionKernel, "evaluate", counted)
        ctx = ctx_for("D", 4)
        out = _exchange_driver(ctx, (("E", "E"),), g_ee)
        assert out["passed"] and out["n_samples"] == 16 * 16
        assert len(seen) == 3 * 2 and {shape for _, shape in seen} == {(16,)}

    def test_a_defect_in_one_node_pair_is_not_hidden(self, monkeypatch):
        # a kernel off by 1e-6 on one node pair, not the first of its
        # class, is evaluated on its own and fails the check
        ctx = ctx_for("D", 4)
        pairs = [(i, j) for i, j, a in ctx.cartan.node_pairs() if a == -1]
        i, j = pairs[1]
        ope = ctx.contract(ctx.spec("E", i), ctx.spec("E", j))
        bad = ContractionKernel(tuple(
            KernelGroup(tuple((sg, mu * (1 + 1e-6)) for sg, mu in g.terms), g.dens)
            for g in ope.kernel.groups
        ))
        defective(monkeypatch, ("E", i, "E", j), dataclasses.replace(ope, kernel=bad))
        out = _exchange_driver(ctx, (("E", "E"),), g_ee)
        assert not out["passed"] and out["max_residual"] > 1e-8

    @pytest.mark.parametrize("row, key", [
        ("Eq19", ("E", 3, "E", 1)),
        ("PostEq20-EF-adjacent", ("E", 3, "F", 1)),
        ("Eq26", ("E", 3, "H+", 1)),  # read only as node pair (1, 3)'s Y X
    ])
    @pytest.mark.parametrize("defect", ["kernel", "coeff"])
    def test_a_defect_in_any_node_pair_fails_its_row(self, monkeypatch, row, key, defect):
        # (3, 1) is neither D4's first A_ij = -1 pair nor the reverse of it,
        # so no group shares its evaluation with a correct node pair
        ctx = ctx_for("D", 4)
        ope = ctx.contract(ctx.spec(*key[:2]), ctx.spec(*key[2:]))
        if defect == "kernel":
            bad = dataclasses.replace(ope, kernel=ope.kernel.scale(1 + 1e-6))
        else:
            bad = dataclasses.replace(ope, coeff=ope.coeff * (1 + 1e-6))
        defective(monkeypatch, key, bad)
        (res,) = run_suite(ctx, [row]).results
        assert not res.passed and res.max_residual > 1e-8

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_zero_reversed_contraction_is_skipped(self, monkeypatch):
        ctx = ctx_for("A", 2)
        ope = ctx.contract(ctx.spec("E", 1), ctx.spec("E", 0))
        defective(monkeypatch, ("E", 1, "E", 0), dataclasses.replace(ope, coeff=0j))
        out = _exchange_driver(ctx, (("E", "E"),), g_ee)
        # node pair (0, 1) reads it reversed and skips all 16 samples
        assert out["skipped"] == 16 and out["n_samples"] == 64
        assert np.isfinite(out["max_residual"])

    def test_series_exp_runs_once_per_cartan_class(self, monkeypatch):
        # D4's 16 ordered node pairs fall into the classes A_ij = 2, -1, 0
        calls = {"series_exp": 0, "zero_mode_reorder": 0}
        for name in calls:
            def counted(*args, _fn=getattr(currents, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(currents, name, counted)
        _node_free_part.cache_clear()
        keys = set()
        contract = VerifierContext.contract

        def recorded(ctx, sx, sy):
            keys.add((sx.kind, sx.node, sy.kind, sy.node))
            return contract(ctx, sx, sy)

        monkeypatch.setattr(VerifierContext, "contract", recorded)
        ctx = ctx_for("D", 4)
        (res,) = run_suite(ctx, ["Eq19"]).results
        assert res.passed and res.n_samples == 16 * 16
        assert len(keys) == 16
        assert calls == {"series_exp": 3, "zero_mode_reorder": 3}

    def test_a_zero_mode_defect_in_one_node_pair_is_not_hidden(self, monkeypatch):
        # the zero-mode monomial is shared by a Cartan class, but contractions
        # are grouped by value: an error of 1e-6 in one node pair's
        # coefficient, not the first of its class, fails the check
        ctx = ctx_for("D", 4)
        pairs = [(i, j) for i, j, a in ctx.cartan.node_pairs() if a == -1]
        i, j = pairs[1]
        ope = ctx.contract(ctx.spec("E", i), ctx.spec("E", j))
        bad = dataclasses.replace(ope, coeff=ope.coeff * (1 + 1e-6))
        defective(monkeypatch, ("E", i, "E", j), bad)
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
