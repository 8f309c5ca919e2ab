"""Executable catalogue of the algebra's defining relations.

Every relation is checked numerically, most through two independent routes:

* series route: fully summed contraction functions (q-products and exact
  monomials) evaluated at sample points and compared against the printed
  theta-quotient / rational expressions;
* Fock route: exact mode matrices on the truncated level-1 Fock space.

Exchange relations are verified as meromorphic-ratio identities,
R(x) = C_XY(1, x) / C_YX(x, 1) against the structure function, which is
how "analytical continuation" is made executable at desk scale.

Three typographic defects of the source displays are corrected here and
flagged in every report (see ERRATA): the EF cross relation mislabelled as
E E at A_ij = -1, the H+H- exchange with garbled exponents (replaced by the
general-c form at c = 1), the first delta argument of the E/F commutator
(delta(z/(w q)), as in the general-c display, which matches the pole at
w = z/q; the c = 1 display prints delta(w/(z q))).  Two further corrections
were established numerically: the H-E and H-F exchange sign is -1 for every
simply-laced A_ij (the printed (-1)^{A_ij - 1} fails at A_ij = -1), and the
psi factorization holds in the form phi(x)/phi(1/x) = x^{A_ij} psi(x).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import CartanMatrix, DeformationParams, make_cartan, make_params
from .currents import CurrentSpec, OpeResult, closed_form, contract, current_spec
from .fock import FockSpace
from .heisenberg import ModeBracketTable
from .qlaurent import LaurentSeries, delta_extract, theta

ERRATA = (
    "EF-cross-relation at A_ij=-1: display header reads E_i(z) E_j(w); "
    "corrected to E_i(z) F_j(w) (matches the S+S- pattern).",
    "H+H- exchange: printed exponents p^{(A_ij} are garbled; the clean "
    "general-c form at c=1 is used instead.",
    "E/F commutator, first delta: printed delta(w/(zq)) puts the support at "
    "w = zq where the contraction has no pole; the general-c display and "
    "the partial fractions give delta(z/(wq)), support w = z/q.  Corrected.",
    "H-E and H-F exchange sign: printed (-1)^{A_ij-1} fails at A_ij = -1; "
    "the bosonization gives the factor -1 for every simply-laced A_ij.",
    "psi factorization: printed psi(x) = phi(x)/phi(1/x) holds only at "
    "A_ij = 0; the identity is phi(x)/phi(1/x) = x^{A_ij} psi(x).",
)


class SkipSample(Exception):
    """Sample too close to a zero/pole; skipped and reported."""


@dataclass
class VerifierContext:
    """Shared configuration and caches for one verification run.

    The series route compares every node pair at every sample, but its values
    depend on a node pair only through A_ij.  So each value is computed once
    per run, keyed by the value of its inputs: ``_contract_cache`` holds one
    contraction per (kind, node, kind, node), ``_theta_cache`` one theta value
    per (x, base), and ``_kernel_cache`` one summed q-product per
    (kernel, w/z).  Equal kernels from different node pairs share an entry; a
    kernel that differs for one node pair is evaluated on its own.  The
    checks still count every node pair x sample they compare.
    """

    cartan: CartanMatrix
    params: DeformationParams
    order: int = 80
    n_samples: int = 16
    radius: float = 0.5
    n_random: int = 100
    serre_samples: int = 8
    fock_cap: int = 3
    fock_window: int = 3
    tol_series: float = 1e-8
    tol_fock: float = 1e-8
    seed: int = 75018
    theta_floor: float = 1e-6
    pole_floor: float = 1e-9
    _contract_cache: dict = field(default_factory=dict)
    _theta_cache: dict = field(default_factory=dict)
    _kernel_cache: dict = field(default_factory=dict)
    _fock: FockSpace | None = None
    _commutator_cache: dict = field(default_factory=dict)

    @property
    def fock(self) -> FockSpace:
        if self._fock is None:
            self._fock = FockSpace(self.cartan, self.params)
        return self._fock

    def spec(self, kind: str, node: int) -> CurrentSpec:
        return current_spec(kind, node, self.cartan.rank, self.params)

    def contract(self, spec_x: CurrentSpec, spec_y: CurrentSpec) -> OpeResult:
        key = (spec_x.kind, spec_x.node, spec_y.kind, spec_y.node)
        if key not in self._contract_cache:
            self._contract_cache[key] = contract(
                spec_x, spec_y, self.cartan, self.params, self.order
            )
        return self._contract_cache[key]

    def theta_g(self, x: complex, a: complex) -> complex:
        v = self._theta_cache.get((x, a))
        if v is None:
            v = self._theta_cache[x, a] = theta(x, a, self.order)
        if abs(v) < self.theta_floor:
            raise SkipSample(f"theta value {abs(v):.2e} below floor")
        return v

    def kernel_value(self, ope: OpeResult, z: complex, w: complex) -> tuple[complex, float]:
        """Monomial times the summed q-product at (z, w), and min |factor| (pole guard)."""
        x = w / z
        hit = self._kernel_cache.get((ope.kernel, x))
        if hit is None:
            hit = self._kernel_cache[ope.kernel, x] = ope.kernel.evaluate(x)
        val, closest = hit
        return ope.monomial(z, w) * val, closest

    def exchange_ratio(self, spec_x: CurrentSpec, spec_y: CurrentSpec, x: complex) -> complex:
        vxy, c1 = self.kernel_value(self.contract(spec_x, spec_y), 1.0, x)
        vyx, c2 = self.kernel_value(self.contract(spec_y, spec_x), x, 1.0)
        if min(c1, c2) < self.pole_floor or abs(vyx) == 0.0:
            raise SkipSample("contraction product too close to a pole")
        return vxy / vyx

    def circle_samples(self) -> np.ndarray:
        ph = (np.arange(self.n_samples) + 0.5) / self.n_samples * 2 * np.pi - np.pi
        return self.radius * np.exp(1j * ph)

    def node_pairs_by_class(self) -> dict[int, list[tuple[int, int]]]:
        out: dict[int, list[tuple[int, int]]] = {}
        for i, j, a in self.cartan.node_pairs():
            out.setdefault(a, []).append((i, j))
        return out


# ---------------------------------------------------------------------------
# structure functions


def psi(x: complex, a_ij: int, base: complex, params: DeformationParams, order: int = 80) -> complex:
    """Exchange factor (-1)^(A-1) x^-1 theta(x p^{A/2}) / theta(p^{A/2}/x)."""
    pa = params.p_half**a_ij
    return (
        (-1.0) ** (a_ij - 1)
        * x ** (-1.0)
        * theta(x * pa, base, order)
        / theta(pa / x, base, order)
    )


def phi(x: complex, a_ij: int, base: complex, base_half: complex, params: DeformationParams, order: int = 80) -> complex:
    """Factorizing component theta_base(x p^{A/2}) / theta_base(x base^{A/2})."""
    return theta(x * params.p_half**a_ij, base, order) / theta(
        x * base_half**a_ij, base, order
    )


def serre_coefficient(z1, z2, w, psi_fn, floor: float = 1e-9) -> complex:
    """f (or g) from the pairwise exchange factors psi_fn(x, a_ij)."""
    pii = psi_fn(z2 / z1, 2)
    pij1 = psi_fn(w / z1, -1)
    pij2 = psi_fn(w / z2, -1)
    den = pij2 + pii * pij1
    if abs(den) < floor * max(abs(pij2), abs(pii * pij1), 1.0):
        raise SkipSample("Serre coefficient denominator below floor")
    return (pii + 1) * (pij1 * pij2 + 1) / den


# exchange structure functions G(z, w) per relation; sign conventions carry
# the corrections listed in ERRATA.


def g_spsp(ctx: VerifierContext, z, w, a_ij):
    x = w / z
    b = ctx.params.beta
    pa = ctx.params.p_half**a_ij
    return (
        (-1.0) ** (a_ij - 1)
        * x ** (a_ij - a_ij * b - 1)
        * ctx.theta_g(x * pa, ctx.params.q)
        / ctx.theta_g(pa / x, ctx.params.q)
    )


def g_smsm(ctx, z, w, a_ij):
    x = w / z
    b = ctx.params.beta
    pa = ctx.params.p_half**a_ij
    pq = ctx.params.pq
    return (
        (-1.0) ** (a_ij - 1)
        * x ** (a_ij - a_ij / b - 1)
        * ctx.theta_g(x * pa, pq)
        / ctx.theta_g(pa / x, pq)
    )


def g_ee(ctx, z, w, a_ij, base=None):
    x = w / z
    pa = ctx.params.p_half**a_ij
    b = ctx.params.q if base is None else base
    return (
        (-1.0) ** (a_ij - 1) * x ** (-1.0) * ctx.theta_g(x * pa, b) / ctx.theta_g(pa / x, b)
    )


def g_ff(ctx, z, w, a_ij, base=None):
    b = ctx.params.pq if base is None else base
    return g_ee(ctx, z, w, a_ij, base=b)


def g_hh(ctx, z, w, a_ij, qt=None):
    x = w / z
    pa = ctx.params.p_half**a_ij
    qt = ctx.params.qtilde if qt is None else qt
    return (
        x ** (-2.0)
        * ctx.theta_g(x * pa, ctx.params.q)
        * ctx.theta_g(x * pa, qt)
        / (ctx.theta_g(pa / x, ctx.params.q) * ctx.theta_g(pa / x, qt))
    )


def _half_power(base: complex, half_exponent) -> complex:
    """base^(half_exponent/2); integer half-exponents stay branch-coherent."""
    f = float(half_exponent)
    if f.is_integer():
        import cmath

        return cmath.sqrt(base) ** int(f)
    return base ** (f / 2.0)


def g_hphm(ctx, z, w, a_ij, c: Fraction | None = None):
    x = w / z
    p = ctx.params
    c = p.c if c is None else Fraction(c)
    pm = _half_power(p.p, a_ij - c)  # p^{(A_ij - c)/2}
    pp = _half_power(p.p, a_ij + c)  # p^{(A_ij + c)/2}
    return (
        x ** (-2.0)
        * ctx.theta_g(x * pm, p.q)
        * ctx.theta_g(x * pp, p.qtilde)
        / (ctx.theta_g(pp / x, p.q) * ctx.theta_g(pm / x, p.qtilde))
    )


def g_he(ctx, z, w, a_ij, sign: int, c: Fraction | None = None):
    """H(sign) against E: uniform factor -1 (see ERRATA), theta base q."""
    p = ctx.params
    c = p.c if c is None else Fraction(c)
    pa = p.p_half**a_ij
    if sign > 0:
        sc = _half_power(p.q, -c)  # q^{-c/2}
    else:
        sc = _half_power(p.qtilde, c)  # qtilde^{c/2}
    x = w / z
    return (
        -((w * sc / z) ** (-1.0))
        * ctx.theta_g(x * pa * sc, p.q)
        / ctx.theta_g(pa / (sc * x), p.q)
    )


def g_hf(ctx, z, w, a_ij, sign: int, c: Fraction | None = None):
    """H(sign) against F: uniform factor -1, theta base qtilde."""
    p = ctx.params
    c = p.c if c is None else Fraction(c)
    pa = p.p_half**a_ij
    if sign > 0:
        sc = _half_power(p.q, c)  # q^{c/2}
    else:
        sc = _half_power(p.qtilde, -c)  # qtilde^{-c/2}
    x = w / z
    return (
        -((w * sc / z) ** (-1.0))
        * ctx.theta_g(x * pa * sc, p.qtilde)
        / ctx.theta_g(pa / (sc * x), p.qtilde)
    )


# ---------------------------------------------------------------------------
# relation results


@dataclass
class RelationResult:
    name: str
    anchor: str
    route: str
    n_samples: int
    skipped: int
    max_residual: float
    tolerance: float
    passed: bool
    notes: str = ""
    seconds: float = 0.0
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "relation": self.name,
            "anchor_quote": self.anchor,
            "route": self.route,
            "n_samples": self.n_samples,
            "skipped_samples": self.skipped,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "notes": self.notes,
            "seconds": round(self.seconds, 3),
            "details": self.details,
        }


@dataclass
class VerificationReport:
    algebra: str
    p: str
    q: str
    c: str
    order: int
    fock_cap: int
    seed: int
    results: list[RelationResult]
    errata: tuple[str, ...] = ERRATA

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "algebra": self.algebra,
            "p": self.p,
            "q": self.q,
            "c": self.c,
            "order": self.order,
            "fock_degree": self.fock_cap,
            "seed": self.seed,
            "all_pass": self.all_pass,
            "errata": list(self.errata),
            "checks": [r.to_dict() for r in self.results],
        }


# ---------------------------------------------------------------------------
# generic check drivers


def _exchange_driver(ctx, kind_x, kind_y, g_fn, a_filter=None, tol=None):
    """Ratio check of X(z) Y(w) = G(z,w) Y(w) X(z) over node pairs and samples."""
    tol = ctx.tol_series if tol is None else tol
    residuals, skipped, total = [], 0, 0
    instances = 0
    for i, j, a_ij in ctx.cartan.node_pairs():
        if a_filter is not None and a_ij not in a_filter:
            continue
        instances += 1
        sx, sy = ctx.spec(kind_x, i), ctx.spec(kind_y, j)
        for x in ctx.circle_samples():
            total += 1
            try:
                r = ctx.exchange_ratio(sx, sy, complex(x))
                g = g_fn(ctx, 1.0 + 0j, complex(x), a_ij, i, j)
            except SkipSample:
                skipped += 1
                continue
            residuals.append(abs(r - g) / max(abs(r), abs(g)))
    notes = ""
    if instances == 0:
        notes = "no node pairs with the required Cartan entry in this algebra; vacuous"
    res = max(residuals, default=0.0)
    return {
        "n_samples": total,
        "skipped": skipped,
        "max_residual": float(res),
        "tolerance": tol,
        "passed": res <= tol and (skipped < total or total == 0),
        "notes": notes,
    }


def _closed_form_driver(ctx, kind_x, kind_y, a_class, tol=None):
    """Summed contraction x zero-mode monomial against the printed closed form."""
    tol = ctx.tol_series if tol is None else tol
    residuals, skipped, total = [], 0, 0
    pairs = [(i, j) for i, j, a in ctx.cartan.node_pairs() if a == a_class]
    for i, j in pairs:
        sx, sy = ctx.spec(kind_x, i), ctx.spec(kind_y, j)
        cf = closed_form(kind_x, kind_y, a_class, ctx.params)
        ope = ctx.contract(sx, sy)
        for x in ctx.circle_samples():
            total += 1
            v, closest = ctx.kernel_value(ope, 1.0, complex(x))
            if closest < ctx.pole_floor:
                skipped += 1
                continue
            want = cf(1.0 + 0j, complex(x))
            residuals.append(abs(v - want) / max(abs(v), abs(want)))
    notes = ""
    if not pairs:
        notes = "no node pairs with the required Cartan entry in this algebra; vacuous"
    res = max(residuals, default=0.0)
    return {
        "n_samples": total,
        "skipped": skipped,
        "max_residual": float(res),
        "tolerance": tol,
        "passed": res <= tol and (skipped < total or total == 0),
        "notes": notes,
    }


def _commutator_driver(ctx: VerifierContext, tol_series=None, tol_fock=None):
    """Dual-route check of the E/F commutator for every node pair."""
    tol_series = ctx.tol_series if tol_series is None else tol_series
    tol_fock = ctx.tol_fock if tol_fock is None else tol_fock
    key = (ctx.fock_cap, ctx.fock_window)
    if key in ctx._commutator_cache:
        return ctx._commutator_cache[key]
    p, q = ctx.params.p, ctx.params.q
    series_res, fock_res = [], []
    compared = vacuous = 0
    details: dict = {}
    sectors = [tuple([0] * ctx.cartan.rank)]
    for i, j, a_ij in ctx.cartan.node_pairs():
        e_i, f_j = ctx.spec("E", i), ctx.spec("F", j)
        ope_ef = ctx.contract(e_i, f_j)
        ope_fe = ctx.contract(f_j, e_i)
        zs1, inner = ope_ef.laurent_in_x(True)
        zs2, outer = ope_fe.laurent_in_x(False)
        if abs(zs1 - zs2) > 1e-9:
            raise ValueError("EF and FE monomials do not share a z power")
        window = min(ctx.order // 3, 24)
        if i == j:
            poles = [1 / q, p / q]
            comb = delta_extract(
                inner, outer, poles, tol=tol_series, window=(-window - 2, window)
            )
            w_expect = {1 / q: q / (p - 1), p / q: q / (p * (1 - p))}
            werr = max(
                abs(comb.weight_at(s) - wv) / abs(wv) for s, wv in w_expect.items()
            )
            series_res.append(max(comb.residual, werr))
            details[f"supports[{i},{j}]"] = [
                [repr(s), repr(w)] for s, w in comb.terms
            ]
        elif a_ij == -1:
            delta = LaurentSeries.from_coeff_map(
                {0: 2 * ctx.params.pq_half, 1: -2 * ctx.params.q_half}, inner.order
            )
            diff = inner - outer
            scale = max(np.max(np.abs(diff.window(0, 1))), 1.0)
            lo = min(inner.min_exp, outer.min_exp)
            hi = min(window, inner.order, outer.order)
            err = np.max(np.abs((diff - delta).window(lo, hi))) / scale
            comb = delta_extract(
                inner - delta, outer, [], tol=tol_series, window=(-window, window)
            )
            series_res.append(max(float(err), comb.residual))
        else:
            diff = inner - outer
            lo = min(inner.min_exp, outer.min_exp)
            hi = min(window, inner.order, outer.order)
            series_res.append(float(np.max(np.abs(diff.window(lo, hi)))))
        rep = ctx.fock.commutator_check(e_i, f_j, sectors, ctx.fock_cap, ctx.fock_window)
        fock_res.append(rep.max_residual)
        compared += len(rep.residuals) - rep.vacuous
        vacuous += rep.vacuous
        details[f"fock[{i},{j}]"] = rep.max_residual
    out = {
        "series": float(max(series_res, default=0.0)),
        "fock": float(max(fock_res, default=0.0)),
        "compared": compared,
        "vacuous": vacuous,
        "details": details,
        "tol_series": tol_series,
        "tol_fock": tol_fock,
    }
    ctx._commutator_cache[key] = out
    return out


def _serre_driver(ctx: VerifierContext, kind: str, tol=None):
    """Cubic Serre relation through six fully-contracted triple products."""
    tol = 1e-7 if tol is None else tol
    pairs = [(i, j) for i, j, a in ctx.cartan.node_pairs() if a == -1]
    if not pairs:
        return {
            "n_samples": 0,
            "skipped": 0,
            "max_residual": 0.0,
            "tolerance": tol,
            "passed": True,
            "notes": "no adjacent node pair in this algebra; vacuous",
        }
    base = ctx.params.q if kind == "E" else ctx.params.qtilde
    rng = np.random.default_rng(ctx.seed)
    residuals, skipped, total = [], 0, 0

    def contraction(i1, z1, i2, z2):
        ope = ctx.contract(ctx.spec(kind, i1), ctx.spec(kind, i2))
        v, closest = ctx.kernel_value(ope, z1, z2)
        if closest < ctx.pole_floor:
            raise SkipSample("triple product too close to a pole")
        return v

    def triple(order):
        tot = 1.0 + 0.0j
        for a in range(3):
            for b in range(a + 1, 3):
                (na, za), (nb, zb) = order[a], order[b]
                tot *= contraction(na, za, nb, zb)
        return tot

    def psi_fn(x, a_ij):
        return psi(x, a_ij, base, ctx.params, ctx.order)

    for i, j in pairs[:2]:  # one pair per orientation suffices; stays cheap
        done = 0
        attempts = 0
        while done < ctx.serre_samples and attempts < 10 * ctx.serre_samples:
            attempts += 1
            total += 1
            z1, z2, w = (
                rng.uniform(0.7, 1.3) * np.exp(1j * rng.uniform(-2.8, 2.8))
                for _ in range(3)
            )
            try:
                f12 = serre_coefficient(z1, z2, w, psi_fn)
                f21 = serre_coefficient(z2, z1, w, psi_fn)
                o1, o2, o3 = (i, z1), (i, z2), (j, w)
                terms = [
                    triple((o1, o2, o3)),
                    -f12 * triple((o1, o3, o2)),
                    triple((o3, o1, o2)),
                    triple((o2, o1, o3)),
                    -f21 * triple((o2, o3, o1)),
                    triple((o3, o2, o1)),
                ]
            except SkipSample:
                skipped += 1
                continue
            scale = max(abs(t) for t in terms)
            residuals.append(abs(sum(terms)) / scale)
            done += 1
    res = max(residuals, default=0.0)
    return {
        "n_samples": total,
        "skipped": skipped,
        "max_residual": float(res),
        "tolerance": tol,
        "passed": res <= tol and residuals != [],
        "notes": "",
    }


def _jacobi_sum(x: complex, a: complex) -> tuple[complex, float]:
    """sum_n (-1)^n a^{n(n-1)/2} x^n and sum_n |term|, summed out to 1e-18 of the latter.

    By the Jacobi triple product this equals the theta product, so it is an
    independent route to theta(x, a).
    """
    total, size, n = 1.0 + 0.0j, 1.0, 1
    while True:
        terms = [(-1) ** k * a ** (k * (k - 1) // 2) * x**k for k in (n, -n)]
        total += sum(terms)
        size += sum(abs(t) for t in terms)
        if max(abs(t) for t in terms) < 1e-18 * size:
            return total, size
        n += 1


def _theta_driver(ctx, tol=1e-9):
    rng = np.random.default_rng(ctx.seed)
    worst = 0.0
    n = ctx.n_random
    for _ in range(n):
        a = rng.uniform(0.05, 0.5) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        x = rng.uniform(0.2, 1.8) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        lhs = theta(a * x, a, ctx.order)
        rhs = -theta(x, a, ctx.order) / x
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
        # the product against the triple-product sum, relative to the sum's term sizes
        total, size = _jacobi_sum(x, a)
        worst = max(worst, abs(theta(x, a, ctx.order) - total) / size)
    return {
        "n_samples": 2 * n,
        "skipped": 0,
        "max_residual": float(worst),
        "tolerance": tol,
        "passed": worst <= tol,
        "notes": "",
    }


def _heisenberg_driver(ctx, tol=1e-12):
    worst = 0.0
    cartans = [ctx.cartan]
    if ctx.cartan.label != "D" or ctx.cartan.rank != 4:
        cartans.append(make_cartan("D", 4))
    for cartan in cartans:
        table = ModeBracketTable(cartan, ctx.params)
        p, q, ph = ctx.params.p, ctx.params.q, ctx.params.p_half
        for i, j, a_ij in cartan.node_pairs():
            for n in range(1, 31):
                b = table.bracket(i, j, n, -n)
                direct = (
                    (1 - q**n)
                    * (ph ** (a_ij * n) - ph ** (-a_ij * n))
                    * (1 - (p / q) ** n)
                    / (n * (1 - p**n))
                )
                scale = max(abs(direct), 1e-30)
                worst = max(worst, abs(b - direct) / scale)
                anti = table.bracket(j, i, -n, n)
                worst = max(worst, abs(b + anti) / scale)
                if a_ij == 0:
                    worst = max(worst, abs(b))
                if table.bracket(i, j, n, n + 1) != 0:
                    worst = max(worst, 1.0)
    return {
        "n_samples": 0,
        "skipped": 0,
        "max_residual": float(worst),
        "tolerance": tol,
        "passed": worst <= tol,
        "notes": "checked on the run algebra and on D4",
    }


def _structure_driver(ctx, which: str):
    rng = np.random.default_rng(ctx.seed + 1)
    worst, skipped, total = 0.0, 0, 0
    tol = 1e-10 if which in ("psi-inversion", "phi-factorization") else 1e-9
    if which in ("psi-inversion", "phi-factorization"):
        for _ in range(ctx.n_random):
            a_ij = int(rng.choice([2, -1, 0]))
            x = rng.uniform(0.3, 1.7) * np.exp(1j * rng.uniform(-3.0, 3.0))
            for base, bh in (
                (ctx.params.q, ctx.params.q_half),
                (ctx.params.qtilde, ctx.params.qtilde_half),
            ):
                total += 1
                try:
                    if which == "psi-inversion":
                        v = psi(x, a_ij, base, ctx.params, ctx.order) * psi(
                            1 / x, a_ij, base, ctx.params, ctx.order
                        )
                        worst = max(worst, abs(v - 1))
                    else:
                        lhs = phi(x, a_ij, base, bh, ctx.params, ctx.order) / phi(
                            1 / x, a_ij, base, bh, ctx.params, ctx.order
                        )
                        rhs = x ** float(a_ij) * psi(x, a_ij, base, ctx.params, ctx.order)
                        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
                except (SkipSample, ZeroDivisionError):
                    skipped += 1
    else:  # serre coefficients rebuilt from the engine's exchange ratios
        pairs = [(i, j) for i, j, a in ctx.cartan.node_pairs() if a == -1]
        if not pairs:
            return {
                "n_samples": 0,
                "skipped": 0,
                "max_residual": 0.0,
                "tolerance": tol,
                "passed": True,
                "notes": "needs an adjacent node pair; vacuous",
            }
        i, j = pairs[0]

        def psi_engine_e(x, a_ij):
            sx = ctx.spec("E", i)
            sy = ctx.spec("E", i if a_ij == 2 else j)
            return ctx.exchange_ratio(sx, sy, x)

        def psi_printed_e(x, a_ij):
            return psi(x, a_ij, ctx.params.q, ctx.params, ctx.order)

        for _ in range(max(ctx.n_random // 4, 8)):
            total += 1
            z1, z2, w = (
                rng.uniform(0.7, 1.3) * np.exp(1j * rng.uniform(-2.8, 2.8))
                for _ in range(3)
            )
            try:
                f_engine = serre_coefficient(z1, z2, w, psi_engine_e)
                f_printed = serre_coefficient(z1, z2, w, psi_printed_e)
            except SkipSample:
                skipped += 1
                continue
            worst = max(
                worst, abs(f_engine - f_printed) / max(abs(f_engine), abs(f_printed))
            )
    return {
        "n_samples": total,
        "skipped": skipped,
        "max_residual": float(worst),
        "tolerance": tol,
        "passed": worst <= tol,
        "notes": "",
    }


def _sl2_generic_driver(ctx, which: str, tol=1e-9):
    """Function-level checks of the general-c block: self-inversion where the
    relation pairs with itself, and c=1 specialization against the operator-
    verified forms.  No operator check exists away from c = 1."""
    worst, total = 0.0, 0
    rng = np.random.default_rng(ctx.seed + 2)
    xs = [
        rng.uniform(0.4, 1.6) * np.exp(1j * rng.uniform(-2.9, 2.9)) for _ in range(12)
    ]
    base = ctx.params
    for c in (Fraction(2), Fraction(3)):
        pc = make_params(base.p, base.q, c)
        cctx = VerifierContext(cartan=make_cartan("A", 1), params=pc, order=ctx.order)
        for x in xs:
            total += 1
            try:
                g = _sl2_function(cctx, which, complex(x), c)
                if which in ("Eq30", "Eq36", "Eq37"):
                    ginv = _sl2_function(cctx, which, 1 / complex(x), c)
                    worst = max(worst, abs(g * ginv - 1))
                qt = pc.qtilde
                worst = max(worst, abs(pc.q * qt - pc.p ** float(c)) / abs(pc.p ** float(c)))
            except SkipSample:
                continue
    # c = 1 specialization against the general-g functions at A_ij = 2
    p1 = make_params(base.p, base.q, Fraction(1))
    c1 = VerifierContext(cartan=make_cartan("A", 1), params=p1, order=ctx.order)
    for x in xs:
        total += 1
        try:
            g = _sl2_function(c1, which, complex(x), Fraction(1))
            h = _general_counterpart(c1, which, complex(x))
        except SkipSample:
            continue
        if h is not None:
            worst = max(worst, abs(g - h) / max(abs(g), abs(h)))
    notes = "function-level only; no representation exists away from c=1"
    if which == "Eq38":
        s1, s2 = 1 / p1.q, p1.qtilde  # supports z = w q^c, w = z qtilde^c at c=1
        worst = max(worst, abs(s1 - 1 / base.q), abs(s2 - base.p / base.q))
        notes += "; delta supports checked to coincide with the c=1 commutator"
    return {
        "n_samples": total,
        "skipped": 0,
        "max_residual": float(worst),
        "tolerance": tol,
        "passed": worst <= tol,
        "notes": notes,
    }


def _sl2_function(cctx, which, x, c):
    z, w = 1.0 + 0j, x
    if which == "Eq30":
        return g_hh(cctx, z, w, 2)
    if which == "Eq31":
        return g_hphm(cctx, z, w, 2, c)
    if which == "Eq32":
        return g_he(cctx, z, w, 2, +1, c)
    if which == "Eq33":
        return g_he(cctx, z, w, 2, -1, c)
    if which == "Eq34":
        return g_hf(cctx, z, w, 2, +1, c)
    if which == "Eq35":
        return g_hf(cctx, z, w, 2, -1, c)
    if which == "Eq36":
        return g_ee(cctx, z, w, 2)
    if which == "Eq37":
        return g_ff(cctx, z, w, 2, base=cctx.params.qtilde)
    if which == "Eq38":
        return 1.0 + 0j  # supports handled by the caller
    raise ValueError(which)


def _general_counterpart(cctx, which, x):
    """The corresponding general-g function at A_ij = 2, c = 1."""
    z, w = 1.0 + 0j, x
    table = {
        "Eq30": lambda: g_hh(cctx, z, w, 2),
        "Eq31": lambda: g_hphm(cctx, z, w, 2, Fraction(1)),
        "Eq32": lambda: g_he(cctx, z, w, 2, +1, Fraction(1)),
        "Eq33": lambda: g_he(cctx, z, w, 2, -1, Fraction(1)),
        "Eq34": lambda: g_hf(cctx, z, w, 2, +1, Fraction(1)),
        "Eq35": lambda: g_hf(cctx, z, w, 2, -1, Fraction(1)),
        "Eq36": lambda: g_ee(cctx, z, w, 2),
        "Eq37": lambda: g_ff(cctx, z, w, 2, base=cctx.params.qtilde),
        "Eq38": lambda: None,
    }
    return table[which]()


# ---------------------------------------------------------------------------
# the catalogue


def _wrap_g(fn, **kw):
    def g(ctx, z, w, a_ij, i, j):
        return fn(ctx, z, w, a_ij, **kw)

    return g


def build_catalogue(ctx: VerifierContext) -> list[tuple[str, str, str, object]]:
    """(name, anchor quote, route, runner) for every in-scope relation."""
    c1 = ctx.params.c == 1
    cat: list[tuple[str, str, str, object]] = []

    def add(name, anchor, route, runner, requires_c1=False):
        if requires_c1 and not c1:
            def skipper(_ctx, _anchor=anchor):
                return {
                    "n_samples": 0,
                    "skipped": 0,
                    "max_residual": 0.0,
                    "tolerance": 0.0,
                    "passed": True,
                    "notes": "needs the level-1 representation (c = 1); skipped",
                }

            cat.append((name, anchor, "skipped", skipper))
        else:
            cat.append((name, anchor, route, runner))

    add(
        "theta-quasiperiodicity",
        "theta_a(ax) = -x^{-1} theta_a(x),  theta_a(x e^{2 pi i}) = theta_a(x)",
        "series",
        lambda c: _theta_driver(c),
    )
    add(
        "heisenberg-bracket",
        "[a_i[n], a_j[m]] = (1/n)(1-q^n)(p^{A_ij n/2}-p^{-A_ij n/2})(1-(p/q)^n)/(1-p^n) delta_{n,-m}",
        "direct",
        lambda c: _heisenberg_driver(c),
    )
    add(
        "Eq7-SpSp-exchange",
        "S+_i(z) S+_j(w) = (-1)^{A_ij-1} (w/z)^{A_ij-A_ij b-1} theta_q((w/z)p^{A_ij/2})/theta_q((z/w)p^{A_ij/2}) S+_j(w) S+_i(z)",
        "series",
        lambda c: _exchange_driver(c, "S+", "S+", _wrap_g(g_spsp)),
    )
    add(
        "Eq8-SmSm-exchange",
        "S-_i(z) S-_j(w) = (-1)^{A_ij-1} (w/z)^{A_ij-A_ij/b-1} theta_{p/q}((w/z)p^{A_ij/2})/theta_{p/q}((z/w)p^{A_ij/2}) S-_j(w) S-_i(z)",
        "series",
        lambda c: _exchange_driver(c, "S-", "S-", _wrap_g(g_smsm)),
    )
    for name, kx, ky, a_cls, anchor in (
        ("Eq10-SpSm-same-node", "S+", "S-", 2, "S+_i(z) S-_i(w) = 1/((z-wq)(z-wp^{-1}q)) :S+_i(z) S-_i(w):"),
        ("Eq11-SpSm-adjacent", "S+", "S-", -1, "S+_i(z) S-_j(w) = (z-wp^{-1/2}q) :S+_i(z) S-_j(w):,  A_ij=-1"),
        ("Eq12-SpSm-orthogonal", "S+", "S-", 0, "S+_i(z) S-_j(w) = :S+_i(z) S-_j(w):,  A_ij=0"),
        ("Eq13-SmSp-same-node", "S-", "S+", 2, "S-_i(w) S+_i(z) = 1/((w-zq^{-1})(w-zpq^{-1})) :S+_i(z) S-_i(w):"),
        ("Eq14-SmSp-adjacent", "S-", "S+", -1, "S-_j(w) S+_i(z) = (w-zp^{1/2}q^{-1}) :S+_i(z) S-_j(w):,  A_ij=-1"),
        ("Eq15-SmSp-orthogonal", "S-", "S+", 0, "S-_j(w) S+_i(z) = :S+_i(z) S-_j(w):,  A_ij=0"),
        ("PostEq20-EF-same-node", "E", "F", 2, "E_i(z) F_i(w) = 1/((z(p/q)^{1/2})^2 (1-wq/z)(1-wp^{-1}q/z)) :E_i(z) F_i(w):"),
        ("PostEq20-EF-adjacent", "E", "F", -1, "E_i(z) F_j(w) = (z(p/q)^{1/2})(1-(w/z)p^{-1/2}q) :E_i(z) F_j(w):,  A_ij=-1 (header corrected from E E)"),
        ("PostEq20-EF-orthogonal", "E", "F", 0, "E_i(z) F_j(w) = :E_i(z) F_j(w):,  A_ij=0"),
        ("PostEq20-FE-same-node", "F", "E", 2, "F_i(w) E_i(z) = 1/((wq^{1/2})^2 (1-z/(wq))(1-z/(wp^{-1}q))) :E_i(z) F_i(w):"),
        ("PostEq20-FE-adjacent", "F", "E", -1, "F_j(w) E_i(z) = (wq^{1/2})(1-(z/w)p^{1/2}q^{-1}) :E_i(z) F_j(w):,  A_ij=-1"),
        ("PostEq20-FE-orthogonal", "F", "E", 0, "F_j(w) E_i(z) = :E_i(z) F_j(w):,  A_ij=0"),
    ):
        add(name, anchor, "series", _make_closed_runner(kx, ky, a_cls))
    add(
        "Eq19-EE-exchange",
        "E_i(z) E_j(w) = (-1)^{A_ij-1} (w/z)^{-1} theta_q((w/z)p^{A_ij/2})/theta_q((z/w)p^{A_ij/2}) E_j(w) E_i(z)",
        "series",
        lambda c: _exchange_driver(c, "E", "E", _wrap_g(g_ee)),
    )
    add(
        "Eq20-FF-exchange",
        "F_i(z) F_j(w) = (-1)^{A_ij-1} (w/z)^{-1} theta_{p/q}((w/z)p^{A_ij/2})/theta_{p/q}((z/w)p^{A_ij/2}) F_j(w) F_i(z)",
        "series",
        lambda c: _exchange_driver(c, "F", "F", _wrap_g(g_ff)),
    )
    add(
        "Eq21-EF-commutator",
        "[E_i(z), F_j(w)] ~ delta_ij/((p-1)zw) [delta(z/(wq)) H+_i(zq^{-1/2}) - delta(w/(z(p/q))) H-_i(w(p/q)^{-1/2})]  (first delta corrected)",
        "both",
        _commutator_runner,
        requires_c1=True,
    )
    add(
        "Eq24-HH-exchange",
        "H+-_i(z) H+-_j(w) = (w/z)^{-2} theta_q((w/z)p^{A_ij/2}) theta_qt((w/z)p^{A_ij/2}) / (theta_q((z/w)p^{A_ij/2}) theta_qt((z/w)p^{A_ij/2})) H+-_j(w) H+-_i(z)",
        "series",
        _hh_runner,
        requires_c1=True,
    )
    add(
        "Eq25-HpHm-exchange",
        "H+_i(z) H-_j(w) = (w/z)^{-2} theta_q((w/z)p^{(A_ij-c)/2}) theta_qt((w/z)p^{(A_ij+c)/2}) / (...inverse args...) H-_j(w) H+_i(z)  (garbled print; c=1 form of the general display)",
        "series",
        lambda c: _exchange_driver(c, "H+", "H-", _wrap_g(g_hphm)),
        requires_c1=True,
    )
    add(
        "Eq26-HpE-exchange",
        "H+_i(z) E_j(w) = -(w/(zq^{1/2}))^{-1} theta_q((w/z)p^{A_ij/2}q^{-1/2})/theta_q((z/w)p^{A_ij/2}q^{1/2}) E_j(w) H+_i(z)  (sign corrected)",
        "series",
        lambda c: _exchange_driver(c, "H+", "E", _wrap_g(g_he, sign=+1)),
        requires_c1=True,
    )
    add(
        "Eq27-HmE-exchange",
        "H-_i(z) E_j(w) = -(w(p/q)^{1/2}/z)^{-1} theta_q((w/z)p^{A_ij/2}(p/q)^{1/2})/theta_q((z/w)p^{A_ij/2}(p/q)^{-1/2}) E_j(w) H-_i(z)  (sign corrected)",
        "series",
        lambda c: _exchange_driver(c, "H-", "E", _wrap_g(g_he, sign=-1)),
        requires_c1=True,
    )
    add(
        "Eq28-HpF-exchange",
        "H+_i(z) F_j(w) = -(wq^{1/2}/z)^{-1} theta_{p/q}((w/z)p^{A_ij/2}q^{1/2})/theta_{p/q}((z/w)p^{A_ij/2}q^{-1/2}) F_j(w) H+_i(z)  (sign corrected)",
        "series",
        lambda c: _exchange_driver(c, "H+", "F", _wrap_g(g_hf, sign=+1)),
        requires_c1=True,
    )
    add(
        "Eq29-HmF-exchange",
        "H-_i(z) F_j(w) = -(w/(z(p/q)^{1/2}))^{-1} theta_{p/q}((w/z)p^{A_ij/2}(p/q)^{-1/2})/theta_{p/q}((z/w)p^{A_ij/2}(p/q)^{1/2}) F_j(w) H-_i(z)  (sign corrected)",
        "series",
        lambda c: _exchange_driver(c, "H-", "F", _wrap_g(g_hf, sign=-1)),
        requires_c1=True,
    )
    for which, anchor in (
        ("Eq30", "H+-(z) H+-(w) = (w/z)^{-2} theta_q((w/z)p) theta_qt((w/z)p)/(...) H+-(w) H+-(z)"),
        ("Eq31", "H+(z) H-(w) = (w/z)^{-2} theta_q((w/z)p^{(2-c)/2}) theta_qt((w/z)p^{(2+c)/2})/(...) H-(w) H+(z)"),
        ("Eq32", "H+(z) E(w) = -(wq^{-c/2}/z)^{-1} theta_q((w/z)pq^{-c/2})/theta_q((z/w)pq^{c/2}) E(w) H+(z)"),
        ("Eq33", "H-(z) E(w) = -(w qt^{c/2}/z)^{-1} theta_q((w/z)p qt^{c/2})/theta_q((z/w)p qt^{-c/2}) E(w) H-(z)"),
        ("Eq34", "H+(z) F(w) = -(wq^{c/2}/z)^{-1} theta_qt((w/z)pq^{c/2})/theta_qt((z/w)pq^{-c/2}) F(w) H+(z)"),
        ("Eq35", "H-(z) F(w) = -(w qt^{-c/2}/z)^{-1} theta_qt((w/z)p qt^{-c/2})/theta_qt((z/w)p qt^{c/2}) F(w) H-(z)"),
        ("Eq36", "E(z) E(w) = -(w/z)^{-1} theta_q((w/z)p)/theta_q((z/w)p) E(w) E(z)"),
        ("Eq37", "F(z) F(w) = -(w/z)^{-1} theta_qt((w/z)p)/theta_qt((z/w)p) F(w) F(z)"),
        ("Eq38", "[E(z), F(w)] = 1/((p-1)zw) [delta(z/(wq^c)) H+(zq^{-c/2}) - delta(w/(z qt^c)) H-(w qt^{-c/2})],  q qt = p^c"),
    ):
        label = {
            "Eq30": "sl2-HH", "Eq31": "sl2-HpHm", "Eq32": "sl2-HpE",
            "Eq33": "sl2-HmE", "Eq34": "sl2-HpF", "Eq35": "sl2-HmF",
            "Eq36": "sl2-EE", "Eq37": "sl2-FF", "Eq38": "sl2-EF-commutator",
        }[which]
        add(
            f"{which}-{label}-generic-c",
            anchor,
            "function",
            _make_sl2_runner(which),
        )
    add(
        "Eq39-HH-exchange-c",
        "general g: H+-_i(z) H+-_j(w) exchange with theta_q theta_qt at p^{A_ij/2}",
        "series",
        _hh_runner,
        requires_c1=True,
    )
    add(
        "Eq40-HpHm-exchange-c",
        "general g: H+_i(z) H-_j(w) exchange with p^{(A_ij-c)/2}, p^{(A_ij+c)/2}",
        "series",
        lambda c: _exchange_driver(c, "H+", "H-", _wrap_g(g_hphm)),
        requires_c1=True,
    )
    add(
        "Eq41-HpE-exchange-c",
        "general g: H+_i(z) E_j(w) exchange, theta_q, shifts q^{+-c/2}  (sign corrected)",
        "series",
        lambda c: _exchange_driver(c, "H+", "E", _wrap_g(g_he, sign=+1)),
        requires_c1=True,
    )
    add(
        "Eq42-HmE-exchange-c",
        "general g: H-_i(z) E_j(w) exchange, theta_q, shifts qt^{+-c/2}  (sign corrected)",
        "series",
        lambda c: _exchange_driver(c, "H-", "E", _wrap_g(g_he, sign=-1)),
        requires_c1=True,
    )
    add(
        "Eq43-HpF-exchange-c",
        "general g: H+_i(z) F_j(w) exchange, theta_qt, shifts q^{+-c/2}  (sign corrected)",
        "series",
        lambda c: _exchange_driver(c, "H+", "F", _wrap_g(g_hf, sign=+1)),
        requires_c1=True,
    )
    add(
        "Eq44-HmF-exchange-c",
        "general g: H-_i(z) F_j(w) exchange, theta_qt, shifts qt^{+-c/2}  (sign corrected)",
        "series",
        lambda c: _exchange_driver(c, "H-", "F", _wrap_g(g_hf, sign=-1)),
        requires_c1=True,
    )
    add(
        "Eq45-EE-exchange-c",
        "general g: E_i(z) E_j(w) exchange (c independent)",
        "series",
        lambda c: _exchange_driver(c, "E", "E", _wrap_g(g_ee)),
    )
    add(
        "Eq46-FF-exchange-c",
        "general g: F_i(z) F_j(w) exchange with theta_qt",
        "series",
        lambda c: _exchange_driver(
            c, "F", "F", _wrap_g(g_ff, base=c.params.qtilde)
        ),
        requires_c1=True,
    )
    add(
        "Eq47-EF-commutator-c",
        "general g: [E_i(z), F_j(w)] = delta_ij/((p-1)zw)[delta(z/(wq^c)) H+ - delta(w/(z qt^c)) H-]",
        "both",
        _commutator_runner,
        requires_c1=True,
    )
    add(
        "Eq48-Serre-E",
        "E_i(z1)E_i(z2)E_j(w) - f_ij(z1/w,z2/w) E_i(z1)E_j(w)E_i(z2) + E_j(w)E_i(z1)E_i(z2) + (z1 <-> z2) = 0,  A_ij=-1",
        "series",
        lambda c: _serre_driver(c, "E"),
    )
    add(
        "Eq51-Serre-F",
        "F_i(z1)F_i(z2)F_j(w) - g_ij(z1/w,z2/w) F_i(z1)F_j(w)F_i(z2) + F_j(w)F_i(z1)F_i(z2) + (z1 <-> z2) = 0,  A_ij=-1",
        "series",
        lambda c: _serre_driver(c, "F"),
        requires_c1=True,
    )
    add(
        "psi-inversion",
        "psi^{(q)}_ij(x) psi^{(q)}_ij(x^{-1}) = 1,  psi^{(qt)}_ij(x) psi^{(qt)}_ij(x^{-1}) = 1",
        "function",
        lambda c: _structure_driver(c, "psi-inversion"),
    )
    add(
        "phi-factorization",
        "phi^{(q)}_ij(x)/phi^{(q)}_ij(x^{-1}) = x^{A_ij} psi^{(q)}_ij(x)  (monomial corrected)",
        "function",
        lambda c: _structure_driver(c, "phi-factorization"),
    )
    add(
        "serre-coefficients-from-psi",
        "f_ij, g_ij rebuilt from engine exchange ratios match their psi formulas",
        "function",
        lambda c: _structure_driver(c, "from-engine"),
    )
    return cat


def _make_closed_runner(kx, ky, a_cls):
    def runner(ctx):
        return _closed_form_driver(ctx, kx, ky, a_cls)

    return runner


def _make_sl2_runner(which):
    def runner(ctx):
        return _sl2_generic_driver(ctx, which)

    return runner


def _hh_runner(ctx):
    out1 = _exchange_driver(ctx, "H+", "H+", _wrap_g(g_hh))
    out2 = _exchange_driver(ctx, "H-", "H-", _wrap_g(g_hh))
    return {
        "n_samples": out1["n_samples"] + out2["n_samples"],
        "skipped": out1["skipped"] + out2["skipped"],
        "max_residual": max(out1["max_residual"], out2["max_residual"]),
        "tolerance": out1["tolerance"],
        "passed": out1["passed"] and out2["passed"],
        "notes": out1["notes"],
    }


def _commutator_runner(ctx):
    out = _commutator_driver(ctx)
    res = max(out["series"], out["fock"])
    return {
        "n_samples": out["compared"],
        "skipped": out["vacuous"],
        "max_residual": res,
        "tolerance": max(out["tol_series"], out["tol_fock"]),
        "passed": out["series"] <= out["tol_series"] and out["fock"] <= out["tol_fock"],
        "notes": f"series residual {out['series']:.3e}, fock residual {out['fock']:.3e}",
        "details": out["details"],
    }


CATALOGUE_NAMES = [
    "theta-quasiperiodicity",
    "heisenberg-bracket",
    "Eq7-SpSp-exchange",
    "Eq8-SmSm-exchange",
    "Eq10-SpSm-same-node",
    "Eq11-SpSm-adjacent",
    "Eq12-SpSm-orthogonal",
    "Eq13-SmSp-same-node",
    "Eq14-SmSp-adjacent",
    "Eq15-SmSp-orthogonal",
    "PostEq20-EF-same-node",
    "PostEq20-EF-adjacent",
    "PostEq20-EF-orthogonal",
    "PostEq20-FE-same-node",
    "PostEq20-FE-adjacent",
    "PostEq20-FE-orthogonal",
    "Eq19-EE-exchange",
    "Eq20-FF-exchange",
    "Eq21-EF-commutator",
    "Eq24-HH-exchange",
    "Eq25-HpHm-exchange",
    "Eq26-HpE-exchange",
    "Eq27-HmE-exchange",
    "Eq28-HpF-exchange",
    "Eq29-HmF-exchange",
    "Eq30-sl2-HH-generic-c",
    "Eq31-sl2-HpHm-generic-c",
    "Eq32-sl2-HpE-generic-c",
    "Eq33-sl2-HmE-generic-c",
    "Eq34-sl2-HpF-generic-c",
    "Eq35-sl2-HmF-generic-c",
    "Eq36-sl2-EE-generic-c",
    "Eq37-sl2-FF-generic-c",
    "Eq38-sl2-EF-commutator-generic-c",
    "Eq39-HH-exchange-c",
    "Eq40-HpHm-exchange-c",
    "Eq41-HpE-exchange-c",
    "Eq42-HmE-exchange-c",
    "Eq43-HpF-exchange-c",
    "Eq44-HmF-exchange-c",
    "Eq45-EE-exchange-c",
    "Eq46-FF-exchange-c",
    "Eq47-EF-commutator-c",
    "Eq48-Serre-E",
    "Eq51-Serre-F",
    "psi-inversion",
    "phi-factorization",
    "serre-coefficients-from-psi",
]


def run_suite(
    ctx: VerifierContext,
    relation_filter: list[str] | None = None,
) -> VerificationReport:
    """Execute the catalogue (optionally filtered) and aggregate a report."""
    cat = build_catalogue(ctx)
    if relation_filter:
        pats = [f.lower() for f in relation_filter]
        cat = [c for c in cat if any(p in c[0].lower() for p in pats)]

    def run_one(entry):
        name, anchor, route, runner = entry
        t0 = time.perf_counter()
        try:
            out = runner(ctx)
        except Exception as exc:  # numeric failure -> failed check, not a crash
            out = {
                "n_samples": 0,
                "skipped": 0,
                "max_residual": float("inf"),
                "tolerance": 0.0,
                "passed": False,
                "notes": f"check raised {type(exc).__name__}: {exc}",
            }
        dt = time.perf_counter() - t0
        return RelationResult(
            name=name,
            anchor=anchor,
            route=route,
            n_samples=int(out["n_samples"]),
            skipped=int(out["skipped"]),
            max_residual=float(out["max_residual"]),
            tolerance=float(out["tolerance"]),
            passed=bool(out["passed"]),
            notes=out.get("notes", ""),
            seconds=dt,
            details=out.get("details", {}),
        )

    results = [run_one(entry) for entry in cat]
    return VerificationReport(
        algebra=f"{ctx.cartan.label}{ctx.cartan.rank}",
        p=repr(ctx.params.p),
        q=repr(ctx.params.q),
        c=str(ctx.params.c),
        order=ctx.order,
        fock_cap=ctx.fock_cap,
        seed=ctx.seed,
        results=results,
    )
