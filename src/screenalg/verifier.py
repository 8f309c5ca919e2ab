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

import cmath
import itertools
import math
import time
from dataclasses import dataclass, field
from functools import partial
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


def _check_theta_order(params: DeformationParams, order: int, tol: float):
    """Reject an order whose theta tail |base|^order is not far below tol.

    theta truncates each q-product at ``order`` factors; its relative error
    is a small multiple of |base|^order, so that must stay under 1e-3 * tol
    for every theta base the checks use (q, p/q and qtilde).
    """
    base = max(abs(params.q), abs(params.pq), abs(params.qtilde))
    bound = 1e-3 * tol
    if base**order > bound:
        need = max(order, math.ceil(math.log(bound) / math.log(base)) - 1)
        while base**need > bound:
            need += 1
        raise ValueError(
            f"theta base {base:.6g} at series order {order} leaves a truncation "
            f"tail {base**order:.2e} above 1e-3 * tol = {bound:.1e}; "
            f"use --order {need} or more"
        )


@dataclass
class VerifierContext:
    """Shared configuration for one verification run.

    ``exchange_ratio`` and ``structure_function`` take an array of points
    w/z and return a value per point and a boolean mask of the points to
    skip: a theta factor below ``theta_floor``, a contraction factor below
    ``pole_floor``, or a reversed contraction of exactly 0.  No value is
    cached per sample.  ``_results`` holds each catalogue row's result by
    (driver, args), so rows that make the same computation share one run.

    Building a context rejects an ``order`` whose theta truncation tail is
    not far below ``tol_series`` (see :func:`_check_theta_order`).
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
    _fock: FockSpace | None = None
    _results: dict = field(default_factory=dict)
    _circle: np.ndarray | None = None
    _below_floor: np.ndarray | bool = False

    def __post_init__(self):
        _check_theta_order(self.params, self.order, self.tol_series)

    @property
    def fock(self) -> FockSpace:
        if self._fock is None:
            self._fock = FockSpace(self.cartan, self.params)
        return self._fock

    def spec(self, kind: str, node: int) -> CurrentSpec:
        return current_spec(kind, node, self.cartan.rank, self.params)

    def contract(self, spec_x: CurrentSpec, spec_y: CurrentSpec) -> OpeResult:
        return contract(spec_x, spec_y, self.cartan, self.params, self.order)

    def theta_g(self, x, a: complex):
        """theta(x, a) at this run's order; marks the points below ``theta_floor``."""
        v = theta(x, a, self.order)
        self._below_floor = self._below_floor | (np.abs(v) < self.theta_floor)
        return v

    def structure_function(self, g_fn, x, a_ij: int, kw=()):
        """G = ``g_fn(self, 1, x, a_ij, **dict(kw))``, and where a theta factor is below the floor."""
        self._below_floor = np.zeros(np.shape(x), dtype=bool)
        g = g_fn(self, 1.0 + 0j, x, a_ij, **dict(kw))
        return g, self._below_floor

    def exchange_ratio(self, ope_xy: OpeResult, ope_yx: OpeResult, x):
        """C_XY(1, x) / C_YX(x, 1), and the mask of the points too close to a pole."""
        vxy, c1 = ope_xy.evaluate(1.0, x)
        vyx, c2 = ope_yx.evaluate(x, 1.0)
        return vxy / vyx, (np.minimum(c1, c2) < self.pole_floor) | (vyx == 0)

    def circle_samples(self) -> np.ndarray:
        if self._circle is None:
            ph = (np.arange(self.n_samples) + 0.5) / self.n_samples * 2 * np.pi - np.pi
            self._circle = self.radius * np.exp(1j * ph)
            self._circle.flags.writeable = False
        return self._circle


# ---------------------------------------------------------------------------
# structure functions


def psi(x, a_ij: int, base: complex, params: DeformationParams, order: int = 80):
    """Exchange factor (-1)^(A-1) x^-1 theta(x p^{A/2}) / theta(p^{A/2}/x), per element of x."""
    pa = params.p_half**a_ij
    return (
        (-1.0) ** (a_ij - 1)
        * x ** (-1.0)
        * theta(x * pa, base, order)
        / theta(pa / x, base, order)
    )


def phi(x, a_ij: int, base: complex, base_half: complex, params: DeformationParams, order: int = 80):
    """Factorizing component theta_base(x p^{A/2}) / theta_base(x base^{A/2}), per element of x."""
    return theta(x * params.p_half**a_ij, base, order) / theta(
        x * base_half**a_ij, base, order
    )


def serre_coefficient(z1, z2, w, psi_fn, floor: float = 1e-9):
    """f (or g) from the pairwise exchange factors, and the mask of the points to skip.

    ``psi_fn(x, a_ij)`` returns the factor and its own skip mask, as
    :meth:`VerifierContext.exchange_ratio` does.  Per element for arrays
    ``z1``, ``z2``, ``w``.  A point is skipped where a factor is skipped or
    the denominator is below ``floor`` times its terms; f there is not used.
    """
    pii, skip_ii = psi_fn(z2 / z1, 2)
    pij1, skip_1 = psi_fn(w / z1, -1)
    pij2, skip_2 = psi_fn(w / z2, -1)
    with np.errstate(divide="ignore", invalid="ignore"):  # f is not read where skip is set
        den = pij2 + pii * pij1
        low = abs(den) < floor * np.maximum(np.maximum(abs(pij2), abs(pii * pij1)), 1.0)
        f = (pii + 1) * (pij1 * pij2 + 1) / den
    return f, low | skip_ii | skip_1 | skip_2


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


def g_ff(ctx, z, w, a_ij):
    return g_ee(ctx, z, w, a_ij, base=ctx.params.pq)


def g_ff_qt(ctx, z, w, a_ij):
    """F-F exchange with theta base qtilde, as the general-c displays print it."""
    return g_ee(ctx, z, w, a_ij, base=ctx.params.qtilde)


def g_hh(ctx, z, w, a_ij):
    x = w / z
    pa = ctx.params.p_half**a_ij
    qt = ctx.params.qtilde
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
        return cmath.sqrt(base) ** int(f)
    return base ** (f / 2.0)


def g_hphm(ctx, z, w, a_ij):
    x = w / z
    p = ctx.params
    pm = _half_power(p.p, a_ij - p.c)  # p^{(A_ij - c)/2}
    pp = _half_power(p.p, a_ij + p.c)  # p^{(A_ij + c)/2}
    return (
        x ** (-2.0)
        * ctx.theta_g(x * pm, p.q)
        * ctx.theta_g(x * pp, p.qtilde)
        / (ctx.theta_g(pp / x, p.q) * ctx.theta_g(pm / x, p.qtilde))
    )


def g_he(ctx, z, w, a_ij, sign: int):
    """H(sign) against E: uniform factor -1 (see ERRATA), theta base q."""
    p = ctx.params
    pa = p.p_half**a_ij
    if sign > 0:
        sc = _half_power(p.q, -p.c)  # q^{-c/2}
    else:
        sc = _half_power(p.qtilde, p.c)  # qtilde^{c/2}
    x = w / z
    return (
        -((w * sc / z) ** (-1.0))
        * ctx.theta_g(x * pa * sc, p.q)
        / ctx.theta_g(pa / (sc * x), p.q)
    )


def g_hf(ctx, z, w, a_ij, sign: int):
    """H(sign) against F: uniform factor -1, theta base qtilde."""
    p = ctx.params
    pa = p.p_half**a_ij
    if sign > 0:
        sc = _half_power(p.q, p.c)  # q^{c/2}
    else:
        sc = _half_power(p.qtilde, -p.c)  # qtilde^{-c/2}
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

_VACUOUS = "no node pairs with the required Cartan entry in this algebra; vacuous"


def _relative(a, b):
    """|a - b| / max(|a|, |b|), per element."""
    return abs(a - b) / np.maximum(abs(a), abs(b))


def _outcome(residuals, n, skipped, tol, notes="", vacuous=False, compared=None):
    """The report fields of one check.

    A check passes iff it compared at least one sample (``compared``, by
    default the number of residuals) and its largest residual is within
    ``tol``, or it is ``vacuous``: the algebra has no node pair of the
    Cartan class the relation needs, so there is nothing to compare.
    """
    worst = np.max(residuals, initial=0.0)  # a NaN residual propagates and fails
    compared = len(residuals) if compared is None else compared
    return {
        "n_samples": n,
        "skipped": skipped,
        "max_residual": float(worst),
        "tolerance": tol,
        "passed": vacuous or (compared > 0 and worst <= tol),
        "notes": notes,
    }


def _by_contraction(ctx, kind_x, kind_y, nodes):
    """The node pairs grouped by the value of their contractions X Y and Y X.

    Returns ((ope_xy, ope_yx, a_ij), count) per group, with the contractions
    of the group's first node pair.  Node pairs share a group iff A_ij and
    both contractions' coeff, z_exp and kernel are equal, so a defect in one
    node pair's contraction puts it in a group of its own.
    """
    groups: dict = {}
    for i, j, a_ij in nodes:
        sx, sy = ctx.spec(kind_x, i), ctx.spec(kind_y, j)
        opes = ctx.contract(sx, sy), ctx.contract(sy, sx)
        key = (a_ij, *((o.coeff, o.z_exp, o.kernel) for o in opes))
        first, n = groups.get(key, ((*opes, a_ij), 0))
        groups[key] = (first, n + 1)
    return list(groups.values())


def _exchange_driver(ctx, pairs, g_fn, kw=(), a_filter=None):
    """Ratio check of X(z) Y(w) = G(z,w) Y(w) X(z) over node pairs and samples.

    ``pairs`` holds the (kind_x, kind_y) current pairs the relation states
    (H+H+ and H-H- for the HH exchange); each must compare a sample.  G is
    ``g_fn(ctx, z, w, a_ij, **dict(kw))``.  Node pairs whose contractions are
    equal in both directions share one evaluation of R, G and the skip mask
    over the sample array; samples are counted per node pair.
    """
    nodes = [t for t in ctx.cartan.node_pairs() if a_filter is None or t[2] in a_filter]
    if not nodes:
        return _outcome([], 0, 0, ctx.tol_series, _VACUOUS, vacuous=True)
    xs = ctx.circle_samples()
    residuals, skipped, compared = [], 0, [0] * len(pairs)
    for k, (kind_x, kind_y) in enumerate(pairs):
        for (ope_xy, ope_yx, a_ij), n in _by_contraction(ctx, kind_x, kind_y, nodes):
            r, skip = ctx.exchange_ratio(ope_xy, ope_yx, xs)
            g, low = ctx.structure_function(g_fn, xs, a_ij, kw)
            keep = ~(skip | low)
            residuals.append(_relative(r, g)[keep])
            skipped += n * int(np.count_nonzero(~keep))
            compared[k] += n * int(np.count_nonzero(keep))
    total = len(pairs) * len(nodes) * ctx.n_samples
    return _outcome(
        np.concatenate(residuals), total, skipped, ctx.tol_series, compared=min(compared)
    )


def _closed_form_driver(ctx, kind_x, kind_y, a_class):
    """Summed contraction x zero-mode monomial against the printed closed form."""
    nodes = [t for t in ctx.cartan.node_pairs() if t[2] == a_class]
    if not nodes:
        return _outcome([], 0, 0, ctx.tol_series, _VACUOUS, vacuous=True)
    xs = ctx.circle_samples()
    want = closed_form(kind_x, kind_y, a_class, ctx.params)(1.0 + 0j, xs)
    residuals, skipped, compared = [], 0, 0
    for (ope_xy, _, _), n in _by_contraction(ctx, kind_x, kind_y, nodes):
        v, closest = ope_xy.evaluate(1.0, xs)
        skip = closest < ctx.pole_floor
        residuals.append(_relative(v, want)[~skip])
        skipped += n * int(np.count_nonzero(skip))
        compared += n * int(np.count_nonzero(~skip))
    total = len(nodes) * ctx.n_samples
    return _outcome(np.concatenate(residuals), total, skipped, ctx.tol_series, compared=compared)


def _commutator_driver(ctx: VerifierContext):
    """Dual-route check of the E/F commutator for every node pair."""
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
                inner, outer, poles, tol=ctx.tol_series, window=(-window - 2, window)
            )
            expected = {1 / q: q / (p - 1), p / q: q / (p * (1 - p))}
            werr = max(
                abs(comb.weight_at(s) - wv) / abs(wv) for s, wv in expected.items()
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
                inner - delta, outer, [], tol=ctx.tol_series, window=(-window, window)
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
    return {
        "series": float(max(series_res, default=0.0)),
        "fock": float(max(fock_res, default=0.0)),
        "compared": compared,
        "vacuous": vacuous,
        "details": details,
    }


def _draw_triples(rng, n: int):
    """z1, z2, w at n points, each drawn as |z| in [0.7, 1.3] then arg z in [-2.8, 2.8]."""
    r, ph = rng.uniform([0.7, -2.8], [1.3, 2.8], size=(n, 3, 2)).T
    return r * np.exp(1j * ph)


def _serre_driver(ctx: VerifierContext, kind: str):
    """Cubic Serre relation through six fully-contracted triple products.

    Triples are drawn in batches of as many as a node pair still needs (at
    most ``n_samples``, which bounds the kernel's points x lattice
    temporaries), so the draws are those of a one-by-one rejection loop: a
    skipped triple is replaced, up to 10 attempts per wanted sample.
    """
    tol = 1e-7
    adjacent = [(i, j) for i, j, a in ctx.cartan.node_pairs() if a == -1]
    if not adjacent:
        return _outcome([], 0, 0, tol, "no adjacent node pair in this algebra; vacuous", vacuous=True)
    base = ctx.params.q if kind == "E" else ctx.params.qtilde
    rng = np.random.default_rng(ctx.seed)
    residuals, skipped, total = [], 0, 0

    def psi_fn(x, a_ij):
        return psi(x, a_ij, base, ctx.params, ctx.order), False

    sampled = adjacent[:2]  # the first two only, to stay cheap; named in the notes
    want, cap = ctx.serre_samples, 10 * ctx.serre_samples
    for i, j in sampled:
        done = attempts = 0
        while done < want and attempts < cap:
            n = min(want - done, cap - attempts, max(ctx.n_samples, 1))
            attempts += n
            total += n
            z1, z2, w = _draw_triples(rng, n)
            f12, skip12 = serre_coefficient(z1, z2, w, psi_fn)
            f21, skip21 = serre_coefficient(z2, z1, w, psi_fn)
            skip = skip12 | skip21
            # the six ordered pairs of the three currents, each contracted once
            cur, pair = ((i, z1), (i, z2), (j, w)), {}
            for a, b in itertools.permutations(range(3), 2):
                ope = ctx.contract(ctx.spec(kind, cur[a][0]), ctx.spec(kind, cur[b][0]))
                pair[a, b], closest = ope.evaluate(cur[a][1], cur[b][1])
                skip = skip | (closest < ctx.pole_floor)
            # each order of the three currents: its weight times the product of
            # the contractions of its pairs
            orders = ((0, 1, 2), (0, 2, 1), (2, 0, 1), (1, 0, 2), (1, 2, 0), (2, 1, 0))
            terms = [
                c * (pair[a, b] * pair[a, d] * pair[b, d])
                for c, (a, b, d) in zip((1, -f12, 1, 1, -f21, 1), orders)
            ]
            with np.errstate(invalid="ignore"):  # f is inf or nan only where skip is set
                res = abs(sum(terms)) / np.maximum.reduce([abs(t) for t in terms])
            residuals.append(res[~skip])
            skipped += int(skip.sum())
            done += int((~skip).sum())
    notes = (
        f"sampled node pairs {', '.join(map(str, sampled))}: "
        f"{len(sampled)} of {len(adjacent)} adjacent ordered pairs"
    )
    return _outcome(np.concatenate(residuals), total, skipped, tol, notes)


def _jacobi_sum(x, a):
    """sum_n (-1)^n a^{n(n-1)/2} x^n and sum_n |term|, summed out to 1e-18 of the latter.

    Per element for arrays ``x``, ``a``, until every point's terms are that
    small.  By the Jacobi triple product this equals the theta product, so it
    is an independent route to theta(x, a).
    """
    total, size, n = 1.0 + 0.0j, 1.0, 1
    while True:
        t1, t2 = ((-1) ** k * a ** (k * (k - 1) // 2) * x**k for k in (n, -n))
        total, size = total + (t1 + t2), size + (abs(t1) + abs(t2))
        if np.all(np.maximum(abs(t1), abs(t2)) < 1e-18 * size):
            return total, size
        n += 1


def _theta_driver(ctx):
    """Quasi-periodicity and the triple-product sum at n_random random (a, x)."""
    rng = np.random.default_rng(ctx.seed)
    # per point: |a|, arg a, |x|, arg x
    ra, pa, rx, px = rng.uniform(
        [0.05, -np.pi, 0.2, -np.pi], [0.5, np.pi, 1.8, np.pi], size=(ctx.n_random, 4)
    ).T
    a, x = ra * np.exp(1j * pa), rx * np.exp(1j * px)
    tx = theta(x, a, ctx.order)
    rhs = -tx / x
    quasi = abs(theta(a * x, a, ctx.order) - rhs) / np.maximum(abs(rhs), 1e-30)
    # the product against the triple-product sum, relative to the sum's term sizes
    total, size = _jacobi_sum(x, a)
    return _outcome(np.r_[quasi, abs(tx - total) / size], 2 * ctx.n_random, 0, 1e-9)


def _heisenberg_driver(ctx):
    residuals = []
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
                residuals.append(abs(b - direct) / scale)
                anti = table.bracket(j, i, -n, n)
                residuals.append(abs(b + anti) / scale)
                if a_ij == 0:
                    residuals.append(abs(b))
                if table.bracket(i, j, n, n + 1) != 0:
                    residuals.append(1.0)
    notes = (
        "consistency check: the engine's bracket (heisenberg.mode_bracket) against "
        "the printed formula, on the run algebra and on D4"
    )
    return _outcome(residuals, len(residuals), 0, 1e-12, notes)


def _structure_driver(ctx, which: str):
    rng = np.random.default_rng(ctx.seed + 1)
    p = ctx.params
    if which == "from-engine":  # serre coefficients rebuilt from the engine's exchange ratios
        pairs = [(i, j) for i, j, a in ctx.cartan.node_pairs() if a == -1]
        if not pairs:
            return _outcome([], 0, 0, 1e-9, "needs an adjacent node pair; vacuous", vacuous=True)
        i, j = pairs[0]

        def psi_engine_e(x, a_ij):
            sx, sy = ctx.spec("E", i), ctx.spec("E", i if a_ij == 2 else j)
            opes, k = (ctx.contract(sx, sy), ctx.contract(sy, sx)), max(ctx.n_samples, 1)
            # at most n_samples points per kernel call, as in the exchange rows
            parts = [ctx.exchange_ratio(*opes, x[s : s + k]) for s in range(0, len(x), k)]
            return tuple(map(np.concatenate, zip(*parts)))

        def psi_printed_e(x, a_ij):
            return psi(x, a_ij, p.q, p, ctx.order), False

        n = max(ctx.n_random // 4, 8)
        z1, z2, w = _draw_triples(rng, n)
        f_engine, skip = serre_coefficient(z1, z2, w, psi_engine_e)
        f_printed, skip_printed = serre_coefficient(z1, z2, w, psi_printed_e)
        skip = skip | skip_printed
        with np.errstate(divide="ignore", invalid="ignore"):  # f is finite where kept
            res = _relative(f_engine, f_printed)
        return _outcome(res[~skip], n, int(skip.sum()), 1e-9)
    # per point: A_ij, |x|, arg x; rng.choice draws 32 bits at a time, so the
    # draws cannot be batched without changing them
    a_all, r, ph = np.array([
        (rng.choice([2, -1, 0]), rng.uniform(0.3, 1.7), rng.uniform(-3.0, 3.0))
        for _ in range(ctx.n_random)
    ]).reshape(-1, 3).T
    xs, residuals, skipped = r * np.exp(1j * ph), [], 0
    for a_ij, (base, bh) in itertools.product((2, -1, 0), ((p.q, p.q_half), (p.qtilde, p.qtilde_half))):
        x, args = xs[a_all == a_ij], (a_ij, base, p, ctx.order)
        with np.errstate(divide="ignore", invalid="ignore"):  # masked by zero below
            if which == "psi-inversion":
                u, v = psi(x, *args), psi(1 / x, *args)
                res = abs(u * v - 1)
            else:
                u, v = phi(x, a_ij, base, bh, p, ctx.order), phi(1 / x, a_ij, base, bh, p, ctx.order)
                res = _relative(u / v, x ** float(a_ij) * psi(x, *args))
            # a theta quotient is 0 or not finite where one of its thetas is
            # exactly 0: those samples are skipped
            zero = (u * v == 0) | ~np.isfinite(u * v)
        residuals.append(res[~zero])
        skipped += int(zero.sum())
    return _outcome(np.concatenate(residuals), 2 * ctx.n_random, skipped, 1e-10)


def _sl2_generic_driver(ctx, g_fn, kw=(), self_inverse=False):
    """Function-level checks of the rank-1 general-c block at c = 2 and 3.

    G is ``g_fn(ctx, z, w, 2, **dict(kw))``; where the relation pairs a
    current with itself (``self_inverse``), G(x) G(1/x) = 1 is checked.
    Every sample also checks q qtilde = p^c.  ``g_fn`` is None for the
    commutator, whose delta supports are compared with the c = 1 ones.  No
    operator check exists away from c = 1.
    """
    rng = np.random.default_rng(ctx.seed + 2)
    xs = np.array([
        rng.uniform(0.4, 1.6) * np.exp(1j * rng.uniform(-2.9, 2.9)) for _ in range(12)
    ])
    base = ctx.params
    residuals, skipped = [], 0
    for c in (Fraction(2), Fraction(3)):
        pc = make_params(base.p, base.q, c)
        cctx = VerifierContext(
            cartan=make_cartan("A", 1), params=pc, order=ctx.order,
            tol_series=ctx.tol_series, theta_floor=ctx.theta_floor,
        )
        skip = np.zeros(len(xs), dtype=bool)
        if g_fn is not None:
            g, skip = cctx.structure_function(g_fn, xs, 2, kw)
            if self_inverse:
                ginv, skip_inv = cctx.structure_function(g_fn, 1 / xs, 2, kw)
                skip = skip | skip_inv
                residuals += list(np.abs(g * ginv - 1)[~skip])
        qq = abs(pc.q * pc.qtilde - pc.p ** float(c)) / abs(pc.p ** float(c))
        residuals += [qq] * int(np.count_nonzero(~skip))
        skipped += int(np.count_nonzero(skip))
    notes = "function-level only; no representation exists away from c=1"
    if g_fn is None:
        p1 = make_params(base.p, base.q, Fraction(1))
        s1, s2 = 1 / p1.q, p1.qtilde  # supports z = w q^c, w = z qtilde^c at c=1
        residuals += [abs(s1 - 1 / base.q), abs(s2 - base.p / base.q)]
        notes += "; delta supports checked to coincide with the c=1 commutator"
    notes += "; consistency only; no independent reference yet (ROADMAP item 2)"
    return _outcome(residuals, 2 * len(xs), skipped, 1e-9, notes)


def _commutator_runner(ctx):
    """The E/F commutator row: each route against its own tolerance."""
    out = _commutator_driver(ctx)
    row = _outcome(
        [out["series"], out["fock"]],
        out["compared"],
        out["vacuous"],
        max(ctx.tol_series, ctx.tol_fock),
        f"series residual {out['series']:.3e}, fock residual {out['fock']:.3e}",
    )
    row["passed"] = out["series"] <= ctx.tol_series and out["fock"] <= ctx.tol_fock
    row["details"] = out["details"]
    return row


def _needs_c1(ctx):
    return _outcome([], 0, 0, 0.0, "needs the level-1 representation (c = 1); skipped", vacuous=True)


# ---------------------------------------------------------------------------
# the catalogue

# One row per relation: (name, anchor quote, route, driver, args,
# requires_c1).  The row's check is driver(ctx, *args); args are hashable, so
# rows with equal (driver, args) are one computation, run once per context.
# A row that requires_c1 is reported as skipped when c != 1.
CATALOGUE = (
    ("theta-quasiperiodicity",
     "theta_a(ax) = -x^{-1} theta_a(x),  theta_a(x e^{2 pi i}) = theta_a(x)",
     "series", _theta_driver, (), False),
    ("heisenberg-bracket",
     "[a_i[n], a_j[m]] = (1/n)(1-q^n)(p^{A_ij n/2}-p^{-A_ij n/2})(1-(p/q)^n)/(1-p^n) delta_{n,-m}",
     "direct", _heisenberg_driver, (), False),
    ("Eq7-SpSp-exchange",
     "S+_i(z) S+_j(w) = (-1)^{A_ij-1} (w/z)^{A_ij-A_ij b-1} theta_q((w/z)p^{A_ij/2})/theta_q((z/w)p^{A_ij/2}) S+_j(w) S+_i(z)",
     "series", _exchange_driver, ((("S+", "S+"),), g_spsp), False),
    ("Eq8-SmSm-exchange",
     "S-_i(z) S-_j(w) = (-1)^{A_ij-1} (w/z)^{A_ij-A_ij/b-1} theta_{p/q}((w/z)p^{A_ij/2})/theta_{p/q}((z/w)p^{A_ij/2}) S-_j(w) S-_i(z)",
     "series", _exchange_driver, ((("S-", "S-"),), g_smsm), False),
    ("Eq10-SpSm-same-node",
     "S+_i(z) S-_i(w) = 1/((z-wq)(z-wp^{-1}q)) :S+_i(z) S-_i(w):",
     "series", _closed_form_driver, ("S+", "S-", 2), False),
    ("Eq11-SpSm-adjacent",
     "S+_i(z) S-_j(w) = (z-wp^{-1/2}q) :S+_i(z) S-_j(w):,  A_ij=-1",
     "series", _closed_form_driver, ("S+", "S-", -1), False),
    ("Eq12-SpSm-orthogonal",
     "S+_i(z) S-_j(w) = :S+_i(z) S-_j(w):,  A_ij=0",
     "series", _closed_form_driver, ("S+", "S-", 0), False),
    ("Eq13-SmSp-same-node",
     "S-_i(w) S+_i(z) = 1/((w-zq^{-1})(w-zpq^{-1})) :S+_i(z) S-_i(w):",
     "series", _closed_form_driver, ("S-", "S+", 2), False),
    ("Eq14-SmSp-adjacent",
     "S-_j(w) S+_i(z) = (w-zp^{1/2}q^{-1}) :S+_i(z) S-_j(w):,  A_ij=-1",
     "series", _closed_form_driver, ("S-", "S+", -1), False),
    ("Eq15-SmSp-orthogonal",
     "S-_j(w) S+_i(z) = :S+_i(z) S-_j(w):,  A_ij=0",
     "series", _closed_form_driver, ("S-", "S+", 0), False),
    ("PostEq20-EF-same-node",
     "E_i(z) F_i(w) = 1/((z(p/q)^{1/2})^2 (1-wq/z)(1-wp^{-1}q/z)) :E_i(z) F_i(w):",
     "series", _closed_form_driver, ("E", "F", 2), False),
    ("PostEq20-EF-adjacent",
     "E_i(z) F_j(w) = (z(p/q)^{1/2})(1-(w/z)p^{-1/2}q) :E_i(z) F_j(w):,  A_ij=-1 (header corrected from E E)",
     "series", _closed_form_driver, ("E", "F", -1), False),
    ("PostEq20-EF-orthogonal",
     "E_i(z) F_j(w) = :E_i(z) F_j(w):,  A_ij=0",
     "series", _closed_form_driver, ("E", "F", 0), False),
    ("PostEq20-FE-same-node",
     "F_i(w) E_i(z) = 1/((wq^{1/2})^2 (1-z/(wq))(1-z/(wp^{-1}q))) :E_i(z) F_i(w):",
     "series", _closed_form_driver, ("F", "E", 2), False),
    ("PostEq20-FE-adjacent",
     "F_j(w) E_i(z) = (wq^{1/2})(1-(z/w)p^{1/2}q^{-1}) :E_i(z) F_j(w):,  A_ij=-1",
     "series", _closed_form_driver, ("F", "E", -1), False),
    ("PostEq20-FE-orthogonal",
     "F_j(w) E_i(z) = :E_i(z) F_j(w):,  A_ij=0",
     "series", _closed_form_driver, ("F", "E", 0), False),
    ("Eq19-EE-exchange",
     "E_i(z) E_j(w) = (-1)^{A_ij-1} (w/z)^{-1} theta_q((w/z)p^{A_ij/2})/theta_q((z/w)p^{A_ij/2}) E_j(w) E_i(z)",
     "series", _exchange_driver, ((("E", "E"),), g_ee), False),
    ("Eq20-FF-exchange",
     "F_i(z) F_j(w) = (-1)^{A_ij-1} (w/z)^{-1} theta_{p/q}((w/z)p^{A_ij/2})/theta_{p/q}((z/w)p^{A_ij/2}) F_j(w) F_i(z)",
     "series", _exchange_driver, ((("F", "F"),), g_ff), False),
    ("Eq21-EF-commutator",
     "[E_i(z), F_j(w)] ~ delta_ij/((p-1)zw) [delta(z/(wq)) H+_i(zq^{-1/2}) - delta(w/(z(p/q))) H-_i(w(p/q)^{-1/2})]  (first delta corrected)",
     "both", _commutator_runner, (), True),
    ("Eq24-HH-exchange",
     "H+-_i(z) H+-_j(w) = (w/z)^{-2} theta_q((w/z)p^{A_ij/2}) theta_qt((w/z)p^{A_ij/2}) / (theta_q((z/w)p^{A_ij/2}) theta_qt((z/w)p^{A_ij/2})) H+-_j(w) H+-_i(z)",
     "series", _exchange_driver, ((("H+", "H+"), ("H-", "H-")), g_hh), True),
    ("Eq25-HpHm-exchange",
     "H+_i(z) H-_j(w) = (w/z)^{-2} theta_q((w/z)p^{(A_ij-c)/2}) theta_qt((w/z)p^{(A_ij+c)/2}) / (...inverse args...) H-_j(w) H+_i(z)  (garbled print; c=1 form of the general display)",
     "series", _exchange_driver, ((("H+", "H-"),), g_hphm), True),
    ("Eq26-HpE-exchange",
     "H+_i(z) E_j(w) = -(w/(zq^{1/2}))^{-1} theta_q((w/z)p^{A_ij/2}q^{-1/2})/theta_q((z/w)p^{A_ij/2}q^{1/2}) E_j(w) H+_i(z)  (sign corrected)",
     "series", _exchange_driver, ((("H+", "E"),), g_he, (("sign", 1),)), True),
    ("Eq27-HmE-exchange",
     "H-_i(z) E_j(w) = -(w(p/q)^{1/2}/z)^{-1} theta_q((w/z)p^{A_ij/2}(p/q)^{1/2})/theta_q((z/w)p^{A_ij/2}(p/q)^{-1/2}) E_j(w) H-_i(z)  (sign corrected)",
     "series", _exchange_driver, ((("H-", "E"),), g_he, (("sign", -1),)), True),
    ("Eq28-HpF-exchange",
     "H+_i(z) F_j(w) = -(wq^{1/2}/z)^{-1} theta_{p/q}((w/z)p^{A_ij/2}q^{1/2})/theta_{p/q}((z/w)p^{A_ij/2}q^{-1/2}) F_j(w) H+_i(z)  (sign corrected)",
     "series", _exchange_driver, ((("H+", "F"),), g_hf, (("sign", 1),)), True),
    ("Eq29-HmF-exchange",
     "H-_i(z) F_j(w) = -(w/(z(p/q)^{1/2}))^{-1} theta_{p/q}((w/z)p^{A_ij/2}(p/q)^{-1/2})/theta_{p/q}((z/w)p^{A_ij/2}(p/q)^{1/2}) F_j(w) H-_i(z)  (sign corrected)",
     "series", _exchange_driver, ((("H-", "F"),), g_hf, (("sign", -1),)), True),
    ("Eq30-sl2-HH-generic-c",
     "H+-(z) H+-(w) = (w/z)^{-2} theta_q((w/z)p) theta_qt((w/z)p)/(...) H+-(w) H+-(z)",
     "function", _sl2_generic_driver, (g_hh, (), True), False),
    ("Eq31-sl2-HpHm-generic-c",
     "H+(z) H-(w) = (w/z)^{-2} theta_q((w/z)p^{(2-c)/2}) theta_qt((w/z)p^{(2+c)/2})/(...) H-(w) H+(z)",
     "function", _sl2_generic_driver, (g_hphm,), False),
    ("Eq32-sl2-HpE-generic-c",
     "H+(z) E(w) = -(wq^{-c/2}/z)^{-1} theta_q((w/z)pq^{-c/2})/theta_q((z/w)pq^{c/2}) E(w) H+(z)",
     "function", _sl2_generic_driver, (g_he, (("sign", 1),)), False),
    ("Eq33-sl2-HmE-generic-c",
     "H-(z) E(w) = -(w qt^{c/2}/z)^{-1} theta_q((w/z)p qt^{c/2})/theta_q((z/w)p qt^{-c/2}) E(w) H-(z)",
     "function", _sl2_generic_driver, (g_he, (("sign", -1),)), False),
    ("Eq34-sl2-HpF-generic-c",
     "H+(z) F(w) = -(wq^{c/2}/z)^{-1} theta_qt((w/z)pq^{c/2})/theta_qt((z/w)pq^{-c/2}) F(w) H+(z)",
     "function", _sl2_generic_driver, (g_hf, (("sign", 1),)), False),
    ("Eq35-sl2-HmF-generic-c",
     "H-(z) F(w) = -(w qt^{-c/2}/z)^{-1} theta_qt((w/z)p qt^{-c/2})/theta_qt((z/w)p qt^{c/2}) F(w) H-(z)",
     "function", _sl2_generic_driver, (g_hf, (("sign", -1),)), False),
    ("Eq36-sl2-EE-generic-c",
     "E(z) E(w) = -(w/z)^{-1} theta_q((w/z)p)/theta_q((z/w)p) E(w) E(z)",
     "function", _sl2_generic_driver, (g_ee, (), True), False),
    ("Eq37-sl2-FF-generic-c",
     "F(z) F(w) = -(w/z)^{-1} theta_qt((w/z)p)/theta_qt((z/w)p) F(w) F(z)",
     "function", _sl2_generic_driver, (g_ff_qt, (), True), False),
    ("Eq38-sl2-EF-commutator-generic-c",
     "[E(z), F(w)] = 1/((p-1)zw) [delta(z/(wq^c)) H+(zq^{-c/2}) - delta(w/(z qt^c)) H-(w qt^{-c/2})],  q qt = p^c",
     "function", _sl2_generic_driver, (None,), False),
    ("Eq39-HH-exchange-c",
     "general g: H+-_i(z) H+-_j(w) exchange with theta_q theta_qt at p^{A_ij/2}",
     "series", _exchange_driver, ((("H+", "H+"), ("H-", "H-")), g_hh), True),
    ("Eq40-HpHm-exchange-c",
     "general g: H+_i(z) H-_j(w) exchange with p^{(A_ij-c)/2}, p^{(A_ij+c)/2}",
     "series", _exchange_driver, ((("H+", "H-"),), g_hphm), True),
    ("Eq41-HpE-exchange-c",
     "general g: H+_i(z) E_j(w) exchange, theta_q, shifts q^{+-c/2}  (sign corrected)",
     "series", _exchange_driver, ((("H+", "E"),), g_he, (("sign", 1),)), True),
    ("Eq42-HmE-exchange-c",
     "general g: H-_i(z) E_j(w) exchange, theta_q, shifts qt^{+-c/2}  (sign corrected)",
     "series", _exchange_driver, ((("H-", "E"),), g_he, (("sign", -1),)), True),
    ("Eq43-HpF-exchange-c",
     "general g: H+_i(z) F_j(w) exchange, theta_qt, shifts q^{+-c/2}  (sign corrected)",
     "series", _exchange_driver, ((("H+", "F"),), g_hf, (("sign", 1),)), True),
    ("Eq44-HmF-exchange-c",
     "general g: H-_i(z) F_j(w) exchange, theta_qt, shifts qt^{+-c/2}  (sign corrected)",
     "series", _exchange_driver, ((("H-", "F"),), g_hf, (("sign", -1),)), True),
    ("Eq45-EE-exchange-c",
     "general g: E_i(z) E_j(w) exchange (c independent)",
     "series", _exchange_driver, ((("E", "E"),), g_ee), False),
    ("Eq46-FF-exchange-c",
     "general g: F_i(z) F_j(w) exchange with theta_qt",
     "series", _exchange_driver, ((("F", "F"),), g_ff_qt), True),
    ("Eq47-EF-commutator-c",
     "general g: [E_i(z), F_j(w)] = delta_ij/((p-1)zw)[delta(z/(wq^c)) H+ - delta(w/(z qt^c)) H-]",
     "both", _commutator_runner, (), True),
    ("Eq48-Serre-E",
     "E_i(z1)E_i(z2)E_j(w) - f_ij(z1/w,z2/w) E_i(z1)E_j(w)E_i(z2) + E_j(w)E_i(z1)E_i(z2) + (z1 <-> z2) = 0,  A_ij=-1",
     "series", _serre_driver, ("E",), False),
    ("Eq51-Serre-F",
     "F_i(z1)F_i(z2)F_j(w) - g_ij(z1/w,z2/w) F_i(z1)F_j(w)F_i(z2) + F_j(w)F_i(z1)F_i(z2) + (z1 <-> z2) = 0,  A_ij=-1",
     "series", _serre_driver, ("F",), True),
    ("psi-inversion",
     "psi^{(q)}_ij(x) psi^{(q)}_ij(x^{-1}) = 1,  psi^{(qt)}_ij(x) psi^{(qt)}_ij(x^{-1}) = 1",
     "function", _structure_driver, ("psi-inversion",), False),
    ("phi-factorization",
     "phi^{(q)}_ij(x)/phi^{(q)}_ij(x^{-1}) = x^{A_ij} psi^{(q)}_ij(x)  (monomial corrected)",
     "function", _structure_driver, ("phi-factorization",), False),
    ("serre-coefficients-from-psi",
     "f_ij, g_ij rebuilt from engine exchange ratios match their psi formulas",
     "function", _structure_driver, ("from-engine",), False),
)

CATALOGUE_NAMES = [row[0] for row in CATALOGUE]


def _run_row(driver, args, alias, ctx):
    """The row's result, computed on the first request for (driver, args) in ``ctx``."""
    key = (driver, args)
    if key not in ctx._results:
        ctx._results[key] = driver(ctx, *args)
    out = dict(ctx._results[key])
    if alias:
        out["notes"] = "; ".join(filter(None, (out["notes"], alias)))
    return out


def build_catalogue(ctx: VerifierContext) -> list[tuple[str, str, str, object]]:
    """(name, anchor quote, route, runner) for every row of CATALOGUE, in order.

    A row whose (driver, args) equals an earlier row's shares that row's
    result and names it in its notes.
    """
    owners: dict = {}
    cat: list[tuple[str, str, str, object]] = []
    for name, anchor, route, driver, args, requires_c1 in CATALOGUE:
        owner = owners.setdefault((driver, args), name)
        if requires_c1 and ctx.params.c != 1:
            cat.append((name, anchor, "skipped", _needs_c1))
            continue
        alias = ""
        if owner != name:
            alias = f"same computation as {owner}" + (" at c = 1" if requires_c1 else "")
        cat.append((name, anchor, route, partial(_run_row, driver, args, alias)))
    return cat


def run_suite(
    ctx: VerifierContext,
    relation_filter: list[str] | None = None,
) -> VerificationReport:
    """Execute the catalogue and aggregate a report.

    A filter entry (any trailing ``-`` dropped) selects the names it equals or
    starts up to a dash, case-insensitive: ``Eq20`` is Eq20-FF-exchange only.
    """
    cat = build_catalogue(ctx)
    if relation_filter:
        pats = [f.strip().rstrip("-").lower() for f in relation_filter]
        cat = [c for c in cat if any(f"{c[0]}-".lower().startswith(p + "-") for p in pats)]

    def run_one(entry):
        name, anchor, route, runner = entry
        t0 = time.perf_counter()
        try:
            out = runner(ctx)
        except Exception as exc:  # numeric failure -> failed check, not a crash
            out = _outcome(
                [float("inf")], 0, 0, 0.0, f"check raised {type(exc).__name__}: {exc}"
            )
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
