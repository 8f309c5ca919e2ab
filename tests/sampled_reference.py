"""Scalar reference for the sampled rows, kept as a test oracle.

These are the per-point loops that ``screenalg.verifier`` evaluated before
its sampled rows became array passes: ``theta-quasiperiodicity``
(``_theta_driver``), ``psi-inversion``, ``phi-factorization`` and
``serre-coefficients-from-psi`` (``_structure_driver``), and the two Serre
rows (``_serre_driver``).  Each point is drawn, checked and skipped one at a
time with scalar ``theta`` calls, so the array drivers are compared against
them field by field: the same draws, counts, skips and notes, and residuals
equal up to rounding.
"""

from __future__ import annotations

import numpy as np

from screenalg.verifier import VerifierContext, _outcome, phi, psi, theta


class SkipSample(Exception):
    """Sample too close to a zero/pole; skipped and reported."""


def serre_coefficient(z1, z2, w, psi_fn, floor: float = 1e-9) -> complex:
    """f (or g) from the pairwise exchange factors psi_fn(x, a_ij)."""
    pii = psi_fn(z2 / z1, 2)
    pij1 = psi_fn(w / z1, -1)
    pij2 = psi_fn(w / z2, -1)
    den = pij2 + pii * pij1
    if abs(den) < floor * max(abs(pij2), abs(pii * pij1), 1.0):
        raise SkipSample("Serre coefficient denominator below floor")
    return (pii + 1) * (pij1 * pij2 + 1) / den


def _serre_driver(ctx: VerifierContext, kind: str):
    """Cubic Serre relation through six fully-contracted triple products."""
    tol = 1e-7
    adjacent = [(i, j) for i, j, a in ctx.cartan.node_pairs() if a == -1]
    if not adjacent:
        return _outcome([], 0, 0, tol, "no adjacent node pair in this algebra; vacuous", vacuous=True)
    base = ctx.params.q if kind == "E" else ctx.params.qtilde
    rng = np.random.default_rng(ctx.seed)
    residuals, skipped, total = [], 0, 0

    def contraction(i1, z1, i2, z2):
        v, closest = ctx.contract(ctx.spec(kind, i1), ctx.spec(kind, i2)).evaluate(z1, z2)
        if closest < ctx.pole_floor:
            raise SkipSample("triple product too close to a pole")
        return v

    def triple(pair, order):
        """Product of the pairwise contractions ``pair[a, b]`` of the currents in ``order``."""
        tot = 1.0 + 0.0j
        for a in range(3):
            for b in range(a + 1, 3):
                tot *= pair[order[a], order[b]]
        return tot

    def psi_fn(x, a_ij):
        return psi(x, a_ij, base, ctx.params, ctx.order)

    sampled = adjacent[:2]  # the first two only, to stay cheap; named in the notes
    for i, j in sampled:
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
                # the six ordered pairs of the three currents, each contracted once
                cur = ((i, z1), (i, z2), (j, w))
                pair = {(a, b): contraction(*cur[a], *cur[b])
                        for a in range(3) for b in range(3) if a != b}
                terms = [
                    triple(pair, (0, 1, 2)),
                    -f12 * triple(pair, (0, 2, 1)),
                    triple(pair, (2, 0, 1)),
                    triple(pair, (1, 0, 2)),
                    -f21 * triple(pair, (1, 2, 0)),
                    triple(pair, (2, 1, 0)),
                ]
            except SkipSample:
                skipped += 1
                continue
            scale = max(abs(t) for t in terms)
            residuals.append(abs(sum(terms)) / scale)
            done += 1
    notes = (
        f"sampled node pairs {', '.join(map(str, sampled))}: "
        f"{len(sampled)} of {len(adjacent)} adjacent ordered pairs"
    )
    return _outcome(residuals, total, skipped, tol, notes)


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


def _theta_driver(ctx):
    rng = np.random.default_rng(ctx.seed)
    residuals = []
    for _ in range(ctx.n_random):
        a = rng.uniform(0.05, 0.5) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        x = rng.uniform(0.2, 1.8) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        lhs = theta(a * x, a, ctx.order)
        rhs = -theta(x, a, ctx.order) / x
        residuals.append(abs(lhs - rhs) / max(abs(rhs), 1e-30))
        # the product against the triple-product sum, relative to the sum's term sizes
        total, size = _jacobi_sum(x, a)
        residuals.append(abs(theta(x, a, ctx.order) - total) / size)
    return _outcome(residuals, 2 * ctx.n_random, 0, 1e-9)


def _structure_driver(ctx, which: str):
    rng = np.random.default_rng(ctx.seed + 1)
    residuals, skipped, total = [], 0, 0
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
                        residuals.append(abs(v - 1))
                    else:
                        lhs = phi(x, a_ij, base, bh, ctx.params, ctx.order) / phi(
                            1 / x, a_ij, base, bh, ctx.params, ctx.order
                        )
                        rhs = x ** float(a_ij) * psi(x, a_ij, base, ctx.params, ctx.order)
                        residuals.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
                except (SkipSample, ZeroDivisionError):
                    skipped += 1
    else:  # serre coefficients rebuilt from the engine's exchange ratios
        pairs = [(i, j) for i, j, a in ctx.cartan.node_pairs() if a == -1]
        if not pairs:
            return _outcome([], 0, 0, tol, "needs an adjacent node pair; vacuous", vacuous=True)
        i, j = pairs[0]

        def psi_engine_e(x, a_ij):
            sx = ctx.spec("E", i)
            sy = ctx.spec("E", i if a_ij == 2 else j)
            r, skip = ctx.exchange_ratio(ctx.contract(sx, sy), ctx.contract(sy, sx), x)
            if skip:
                raise SkipSample("contraction product too close to a pole")
            return r

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
            residuals.append(abs(f_engine - f_printed) / max(abs(f_engine), abs(f_printed)))
    return _outcome(residuals, total, skipped, tol)
