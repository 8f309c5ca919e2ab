"""Batch runner: parse a configuration, execute the suite, emit reports.

Exit code 0 iff every executed check passed, 1 if one failed, and 2 for a
configuration error (found before any check runs) or a report that cannot
be written.  The JSON report is written atomically (temp file + rename).
All sampling is driven by the seed, so a rerun with the same configuration
reproduces the same report apart from the per-check timing fields.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass, fields
from fractions import Fraction

from .algebra import make_cartan, make_params
from .verifier import CATALOGUE_NAMES, VerifierContext, run_suite


@dataclass
class RunConfig:
    algebra: str = "A2"
    p: complex = 0.09
    q: complex = 0.3
    c: Fraction = Fraction(1)
    order: int = 80
    fock_degree: int = 3
    fock_window: int = 3
    samples: int = 16
    radius: float = 0.5
    random_points: int = 100
    serre_samples: int = 8
    tol: float = 1e-8
    tol_fock: float = 1e-8
    seed: int = 75018
    relations: str = ""
    out: str = ""

    def validate(self):
        m = re.fullmatch(r"([ADEade])\s*(\d+)", self.algebra.strip())
        if not m:
            raise ValueError(f"cannot parse algebra label {self.algebra!r} (e.g. A2, D4, E6)")
        if self.order < 4:
            raise ValueError("series order must be at least 4")
        if self.fock_degree < 0 or self.fock_window < 0:
            raise ValueError("Fock degree and window must be nonnegative")
        if self.samples < 1:
            raise ValueError("need at least one exchange sample")
        if self.random_points < 1:
            raise ValueError("need at least one random point (random_points); with none, "
                             "the theta and structure-function checks compare nothing")
        if self.serre_samples < 1:
            raise ValueError("need at least one Serre sample (serre_samples); with none, "
                             "the Serre checks compare nothing")
        if not 0 < self.radius:
            raise ValueError("sample radius must be positive")
        if not 0 < self.tol:
            raise ValueError("series tolerance must be positive")
        if not 0 < self.tol_fock:
            raise ValueError("Fock tolerance must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.out:
            out_dir = os.path.dirname(os.path.abspath(self.out))
            if not os.path.isdir(out_dir):
                raise ValueError(f"cannot write the report: no directory {out_dir}")
            if os.path.isdir(self.out):
                raise ValueError(f"cannot write the report: {self.out} is a directory")
            if not os.access(out_dir, os.W_OK):
                raise ValueError(f"cannot write the report: directory {out_dir} is not writable")
        return m.group(1).upper(), int(m.group(2))


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    if name in ("p", "q"):
        return complex(raw)
    if name == "c":
        return Fraction(raw)
    if name in ("order", "fock_degree", "fock_window", "samples", "seed",
                "random_points", "serre_samples"):
        return int(raw)
    if name in ("radius", "tol", "tol_fock"):
        return float(raw)
    return raw


def read_config_file(path: str) -> dict:
    """key = value lines; '#' starts a comment; keys match RunConfig fields."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _coerce(key, val)
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="verify",
        description="Check the elliptic screening-current algebra relations numerically.",
    )
    ap.add_argument("--config", help="key = value configuration file", default=None)
    ap.add_argument("--algebra", help="series label and rank, e.g. A2, D4, E6")
    ap.add_argument("--p", help="deformation parameter p (complex, |p| < 1)")
    ap.add_argument("--q", help="deformation parameter q (complex, |q| < 1, |p/q| < 1)")
    ap.add_argument("--c", help="central charge (rational, e.g. 1 or 3/2)")
    ap.add_argument("--order", type=int, help="series truncation order (default 80)")
    ap.add_argument("--fock-degree", type=int, help="Fock degree cap D (default 3)")
    ap.add_argument("--fock-window", type=int, help="mode window |m|,|n| <= W (default 3)")
    ap.add_argument("--samples", type=int, help="samples per exchange relation (default 16)")
    ap.add_argument("--radius", type=float, help="|w/z| for exchange samples (default 0.5)")
    ap.add_argument("--tol", type=float, help="series-route tolerance (default 1e-8)")
    ap.add_argument("--tol-fock", type=float, help="Fock-route tolerance (default 1e-8)")
    ap.add_argument("--seed", type=int, help="seed fixing all random sampling")
    ap.add_argument(
        "--relations",
        help="comma-separated names or leading dash-separated parts of names; run only "
        "those relations (e.g. Eq21, PostEq20, Eq20-FF)",
    )
    ap.add_argument("--out", help="write the JSON report to this path (atomically)")
    ap.add_argument("--list-relations", action="store_true", help="list catalogue names and exit")
    ap.add_argument("--quiet", action="store_true", help="suppress the per-check table")
    return ap


def config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, val in read_config_file(args.config).items():
            setattr(cfg, key, val)
    for name in _FIELD_TYPES:  # every field with a flag; the flag overrides the file
        v = getattr(args, name, None)
        if v is not None:
            setattr(cfg, name, _coerce(name, v) if isinstance(v, str) else v)
    return cfg


def context_from_config(cfg: RunConfig) -> VerifierContext:
    label, rank = cfg.validate()
    cartan = make_cartan(label, rank)
    params = make_params(cfg.p, cfg.q, cfg.c)
    return VerifierContext(
        cartan=cartan,
        params=params,
        order=cfg.order,
        n_samples=cfg.samples,
        radius=cfg.radius,
        n_random=cfg.random_points,
        serre_samples=cfg.serre_samples,
        fock_cap=cfg.fock_degree,
        fock_window=cfg.fock_window,
        tol_series=cfg.tol,
        tol_fock=cfg.tol_fock,
        seed=cfg.seed,
    )


def _write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".report-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_relations:
        print("\n".join(CATALOGUE_NAMES))
        return 0
    try:
        cfg = config_from_args(args)
        ctx = context_from_config(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    filt = [s for s in (cfg.relations or "").split(",") if s.strip()]
    report = run_suite(ctx, relation_filter=filt or None)
    if not report.results:
        print("error: relation filter matched nothing", file=sys.stderr)
        return 2
    if not args.quiet:
        width = max((len(r.name) for r in report.results), default=20)
        print(f"algebra {report.algebra}  p={report.p} q={report.q} c={report.c} "
              f"order={report.order} D={report.fock_cap} seed={report.seed}")
        for r in report.results:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"{r.name:<{width}}  {r.route:<8} n={r.n_samples:<4d} "
                f"skip={r.skipped:<3d} residual={r.max_residual:9.3e} "
                f"tol={r.tolerance:8.1e}  {status}"
                + (f"  [{r.notes}]" if r.notes else "")
            )
        n_pass = sum(r.passed for r in report.results)
        print(f"{n_pass}/{len(report.results)} checks passed")
    if cfg.out:
        try:
            _write_atomic(cfg.out, json.dumps(report.to_dict(), indent=2, sort_keys=True))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
