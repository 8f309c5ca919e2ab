"""Rewrite, or check, the pinned A2 reports that ``tests/test_cli.py`` compares against.

    PYTHONPATH=src python tests/data/regenerate.py          # rewrite both
    PYTHONPATH=src python tests/data/regenerate.py --check  # compare, write nothing

Runs ``verify --seed 75018`` on A2 at the defaults and at p = 0.3, q = 0.7,
and takes each report without its per-check ``seconds`` fields, which are
the only fields that differ between two runs of one tree.  ``--check``
prints every field that differs from the pinned file as ``row, field, old ->
new`` and exits 1 if any does.  Rewrite only for a change that is meant to
move a residual, and review the diff row by row.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from screenalg.cli import main

HERE = Path(__file__).resolve().parent
REPORTS = {
    "a2_default_report.json": ["--algebra", "A2", "--seed", "75018"],
    "a2_wide_report.json": ["--algebra", "A2", "--p", "0.3", "--q", "0.7", "--seed", "75018"],
}


def compute(name: str, args: list[str]) -> dict:
    """The report of ``verify`` with ``args``, without the ``seconds`` fields."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / name
        rc = main(args + ["--quiet", "--out", str(out)])
        if rc != 0:
            raise SystemExit(f"{name}: verify exited with {rc}; report not written")
        report = json.loads(out.read_text())
    for check in report["checks"]:
        del check["seconds"]
    return report


def differences(old, new, path=()):
    """(field, old, new) for each differing leaf, descending into dicts."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from differences(old.get(key), new.get(key), path + (key,))
    elif old != new:
        yield ".".join(path), old, new


def by_row(report: dict) -> dict:
    """The report's top-level fields as row ``report``, and each check by its relation."""
    head = {k: v for k, v in report.items() if k != "checks"}
    return {"report": head, **{c["relation"]: c for c in report["checks"]}}


def check(name: str, report: dict) -> int:
    """Print each field of ``report`` that differs from the pinned file; return their number."""
    old, new = by_row(json.loads((HERE / name).read_text())), by_row(report)
    n = 0
    for row in dict.fromkeys([*old, *new]):
        for field, a, b in differences(old.get(row, {}), new.get(row, {})):
            print(f"{name}: {row}, {field}, {a!r} -> {b!r}")
            n += 1
    return n


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare with the pinned files; write nothing")
    opts = ap.parse_args()
    failed = 0
    for name, args in REPORTS.items():
        report = compute(name, args)
        if opts.check:
            failed += check(name, report)
        else:
            (HERE / name).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if opts.check:
        print(f"{failed} differing field(s)")
    sys.exit(1 if failed else 0)
