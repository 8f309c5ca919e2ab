"""Rewrite the pinned A2 reports that ``tests/test_cli.py`` compares against.

    PYTHONPATH=src python tests/data/regenerate.py

Runs ``verify --seed 75018`` on A2 at the defaults and at p = 0.3, q = 0.7,
and writes each report without its per-check ``seconds`` fields, which are
the only fields that differ between two runs of one tree.  Run it only for a
change that is meant to move a residual, and review the diff row by row.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from screenalg.cli import main

HERE = Path(__file__).resolve().parent
REPORTS = {
    "a2_default_report.json": ["--algebra", "A2", "--seed", "75018"],
    "a2_wide_report.json": ["--algebra", "A2", "--p", "0.3", "--q", "0.7", "--seed", "75018"],
}


def regenerate(name: str, args: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / name
        rc = main(args + ["--quiet", "--out", str(out)])
        if rc != 0:
            raise SystemExit(f"{name}: verify exited with {rc}; report not written")
        report = json.loads(out.read_text())
    for check in report["checks"]:
        del check["seconds"]
    (HERE / name).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    for name, args in REPORTS.items():
        regenerate(name, args)
