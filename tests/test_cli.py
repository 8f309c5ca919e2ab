import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from screenalg import VerifierContext, cli, make_cartan, make_params, run_suite
from screenalg.cli import (
    RunConfig,
    build_parser,
    config_from_args,
    context_from_config,
    main,
    read_config_file,
)
from screenalg.verifier import CATALOGUE, RunSettings


def run_cli(args):
    return main(args)


FAST = ["--order", "40", "--fock-degree", "2", "--fock-window", "2"]


def never_called(*args, **kwargs):
    raise AssertionError("the suite ran although the configuration is invalid")


class TestExitCodes:
    def test_bad_q_names_bound(self, capsys):
        rc = run_cli(["--q", "1.2", "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "|q|" in err

    def test_bad_flag(self):
        with pytest.raises(SystemExit) as ei:
            run_cli(["--no-such-flag"])
        assert ei.value.code == 2

    def test_bad_algebra(self, capsys):
        rc = run_cli(["--algebra", "Z9"])
        assert rc == 2
        assert "algebra" in capsys.readouterr().err

    def test_nonpositive_tol_rejected(self, capsys):
        assert run_cli(["--tol", "0", "--quiet"]) == 2
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    def test_nonpositive_tol_fock_rejected(self, capsys, value):
        assert run_cli(["--tol-fock", value, "--quiet"]) == 2
        assert "Fock tolerance" in capsys.readouterr().err

    def test_filter_miss_is_an_error(self, capsys):
        rc = run_cli(["--algebra", "A1", "--relations", "NoSuchRelation", "--quiet"])
        assert rc == 2

    def test_filter_part_of_a_name_part_is_a_miss(self, capsys):
        # Eq1 is a substring of Eq10..Eq19 but no whole leading part of them
        assert run_cli(["--algebra", "A1", "--relations", "Eq1", "--quiet"]) == 2
        assert "matched nothing" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "-2"])
    def test_negative_seed_rejected(self, tmp_path, capsys, seed):
        # numpy rejects a negative seed; the structure rows draw with seed + 1,
        # so -1 and -2 used to fail three and six rows with exit 1
        out = tmp_path / "r.json"
        assert run_cli(["--algebra", "A2", "--seed", seed, "--out", str(out)]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_report_directory_rejected_before_the_suite(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert run_cli(["--algebra", "A2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "no directory" in captured.err and captured.out == ""
        assert not out.parent.exists()

    def test_unwritable_report_is_an_error(self, tmp_path, capsys, monkeypatch):
        # the path is a directory: rejected before any check runs
        monkeypatch.setattr(cli, "run_suite", never_called)
        rc = run_cli(["--algebra", "A1", "--relations", "theta", "--quiet", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(tmp_path) == []

    def test_report_directory_without_write_access_rejected_before_the_suite(
        self, tmp_path, capsys, monkeypatch
    ):
        # root bypasses permission bits, so the refusal is os.access's
        out = tmp_path / "r.json"
        monkeypatch.setattr(cli, "run_suite", never_called)
        monkeypatch.setattr(
            cli.os, "access", lambda path, mode: not (path == str(tmp_path) and mode == os.W_OK)
        )
        assert run_cli(["--algebra", "A2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "not writable" in captured.err and captured.out == ""
        assert not out.exists()

    def test_filter_miss_writes_no_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli(["--algebra", "A2", "--relations", "Eq99", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "matched nothing" in captured.err and captured.out == ""
        assert not out.exists()

    def test_quick_pass(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run_cli(
            ["--algebra", "A1", "--relations", "Eq19,Eq10", "--quiet", "--out", str(out)]
            + FAST
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["all_pass"] is True
        assert {c["relation"] for c in data["checks"]} == {
            "Eq19-EE-exchange",
            "Eq10-SpSm-same-node",
        }


class TestRelationsFilter:
    def test_eq21_runs_only_commutator_checks(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run_cli(
            ["--algebra", "A1", "--relations", "Eq21", "--quiet", "--out", str(out)]
            + FAST
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert [c["relation"] for c in data["checks"]] == ["Eq21-EF-commutator"]
        assert data["checks"][0]["route"] == "both"

    def test_list_relations(self, capsys):
        assert run_cli(["--list-relations"]) == 0
        out = capsys.readouterr().out
        assert "Eq21-EF-commutator" in out and "Eq48-Serre-E" in out
        assert out.split() == [name for name, *_ in CATALOGUE] and len(CATALOGUE) == 48


class TestDeterminism:
    def test_reports_identical_modulo_timing(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            rc = run_cli(
                ["--algebra", "A1", "--relations", "Eq19,Eq48,theta", "--seed", "11",
                 "--quiet", "--out", str(path)] + FAST
            )
            assert rc == 0
            data = json.loads(path.read_text())
            for c in data["checks"]:
                c.pop("seconds")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]

    def test_seed_changes_random_samples(self, tmp_path):
        vals = []
        for seed in ("1", "2"):
            path = tmp_path / f"s{seed}.json"
            run_cli(
                ["--algebra", "A2", "--relations", "Eq48", "--seed", seed, "--quiet",
                 "--out", str(path)] + FAST
            )
            vals.append(json.loads(path.read_text())["checks"][0]["max_residual"])
        assert vals[0] != vals[1]


# the rows that draw random points, as a --relations filter
SAMPLED = ["theta", *(f"Eq{n}" for n in range(30, 39)), "Eq48", "Eq51", "psi", "phi", "serre"]


class TestSampling:
    def test_a_run_loads_no_numpy_random_secrets_or_hashlib(self, tmp_path):
        # points come from the standard library's random.Random, so a verify
        # process never imports numpy.random, nor the OpenSSL-backed hashlib
        # that numpy.random's import of secrets brings in
        code = (
            "import json, sys\n"
            "from screenalg.cli import main\n"
            f"rc = main(['--algebra', 'A2', '--quiet', '--out', {str(tmp_path / 'r.json')!r}])\n"
            "print(json.dumps([rc, [m for m in ('numpy.random', 'secrets', 'hashlib') if m in sys.modules]]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert json.loads(out.stdout) == [0, []]

    def test_a_seed_fixes_the_sampled_rows_and_they_pass_for_seeds_0_to_9(self):
        def rows(seed):
            ctx = VerifierContext(cartan=make_cartan("A", 2), params=make_params(0.09, 0.3, 1), seed=seed)
            results = run_suite(ctx, SAMPLED).results
            assert len(results) == 15
            return [{**dataclasses.asdict(r), "seconds": None} for r in results]

        assert rows(75018) == rows(75018)
        for seed in range(10):
            assert [r["name"] for r in rows(seed) if not r["passed"]] == [], seed


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sample configuration\n"
            "algebra = A1\n"
            "p = 0.09\n"
            "q = 0.3\n"
            "c = 1\n"
            "order = 40\n"
            "fock_degree = 2\n"
            "fock_window = 2\n"
            "relations = Eq19\n"
            "tol = 1e-8\n"
        )
        out = tmp_path / "r.json"
        rc = run_cli(["--config", str(cfg), "--quiet", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["algebra"] == "A1" and data["order"] == 40

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algebra = A2\norder = 40\n")
        out = tmp_path / "r.json"
        rc = run_cli(
            ["--config", str(cfg), "--algebra", "A1", "--relations", "theta",
             "--quiet", "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["algebra"] == "A1"

    @pytest.mark.parametrize("key, reason", [
        ("random_points", "at least one random point"),
        ("serre_samples", "at least one Serre sample"),
    ])
    def test_sampling_count_of_zero_rejected(self, tmp_path, capsys, key, reason):
        # with no samples the theta and structure checks used to pass with n=0,
        # and the Serre checks to fail on A2
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0\n")
        rc = run_cli(["--config", str(cfg), "--relations", "theta,Serre,psi", "--quiet"])
        assert rc == 2
        assert reason in capsys.readouterr().err

    def test_every_shared_setting_reaches_the_context_with_its_declared_type(self, tmp_path):
        # every shared key at a non-default value, through the file parser and
        # the by-name copy into the engine's context
        shared = {
            "order": (90, int), "fock_degree": (2, int), "fock_window": (4, int),
            "samples": (7, int), "radius": (0.4, float), "random_points": (20, int),
            "serre_samples": (3, int), "tol": (1e-7, float), "tol_fock": (2e-7, float),
            "seed": (12, int),
        }
        own = {"p": (0.05 + 0j, complex), "q": (0.5 + 0j, complex), "c": (Fraction(3, 2), Fraction)}
        defaults = RunConfig()
        assert set(shared) == {f.name for f in dataclasses.fields(RunSettings)}
        assert all(getattr(defaults, k) != v for k, (v, _) in {**shared, **own}.items())
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algebra = A1\np = 0.05\nq = 0.5\nc = 3/2\n"
                       + "".join(f"{k} = {v}\n" for k, (v, _) in shared.items()))
        run = config_from_args(build_parser().parse_args(["--config", str(cfg)]))
        for key, (value, kind) in own.items():
            assert getattr(run, key) == value and type(getattr(run, key)) is kind, key
        ctx = context_from_config(run)
        for key, (value, kind) in shared.items():
            assert getattr(ctx, key) == value and type(getattr(ctx, key)) is kind, key
        assert (ctx.params.p, ctx.params.q, ctx.params.c) == (0.05, 0.5, Fraction(3, 2))

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        # the thread pool is gone, so its key is unknown too
        for line in ("banana = 1\n", "workers = 2\n"):
            cfg.write_text(line)
            with pytest.raises(ValueError, match="unknown key"):
                read_config_file(str(cfg))


class TestThetaOrder:
    def test_unresolvable_base_rejected_with_needed_order(self, capsys):
        # at q = 0.9 theta(order=80) is off by ~5e-3, which read as a false
        # Eq19/Eq24 FAIL before this check existed
        rc = run_cli(["--algebra", "A1", "--p", "0.5", "--q", "0.9",
                      "--relations", "Eq19,Eq24", "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "theta base 0.9" in err and "order 80" in err
        assert "--order 241 " in err

    def test_suggested_order_accepted(self):
        ctx = context_from_config(RunConfig(algebra="A1", p=0.5, q=0.9, order=241))
        assert ctx.order == 241
        with pytest.raises(ValueError, match="--order 241 "):
            context_from_config(RunConfig(algebra="A1", p=0.5, q=0.9, order=240))

    def test_wide_e6_parameters_still_accepted(self):
        ctx = context_from_config(RunConfig(algebra="E6", p=0.3, q=0.7))
        assert ctx.order == 80 and ctx.cartan.rank == 6


class TestAtomicWrite:
    def test_report_is_complete_json(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run_cli(["--algebra", "A1", "--relations", "theta", "--quiet", "--out", str(out)])
        assert rc == 0
        json.loads(out.read_text())  # parse must succeed
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".report-")]


class TestPinnedReport:
    def test_a2_default_report_is_unchanged(self, tmp_path):
        # tests/data/a2_default_report.json is `verify --seed 75018` at the
        # defaults with the `seconds` fields removed; every other field must
        # match, and each max_residual to 1e-14 (rounding of the summation order)
        out = tmp_path / "a2.json"
        assert run_cli(["--algebra", "A2", "--seed", "75018", "--quiet", "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        want = json.loads((Path(__file__).parent / "data" / "a2_default_report.json").read_text())
        assert [c["relation"] for c in got["checks"]] == [c["relation"] for c in want["checks"]]
        for g, w in zip(got["checks"], want["checks"]):
            g.pop("seconds")
            assert g.pop("max_residual") == pytest.approx(w.pop("max_residual"), rel=0, abs=1e-14)
            assert g == w, g["relation"]
        assert got == want

    def test_a2_wide_report_is_unchanged(self, tmp_path):
        # tests/data/a2_wide_report.json is `verify --seed 75018 --p 0.3 --q 0.7`
        # with the `seconds` fields removed: away from the default point's
        # p = q^2, where a q <-> p/q swap shows, compared as above
        out = tmp_path / "a2.json"
        args = ["--algebra", "A2", "--p", "0.3", "--q", "0.7", "--seed", "75018"]
        assert run_cli(args + ["--quiet", "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        want = json.loads((Path(__file__).parent / "data" / "a2_wide_report.json").read_text())
        assert [c["relation"] for c in got["checks"]] == [c["relation"] for c in want["checks"]]
        for g, w in zip(got["checks"], want["checks"]):
            g.pop("seconds")
            assert g.pop("max_residual") == pytest.approx(w.pop("max_residual"), rel=0, abs=1e-14)
            assert g == w, g["relation"]
        assert got == want

    def test_the_check_names_each_differing_field(self, capsys):
        # regenerate.py --check prints row, field, old -> new per differing
        # field; here against a copy of the pinned report with three edits
        path = Path(__file__).parent / "data" / "regenerate.py"
        spec = importlib.util.spec_from_file_location("regenerate", path)
        regenerate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(regenerate)
        name = "a2_default_report.json"
        report = json.loads((regenerate.HERE / name).read_text())
        assert regenerate.check(name, report) == 0
        row = report["checks"][2]
        old = row["max_residual"]
        report["order"], row["max_residual"], row["details"]["x"] = 81, 0.5, 1
        assert regenerate.check(name, report) == 3
        assert capsys.readouterr().out.splitlines() == [
            f"{name}: report, order, 80 -> 81",
            f"{name}: Eq7-SpSp-exchange, details.x, None -> 1",
            f"{name}: Eq7-SpSp-exchange, max_residual, {old!r} -> 0.5",
        ]


class TestReadme:
    README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def listed(self, pattern):
        """The backquoted names in the README passage that ``pattern``'s group 1 spans."""
        return sorted(re.findall(r"`([^`]+)`", re.search(pattern, self.README).group(1)))

    def test_flags_list_is_the_parsers_long_options(self):
        # argparse's own --help is not listed
        options = [o for a in build_parser()._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"]
        assert self.listed(r"\nFlags: ([^.]*)\.") == sorted(options)

    def test_config_key_lists_are_the_config_fields(self):
        settings = self.listed(r"`verifier\.RunSettings`\s+\(([^)]*)\)")
        own = self.listed(r"own fields of\s+`RunConfig`\s+\(([^)]*)\)")
        assert settings == sorted(f.name for f in dataclasses.fields(RunSettings))
        assert sorted(settings + own) == sorted(f.name for f in dataclasses.fields(RunConfig))
