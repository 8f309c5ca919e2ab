import json
import os
from pathlib import Path

import pytest

from screenalg.cli import RunConfig, context_from_config, main, read_config_file
from screenalg.verifier import CATALOGUE


def run_cli(args):
    return main(args)


FAST = ["--order", "40", "--fock-degree", "2", "--fock-window", "2"]


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

    def test_filter_miss_is_an_error(self, capsys):
        rc = run_cli(["--algebra", "A1", "--relations", "NoSuchRelation", "--quiet"])
        assert rc == 2

    def test_filter_part_of_a_name_part_is_a_miss(self, capsys):
        # Eq1 is a substring of Eq10..Eq19 but no whole leading part of them
        assert run_cli(["--algebra", "A1", "--relations", "Eq1", "--quiet"]) == 2
        assert "matched nothing" in capsys.readouterr().err

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
