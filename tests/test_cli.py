import json
import math

import pytest

from suitaverify import checks
from suitaverify.cli import run
from suitaverify.numerics import ConvergenceError


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


class TestKernelCommand:
    def test_g2(self, capsys):
        assert run(["kernel", "--g2"]) == 0
        payload = _json_out(capsys)
        assert payload["value"] == pytest.approx(2.0 / math.pi**2)

    def test_annulus_sqrt_point(self, capsys):
        assert run(["kernel", "--annulus", "0.2", "--w", "sqrt"]) == 0
        payload = _json_out(capsys)
        assert payload["method"] == "annulus-series"
        assert payload["value"] > 0
        assert payload["error_bound"] < 1e-10

    def test_reinhardt_domain(self, capsys):
        dom = '{"variant": "ellipsoid", "p": [0.5, 1.0]}'
        assert run(["kernel", "--domain", dom, "--w", "[0.3, 0]"]) == 0
        payload = _json_out(capsys)
        expected = (1 + 1) / (4 * math.pi**2 * 0.3) * ((0.7) ** -3 - (1.3) ** -3)
        assert payload["value"] == pytest.approx(expected, rel=1e-8)

    def test_missing_selector_is_validation_error(self, capsys):
        assert run(["kernel"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_radius(self, capsys):
        assert run(["kernel", "--annulus", "1.5"]) == 1

    def test_boundary_point_is_validation_error(self, capsys):
        dom = '{"variant": "ellipsoid", "p": [1.0]}'
        assert run(["kernel", "--domain", dom, "--w", "[1.0]"]) == 1


class TestGreenCommand:
    def test_capacity_and_bound(self, capsys):
        assert run(["green", "--r", "0.2", "--w", "sqrt"]) == 0
        payload = _json_out(capsys)
        assert payload["capacity"] <= payload["covering_bound"]
        assert payload["capacity"] == pytest.approx(payload["covering_bound"], rel=1e-3)

    def test_levels(self, capsys):
        assert run(["green", "--r", "0.2", "--levels=-1,-2"]) == 0
        payload = _json_out(capsys)
        assert len(payload["levels"]) == 2
        for row in payload["levels"]:
            assert row["flux"] == pytest.approx(2 * math.pi, abs=1e-6)
            assert row["iso_ratio"] >= 1.0 - 1e-9
            assert 0.0 < row["area_err"] < 1e-6 * row["area"]

    def test_near_critical_level_is_numerical_failure(self, capsys):
        # the saddle of the r=0.2 annulus sits near t = -0.0087
        assert run(["green", "--r", "0.2", "--levels=-0.0087"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_pole_outside_is_validation_error(self, capsys):
        assert run(["green", "--r", "0.2", "--w", "0.1"]) == 1

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "green.json"
        assert run(["green", "--r", "0.2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["r"] == 0.2


class TestIndicatrixCommand:
    def test_ell1_closed_vs_quadrature(self, capsys):
        assert run(["indicatrix", "--family", "ell1", "--m", "1", "--n", "3", "--b", "0.4"]) == 0
        payload = _json_out(capsys)
        assert payload["volume_closed"] == pytest.approx(payload["volume_quadrature"], rel=1e-8)

    def test_g2(self, capsys):
        assert run(["indicatrix", "--family", "g2"]) == 0
        payload = _json_out(capsys)
        assert payload["volume"] == pytest.approx(2 * math.pi**2 / 3, rel=1e-9)

    def test_p_family_numeric(self, capsys):
        assert run(["indicatrix", "--family", "p", "--m", "1", "--b", "0.4"]) == 0
        payload = _json_out(capsys)
        assert payload["volume_numeric"] == pytest.approx(
            math.pi**2 / 2 * (1 - 0.16) ** 3, rel=1e-4
        )

    def test_profile_csv(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code = run(
            ["indicatrix", "--family", "ell1", "--b", "0.3", "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        # b = 0.3: gamma(0) = 1 - b, and 512 radii from 0 to r_max
        assert lines[:2] == ["r,gamma", "0,0.7"]
        assert len(lines) == 513

    def test_invalid_b(self, capsys):
        assert run(["indicatrix", "--family", "ell1", "--b", "1.5"]) == 1

    def test_p_family_csv_is_refused_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run(["indicatrix", "--family", "p", "--out", str(out), "--format", "csv"]) == 1
        assert not out.exists()

    def test_csv_without_out_is_refused(self, capsys):
        assert run(["indicatrix", "--family", "g2", "--format", "csv"]) == 1
        assert capsys.readouterr().out == ""


class TestSuitaFCommand:
    def test_g2_value(self, capsys):
        assert run(["suita-f", "--g2"]) == 0
        out = capsys.readouterr().out
        assert "F = 1.1547005" in out

    def test_annulus(self, capsys):
        assert run(["suita-f", "--annulus", "0.2", "--w", "sqrt"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") :])
        assert payload["F"] >= 1.0
        assert payload["n"] == 1

    def test_ellipsoid_axis(self, capsys):
        dom = '{"variant": "ellipsoid", "p": [0.5, 1.0]}'
        assert run(["suita-f", "--domain", dom, "--b", "0.3"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") :])
        assert 1.0 < payload["F"] < 4.0
        assert payload["classification"] == "convex"

    def test_center_default(self, capsys):
        dom = '{"variant": "polydisk", "n": 2}'
        assert run(["suita-f", "--domain", dom]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") :])
        assert payload["F"] == 1.0
        assert payload["classification"] == "symmetric"


class TestScanCommand:
    def test_ell1_json(self, capsys):
        assert run(["scan", "--family", "ell1", "--n", "2..3", "--grid", "12"]) == 0
        payload = _json_out(capsys)
        assert payload["verdicts"]["all_at_least_one"] is True
        assert len(payload["samples"]) == 24

    def test_csv_artifacts(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = run(
            ["scan", "--family", "ell1", "--n", "2..2", "--grid", "8", "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "curve,b,F"
        assert lines[1].startswith("ell1 m=0.5 n=2,0.001,1.0000")
        assert len(lines) == 9
        assert json.loads((tmp_path / "scan.csv.json").read_text())["kind"] == "figure-scan"

    def test_grid_too_small(self, capsys):
        assert run(["scan", "--family", "ell1", "--grid", "1"]) == 1

    def test_csv_without_out_is_refused(self, capsys):
        assert run(["scan", "--family", "ell1", "--n", "2..2", "--grid", "8", "--format", "csv"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("option", [["--family", "p", "--m-list", ""], ["--family", "ell1", "--n", "5..2"]])
    def test_empty_curve_list_is_validation_error(self, option, capsys):
        assert run(["scan", *option, "--grid", "2"]) == 1
        assert capsys.readouterr().err.endswith("_list must be non-empty\n")


class TestExperimentCommand:
    def test_monotonicity_passes(self, tmp_path, capsys):
        out = tmp_path / "exp.json"
        code = run(
            [
                "experiment",
                "--r",
                "0.2",
                "--t-grid=-4,-3,-2",
                "--samples",
                str(2**16),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verdicts"]["normalized_non_decreasing_3sigma"] is True

    def test_default_grid_is_convex_evidence(self, tmp_path):
        # the default grid is not uniform (steps of 1, then 0.5): slopes of
        # log lambda rise all along it, though its last raw second difference is negative
        out = tmp_path / "exp.json"
        assert run(["experiment", "--r", "0.2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["verdicts"]["log_volume_convexity_evidence"] is True
        assert min(payload["metadata"]["log_volume_slope_differences"]) > 0

    def test_deterministic_across_runs(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(
                ["experiment", "--r", "0.2", "--t-grid=-3,-2", "--samples", str(2**14), "--out", str(out)]
            )
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_seed_changes_only_the_cross_check(self, tmp_path):
        # traced volumes do not depend on the stream; the cross-check count does
        outs = []
        for seed in ("0", "1"):
            out = tmp_path / f"s{seed}.json"
            run(
                [
                    "experiment",
                    "--r",
                    "0.2",
                    "--t-grid=-3,-2",
                    "--samples",
                    str(2**14),
                    "--seed",
                    seed,
                    "--out",
                    str(out),
                ]
            )
            outs.append(json.loads(out.read_text()))
        assert [row["route"] for row in outs[0]["samples"]] == ["trace", "trace"]
        assert outs[0]["samples"] == outs[1]["samples"]
        assert outs[0]["metadata"]["hit_count"] != outs[1]["metadata"]["hit_count"]

    @pytest.mark.parametrize("grid", ["--t-grid=", "--t-grid=-2,-2,-1"], ids=["empty", "repeated"])
    def test_empty_or_repeated_t_grid_is_validation_error(self, grid, capsys):
        assert run(["experiment", "--r", "0.2", grid, "--samples", "64"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: t grid")


# a cheap valid command per subcommand, then each option it used to accept and ignore
_IGNORED_OPTIONS = (
    (["kernel", "--g2"], ["--tol", "1e-9"], ["--seed", "7"], ["--samples", "64"], ["--format", "json"]),
    (["green", "--r", "0.2"], ["--tol", "1e-9"], ["--seed", "7"], ["--samples", "64"], ["--format", "json"]),
    (["indicatrix", "--family", "g2"], ["--tol", "1e-9"], ["--seed", "7"], ["--samples", "64"], ["--numeric"]),
    (["suita-f", "--g2"], ["--tol", "1e-9"], ["--seed", "7"], ["--samples", "64"], ["--format", "json"]),
    (
        ["scan", "--family", "ell1", "--n", "2..2", "--grid", "2"],
        ["--tol", "1e-9"],
        ["--seed", "7"],
        ["--samples", "64"],
    ),
    (
        ["experiment", "--r", "0.2", "--t-grid=-2", "--samples", "64"],
        ["--tol", "1e-9"],
        ["--format", "json"],
        ["--kind", "monotonicity"],
    ),
)


class TestParser:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "command,option",
        [
            pytest.param(command, option, id=f"{command[0]}{option[0]}")
            for command, *dropped in _IGNORED_OPTIONS
            for option in dropped
        ],
    )
    def test_ignored_options_are_refused(self, command, option, capsys):
        assert run([*command, *option]) == 1

    def test_bad_flag_value(self, capsys):
        assert run(["green", "--r", "zebra"]) == 1

    def test_bad_base_point(self, capsys):
        assert run(["kernel", "--annulus", "0.2", "--w", "zebra"]) == 1


def _stub(name, verdicts, sampling=False):
    return checks.Check(name, lambda: (verdicts, f"detail of {name}"), sampling)


def _raises():
    raise ConvergenceError("budget exhausted")


class TestVerifyAllCommand:
    def test_rows_and_all_passed_footer(self, monkeypatch, capsys):
        stubs = (_stub("first", {"a": True}), _stub("second check", {"a": True, "b": True}))
        monkeypatch.setattr(checks, "CHECKS", stubs)
        assert run(["verify-all"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "first         PASS  detail of first",
            "second check  PASS  detail of second check",
            "all checks passed",
        ]

    def test_one_false_verdict_fails_the_row(self, monkeypatch, capsys):
        stubs = (_stub("ok", {"a": True}), _stub("bad", {"a": True, "b": False}))
        monkeypatch.setattr(checks, "CHECKS", stubs)
        assert run(["verify-all"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "bad  FAIL  detail of bad"
        assert lines[-1] == "1 of 2 checks failed"

    def test_quick_skips_exactly_the_sampling_checks(self, monkeypatch, capsys):
        stubs = (
            _stub("cheap", {"a": True}),
            _stub("sampled", {"a": False}, sampling=True),
            _stub("also cheap", {"a": True}),
        )
        monkeypatch.setattr(checks, "CHECKS", stubs)
        assert run(["verify-all", "--quick"]) == 0
        names = [line.split("  ")[0].strip() for line in capsys.readouterr().out.splitlines()[:-1]]
        assert names == ["cheap", "also cheap"]
        assert run(["verify-all"]) == 2

    def test_numerical_error_is_a_failed_row(self, monkeypatch, capsys):
        stubs = (checks.Check("raises", _raises), _stub("ok", {"a": True}))
        monkeypatch.setattr(checks, "CHECKS", stubs)
        assert run(["verify-all"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "raises  FAIL  numerical failure: budget exhausted"
        assert lines[-1] == "1 of 2 checks failed"

    def test_out_is_refused_and_writes_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setattr(checks, "CHECKS", (_stub("ok", {"a": True}),))
        path = tmp_path / "table.json"
        assert run(["verify-all", "--out", str(path)]) == 1
        assert not path.exists()

    @pytest.mark.parametrize(
        "option",
        [["--tol", "1e-9"], ["--seed", "7"], ["--samples", "64"], ["--format", "csv"]],
        ids=["tol", "seed", "samples", "format"],
    )
    def test_other_shared_options_are_refused(self, monkeypatch, option):
        monkeypatch.setattr(checks, "CHECKS", (_stub("ok", {"a": True}),))
        assert run(["verify-all", *option]) == 1

    def test_registry_is_the_acceptance_table(self):
        assert len(checks.CHECKS) == 12
        assert [c.name for c in checks.CHECKS if c.sampling] == [
            "normalized sublevel monotonicity and limit",
        ]
