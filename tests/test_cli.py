import json
import math
import shlex
from pathlib import Path

import pytest

from suitaverify import checks, cli, suita
from suitaverify.cli import run
from suitaverify.domains import Ellipsoid
from suitaverify.numerics import ConvergenceError


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


class TestKernelCommand:
    def test_g2(self, capsys):
        for selector in (["--g2"], ["--domain", '{"variant": "symmetrized_bidisk"}']):
            assert run(["kernel", *selector]) == 0
            payload = _json_out(capsys)
            assert payload["value"] == pytest.approx(2.0 / math.pi**2)
            assert payload["terms"] is None

    def test_annulus_sqrt_point(self, capsys):
        assert run(["kernel", "--annulus", "0.2", "--w", "sqrt"]) == 0
        payload = _json_out(capsys)
        assert payload["method"] == "annulus-series"
        assert payload["value"] > 0
        assert payload["error_bound"] < 1e-10
        assert payload["terms"] == 7  # strip images at r = 0.2
        # sqrt(r) is the default point, and an annulus spec selects the same domain
        for selector in (["--annulus", "0.2"], ["--domain", '{"variant": "annulus", "r": 0.2}']):
            assert run(["kernel", *selector]) == 0
            assert _json_out(capsys) == payload

    @pytest.mark.parametrize("w", ["0.9999999", "0.20000002"], ids=["outer", "inner"])
    def test_annulus_next_to_the_circles(self, capsys, w):
        assert run(["kernel", "--annulus", "0.2", "--w", w]) == 0
        payload = _json_out(capsys)
        assert payload["error_bound"] <= 1e-16 * payload["value"]
        assert payload["terms"] == 7  # the image count depends on r alone

    def test_annulus_next_to_r_equal_one(self, capsys):
        assert run(["kernel", "--annulus", "0.999999", "--w", "sqrt"]) == 0
        payload = _json_out(capsys)
        assert payload["error_bound"] <= 1e-16 * payload["value"]
        assert payload["terms"] == 1

    def test_reinhardt_domain(self, capsys):
        dom = '{"variant": "ellipsoid", "p": [0.5, 1.0]}'
        assert run(["kernel", "--domain", dom, "--w", "[0.3, 0]"]) == 0
        payload = _json_out(capsys)
        expected = (1 + 1) / (4 * math.pi**2 * 0.3) * ((0.7) ** -3 - (1.3) ** -3)
        assert payload["value"] == pytest.approx(expected, rel=1e-8)
        # one multi-index per degree on an axis point, degrees 0 .. 8 at least;
        # the terms fall by about 0.3^2 per degree, so 1e-17 is reached before degree 40
        assert 9 <= payload["terms"] <= 40

    def test_g2_off_the_origin_is_validation_error(self, capsys):
        assert run(["kernel", "--g2", "--w", "[0.1, 0]"]) == 1
        assert capsys.readouterr().err == "error: the symmetrized bidisk kernel is known at the origin only\n"

    def test_missing_selector_is_validation_error(self, capsys):
        assert run(["kernel"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_radius(self, capsys):
        assert run(["kernel", "--annulus", "1.5"]) == 1

    def test_boundary_point_is_validation_error(self, capsys):
        dom = '{"variant": "ellipsoid", "p": [1.0]}'
        assert run(["kernel", "--domain", dom, "--w", "[1.0]"]) == 1

    @pytest.mark.parametrize("dom", ["[1, 2]", '{"variant": "ellipsoid"}'], ids=["list", "no-p"])
    def test_malformed_domain_is_validation_error(self, dom, capsys):
        assert run(["kernel", "--domain", dom]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestGreenCommand:
    def test_capacity_and_bound(self, capsys):
        assert run(["green", "--r", "0.2", "--w", "sqrt"]) == 0
        payload = _json_out(capsys)
        assert payload["capacity"] <= payload["covering_bound"]
        assert payload["capacity"] == pytest.approx(payload["covering_bound"], rel=1e-3)

    def test_next_to_r_equal_one(self, capsys):
        assert run(["green", "--r", "0.9999"]) == 0
        payload = _json_out(capsys)
        assert payload["modes"] == 1
        assert payload["capacity"] <= payload["covering_bound"]

    def test_levels(self, capsys):
        assert run(["green", "--r", "0.2", "--levels=-1,-2"]) == 0
        payload = _json_out(capsys)
        assert len(payload["levels"]) == 2
        for row in payload["levels"]:
            assert row["flux"] == pytest.approx(2 * math.pi, abs=1e-6)
            assert row["iso_ratio"] >= 1.0 - 1e-9
            assert 0.0 < row["area_err"] < 1e-6 * row["area"]
            # both levels settle on the first grid of the default 2048-node ceiling
            assert row["nodes"] == 256

    def test_near_critical_level_is_numerical_failure(self, capsys):
        # the saddle of the r=0.2 annulus sits near t = -0.0087
        assert run(["green", "--r", "0.2", "--levels=-0.0087"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_pole_outside_is_validation_error(self, capsys):
        assert run(["green", "--r", "0.2", "--w", "0.1"]) == 1

    def test_pole_below_rounding_of_one_is_validation_error(self, capsys):
        # |w| = 1e-20: 1 - |w| rounds to 1, so the strip cannot place the pole
        assert run(["green", "--r", "1e-40"]) == 1
        assert capsys.readouterr().err == "error: pole modulus 1e-20 is below 1.11e-16: 1 - |w| keeps none of its digits\n"

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "green.json"
        assert run(["green", "--r", "0.2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["r"] == 0.2


class TestIndicatrixCommand:
    def test_ell1_closed_vs_quadrature(self, capsys):
        assert run(["indicatrix", "--family", "ell1", "--m", "1", "--n", "3", "--b", "0.4"]) == 0
        payload = _json_out(capsys)
        assert payload["volume_closed"] == pytest.approx(payload["volume_quadrature"], rel=1e-8)

    def test_ell1_next_to_the_boundary(self, capsys):
        assert run(["indicatrix", "--family", "ell1", "--m", "8", "--b", "0.999"]) == 0
        payload = _json_out(capsys)
        assert payload["volume_quadrature"] == pytest.approx(payload["volume_closed"], rel=1e-13, abs=0.0)

    def test_g2(self, capsys):
        assert run(["indicatrix", "--family", "g2"]) == 0
        payload = _json_out(capsys)
        assert payload["volume"] == pytest.approx(2 * math.pi**2 / 3, rel=1e-9)

    def test_p_family_numeric(self, capsys):
        assert run(["indicatrix", "--family", "p", "--m", "1", "--b", "0.4"]) == 0
        payload = _json_out(capsys)
        ball = math.pi**2 / 2 * (1 - 0.16) ** 3
        assert payload["volume_numeric"] == pytest.approx(ball, rel=1e-4)
        assert payload["volume_quadrature"] == pytest.approx(ball, rel=1e-13, abs=0.0)

    def test_profile_csv(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code = run(
            ["indicatrix", "--family", "ell1", "--b", "0.3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        # b = 0.3: the arcs run from (0, 1 - b) to (1 - b^2, 0), 256 nodes on each
        assert lines[:2] == ["rho,S", "0,0.7"]
        assert lines[-1] == "0.91,0"
        assert len(lines) == 513
        rho = [float(line.split(",")[0]) for line in lines[1:]]
        assert rho == sorted(rho)

    def test_profile_csv_next_to_the_boundary(self, tmp_path, capsys):
        # 1 - b is 1e-15: the last nodes of the 1-in-A arc round up to 1, where it meets the other arc
        out = tmp_path / "profile.csv"
        assert run(["indicatrix", "--family", "ell1", "--b", str(1.0 - 1e-15), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 513

    @pytest.mark.parametrize("m, b", [("128", "0.02"), ("32", "0.3")])
    def test_p_family_csv_steps_are_short(self, tmp_path, capsys, m, b):
        # S climbs from 0 within a sliver of u next to b: equal steps in u left a jump there
        out = tmp_path / "p.csv"
        assert run(["indicatrix", "--family", "p", "--m", m, "--b", b, "--out", str(out)]) == 0
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
        steps = [math.dist(p, q) for p, q in zip(rows, rows[1:])]
        assert len(rows) == 512
        assert max(steps) <= 0.02

    def test_g2_csv(self, tmp_path, capsys):
        out = tmp_path / "g2.csv"
        assert run(["indicatrix", "--family", "g2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[:2] == ["rho,S", "0,1"]
        assert lines[-1] == "2,0"

    def test_invalid_b(self, capsys):
        assert run(["indicatrix", "--family", "ell1", "--b", "1.5"]) == 1

    def test_p_family_csv_writes_its_arcs(self, tmp_path, capsys):
        # at m = 1/2 the p family's first exponent is the ell1 family's
        p_out, ell1_out = tmp_path / "p.csv", tmp_path / "ell1.csv"
        assert run(["indicatrix", "--family", "p", "--m", "0.5", "--b", "0.4", "--out", str(p_out)]) == 0
        assert run(["indicatrix", "--family", "ell1", "--b", "0.4", "--out", str(ell1_out)]) == 0
        assert p_out.read_text() == ell1_out.read_text()
        assert run(["indicatrix", "--family", "p", "--m", "2", "--b", "0.4", "--out", str(p_out)]) == 0
        assert p_out.read_text() != ell1_out.read_text()


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

    def test_annulus_next_to_the_outer_circle(self, capsys):
        assert run(["suita-f", "--annulus", "0.2", "--w", "0.9999999"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{") :])["F"] >= 1.0

    @pytest.mark.parametrize("r", ["0.9999", "0.999999"])
    def test_annulus_next_to_r_equal_one(self, capsys, r):
        assert run(["suita-f", "--annulus", r, "--w", "sqrt"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out[out.index("{") :])["F"] >= 1.0

    def test_ellipsoid_axis(self, capsys):
        dom = '{"variant": "ellipsoid", "p": [0.5, 1.0]}'
        assert run(["suita-f", "--domain", dom, "--w", "[0.3, 0]"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("F = 1.0023391\n")
        payload = json.loads(out[out.index("{") :])
        assert payload["F"] == suita.suita_F(Ellipsoid((0.5, 1.0)), [0.3, 0]).F
        assert 1.0 < payload["F"] < 4.0
        assert payload["classification"] == "convex"

    def test_center_default(self, capsys):
        dom = '{"variant": "polydisk", "n": 2}'
        assert run(["suita-f", "--domain", dom]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") :])
        assert payload["F"] == 1.0
        assert payload["classification"] == "symmetric"

    def test_polydisk_axis_point_is_refused_by_name(self, capsys):
        dom = '{"variant": "polydisk", "n": 2}'
        assert run(["suita-f", "--domain", dom, "--w", "[0.5, 0]"]) == 1
        assert capsys.readouterr().err == "error: the polydisk is evaluated at the origin only\n"


class TestScanCommand:
    def test_ell1_json(self, capsys):
        assert run(["scan", "--family", "ell1", "--n", "2..3", "--grid", "12"]) == 0
        payload = _json_out(capsys)
        assert payload["verdicts"]["all_at_least_one"] is True
        assert len(payload["samples"]) == 24

    def test_csv_artifacts(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = run(
            ["scan", "--family", "ell1", "--n", "2..2", "--grid", "8", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "curve,b,F"
        assert lines[1].startswith("ell1 m=0.5 n=2,0.001,1.0000")
        assert len(lines) == 9
        assert json.loads((tmp_path / "scan.csv.json").read_text())["kind"] == "figure-scan"

    @pytest.mark.parametrize("n, curves", [("3", [3]), ("2,4", [2, 4])], ids=["one", "list"])
    def test_ell1_n_without_a_range(self, n, curves, capsys):
        assert run(["scan", "--family", "ell1", "--n", n, "--grid", "2"]) == 0
        payload = _json_out(capsys)
        assert payload["grid"]["n_list"] == curves
        assert [row["curve"] for row in payload["samples"]] == [f"ell1 m=0.5 n={k}" for k in curves for _ in range(2)]

    def test_grid_too_small(self, capsys):
        assert run(["scan", "--family", "ell1", "--grid", "1"]) == 1

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


# a cheap valid command per subcommand or family, then each option it used to accept and ignore
_IGNORED_OPTIONS = (
    (
        ["kernel", "--g2"],
        ["--tol", "1e-9"],
        ["--seed", "7"],
        ["--samples", "64"],
        ["--format", "json"],
        ["--annulus", "0.2"],
        ["--w", "0.5"],
        ["--out", "x.csv"],
    ),
    (
        ["green", "--r", "0.2"],
        ["--tol", "1e-9"],
        ["--seed", "7"],
        ["--samples", "64"],
        ["--format", "json"],
        ["--out", "x.csv"],
    ),
    (
        ["indicatrix", "--family", "g2"],
        ["--tol", "1e-9"],
        ["--seed", "7"],
        ["--samples", "64"],
        ["--numeric"],
        ["--m", "5", "--b", "0.9"],
        ["--format", "csv"],
    ),
    (["indicatrix", "--family", "p", "--m", "2", "--b", "0.4"], ["--n", "3"]),
    (["indicatrix", "--family", "ell1"], ["--out", "x.csv", "--format", "csv"]),
    (
        ["suita-f", "--g2"],
        ["--tol", "1e-9"],
        ["--seed", "7"],
        ["--samples", "64"],
        ["--format", "json"],
        ["--w", "[0.5, 0.2]"],
        ["--out", "x.csv"],
    ),
    (["suita-f", "--domain", '{"variant": "ellipsoid", "p": [0.5, 1.0]}'], ["--b", "0.3"]),
    (
        ["scan", "--family", "ell1", "--n", "2..2", "--grid", "2"],
        ["--tol", "1e-9"],
        ["--seed", "7"],
        ["--samples", "64"],
        ["--m-list", "2"],
        ["--format", "csv"],
    ),
    (["scan", "--family", "p", "--m-list", "2", "--grid", "2"], ["--n", "2..3", "--m", "4"]),
    (
        ["experiment", "--r", "0.2", "--t-grid=-2", "--samples", "64"],
        ["--tol", "1e-9"],
        ["--format", "json"],
        ["--kind", "monotonicity"],
        ["--out", "x.csv"],
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
    def test_ignored_options_are_refused(self, command, option, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run([*command, *option]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not any(tmp_path.iterdir())

    def test_readme_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("suitaverify ")]
        assert len(lines) >= 10
        parser = cli._build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line, comments=True)[1:])

    def test_bad_flag_value(self, capsys):
        assert run(["green", "--r", "zebra"]) == 1

    def test_bad_base_point(self, capsys):
        assert run(["kernel", "--annulus", "0.2", "--w", "zebra"]) == 1

    def test_unwritable_out_is_validation_error(self, tmp_path, capsys):
        assert run(["suita-f", "--g2", "--out", str(tmp_path / "missing" / "x.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("error", cli._NUMERICAL_ERRORS, ids=lambda error: error.__name__)
    def test_numerical_errors_exit_2(self, error, monkeypatch, capsys):
        def fail(args):
            raise error("stub failure")

        monkeypatch.setitem(cli._COMMANDS, "green", fail)
        assert run(["green", "--r", "0.2"]) == 2
        assert capsys.readouterr().err == "numerical failure: stub failure\n"


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
