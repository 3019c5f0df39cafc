"""Command-line interface: flags, outputs, exit codes, reruns."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from projclust.bounds import (RANK_TAU1, RANK_TAU2, BoundReport,
                              nonspherical_direction_prob)
from projclust.cli import (
    EXIT_BUDGET_EXHAUSTED,
    EXIT_OK,
    EXIT_USAGE_OR_IO,
    main,
)
from projclust.datagen import RANK_SPEC_STREAM, make_rank_spec
from projclust.mathkit import RngStream


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_files_and_echoes_inputs(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "data")
        code, stdout, _ = run_main(
            capsys, "gen", "--p", "100", "--n", "1000", "--c", "1",
            "--seed", "7", "--out", out,
        )
        assert code == EXIT_OK
        echo = json.loads(stdout)
        assert echo["p"] == 100 and echo["n"] == 1000 and echo["seed"] == 7
        assert os.path.exists(out + ".bin") and os.path.exists(out + ".json")
        header = json.loads(Path(out + ".json").read_text())
        assert len(header.pop("labels")) == 1000
        assert header == {"n": 1000, "p": 100, "k": 2, "seed": 7,
                          "generator": "gaussian:stream=0"}

    def test_rerun_byte_identical(self, capsys, tmp_path):
        a = os.path.join(tmp_path, "a")
        b = os.path.join(tmp_path, "b")
        args = ["gen", "--p", "50", "--n", "500", "--c", "1", "--seed", "3"]
        assert main(args + ["--out", a]) == EXIT_OK
        assert main(args + ["--out", b]) == EXIT_OK
        capsys.readouterr()
        assert Path(a + ".bin").read_bytes() == Path(b + ".bin").read_bytes()
        assert Path(a + ".json").read_text() == Path(b + ".json").read_text()

    def test_rank_spec_reports_r(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "rank")
        code, stdout, _ = run_main(
            capsys, "gen", "--p", "1000", "--n", "100", "--c", "0.5",
            "--zeta", "0.02", "--seed", "1", "--out", out,
        )
        assert code == EXIT_OK
        echo = json.loads(stdout)
        assert echo["r"] == 60
        # The echo names the spec sampled: unit variances, equal weights.
        assert echo["sigma"] == 1.0 and echo["w"] == 0.5
        header = json.loads(Path(out + ".json").read_text())
        assert header["r"] == 60 and header["zeta"] == 0.02

    @pytest.mark.parametrize("flag", ["--sigma", "--w"])
    def test_zeta_takes_no_sigma_or_w(self, capsys, tmp_path, flag):
        # The rank spec ignores both, so echoing them would misreport it.
        out = os.path.join(tmp_path, "rank")
        code, stdout, err = run_main(
            capsys, "gen", "--p", "20", "--n", "200", "--c", "1",
            "--zeta", "0.1", flag, "0.3", "--out", out,
        )
        assert code == EXIT_USAGE_OR_IO
        assert err == f"error: gen --zeta takes no {flag}\n"
        assert stdout == ""
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flags, name", [
        (["--c", "nan"], "c"),
        (["--c", "inf"], "c"),
        (["--c", "1", "--sigma", "nan"], "sigma"),
        (["--c", "1", "--sigma", "inf"], "sigma"),
    ])
    def test_nonfinite_spec_input_is_refused_by_name(self, capsys, tmp_path, flags,
                                                     name):
        code, stdout, stderr = run_main(
            capsys, "gen", "--p", "5", "--n", "10", *flags,
            "--out", str(tmp_path / "d"))
        assert code == EXIT_USAGE_OR_IO and stdout == ""
        assert re.search(rf"\b{name}\b", stderr), stderr
        assert os.listdir(tmp_path) == []

    def test_csv_export_flag(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "d")
        csv_path = os.path.join(tmp_path, "d.csv")
        code, _, _ = run_main(
            capsys, "gen", "--p", "5", "--n", "20", "--c", "1",
            "--out", out, "--csv", csv_path,
        )
        assert code == EXIT_OK
        assert len(Path(csv_path).read_text().splitlines()) == 21

    def test_nongaussian_shape(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "u")
        code, stdout, _ = run_main(
            capsys, "gen", "--p", "10", "--n", "50", "--c", "1",
            "--shape", "uniform", "--out", out,
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["shape"] == "uniform"


class TestCluster:
    @pytest.fixture
    def dataset(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "ds")
        main(["gen", "--p", "60", "--n", "4000", "--c", "2", "--seed", "5",
              "--out", out])
        capsys.readouterr()
        return out

    def test_achieved(self, capsys, dataset):
        code, stdout, _ = run_main(
            capsys, "cluster", "--in", dataset, "--error", "0.05",
            "--budget", "40", "--seed", "2",
        )
        assert code == EXIT_OK
        payload = json.loads(stdout)
        assert payload["achieved"] is True
        assert payload["projections_used"] <= 40
        assert payload["clustering_error"] <= 0.05

    def test_budget_exhausted_exit_code(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "hard")
        main(["gen", "--p", "100", "--n", "2000", "--c", "0.1", "--seed", "5",
              "--out", out])
        capsys.readouterr()
        code, stdout, _ = run_main(
            capsys, "cluster", "--in", out, "--error", "0.01",
            "--budget", "5", "--seed", "2",
        )
        assert code == EXIT_BUDGET_EXHAUSTED
        payload = json.loads(stdout)
        assert payload["achieved"] is False
        assert payload["projections_used"] == 5

    @pytest.mark.xfail(strict=True, reason=(
        "em false success on weakly separated data: the quartile-start fit "
        "(w 0.33) reads its plug-in error 0.189 below the 0.2 target while "
        "the clustering error is 0.382; W_MIN (0.01) does not reach w 0.33, "
        "and the acceptance guards of ROADMAP items 2 (goodness of fit) and "
        "3 (upper confidence bound) are not in place yet"))
    def test_em_achieved_means_target_met(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "weak")
        main(["gen", "--p", "10", "--n", "1000", "--c", "0.3", "--seed", "4",
              "--out", out])
        capsys.readouterr()
        _, stdout, _ = run_main(
            capsys, "cluster", "--in", out, "--error", "0.2", "--budget", "15",
            "--learner", "em", "--seed", "4",
        )
        payload = json.loads(stdout)
        assert not payload["achieved"] or payload["clustering_error"] <= 0.2 + 0.02

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run_main(
            capsys, "cluster", "--in", os.path.join(tmp_path, "nope"),
            "--error", "0.1",
        )
        assert code == EXIT_USAGE_OR_IO
        assert "error" in err

    def test_default_budget_from_dimension(self, capsys, dataset):
        code, stdout, _ = run_main(
            capsys, "cluster", "--in", dataset, "--error", "0.05", "--seed", "2",
        )
        assert code in (EXIT_OK, EXIT_BUDGET_EXHAUSTED)
        # 3 * ceil(ln 60) = 15
        assert json.loads(stdout)["projections_used"] <= 15

    def test_default_budget_at_p1(self, capsys, tmp_path):
        # The unknown-shape budget 3 * ceil(ln p) floors at 1 when p = 1;
        # only the spherical budget needs p >= 2.
        out = os.path.join(tmp_path, "line")
        main(["gen", "--p", "1", "--n", "500", "--c", "2", "--seed", "1",
              "--out", out])
        capsys.readouterr()
        code, stdout, err = run_main(capsys, "cluster", "--in", out, "--error", "0.1")
        assert code == EXIT_OK, err
        payload = json.loads(stdout)
        assert payload["projections_used"] == 1 and payload["achieved"] is True


class TestBounds:
    def test_projections_asymptotic(self, capsys):
        code, stdout, _ = run_main(
            capsys, "bounds", "projections", "--gamma", "1.49", "--c", "1",
            "--asymptotic",
        )
        assert code == EXIT_OK
        payload = json.loads(stdout)
        assert payload["value"] == pytest.approx(7.3408, abs=1e-3)
        assert payload["kind"] == "count_upper"

    @pytest.mark.parametrize("argv, field", [
        (["projections", "--gamma", "10", "--c", "1", "--p", "25"], "value"),
        (["projections", "--gamma", "40", "--c", "1", "--asymptotic"], "value"),
        (["rank", "--p", "100", "--c", "0", "--zeta", "0.5", "--gamma", "1"], "beta"),
    ])
    def test_unbounded_value_prints_as_null(self, capsys, argv, field):
        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")
        code, stdout, _ = run_main(capsys, "bounds", *argv)
        assert code == EXIT_OK
        payload = json.loads(stdout, parse_constant=refuse)
        assert (payload if field == "value" else payload["inputs"])[field] is None

    @pytest.mark.parametrize("argv, name", [
        (["bounds", "kgmm-projections", "--c-min", "nan", "--k", "3", "--alpha", "0.5"],
         "c_min"),
        (["bounds", "error-gap", "--gamma", "1", "--gamma-max", "nan",
          "--w-min", "0.2", "--eps", "0.001"], "gamma_max"),
        (["bounds", "error-gap", "--gamma", "inf", "--gamma-max", "1",
          "--w-min", "0.2", "--eps", "0.001"], "gamma"),
        (["bounds", "kgmm", "--gamma-min", "0.1", "--c-min", "inf", "--k", "3",
          "--p", "10"], "c_min"),
        (["bounds", "direction-prob", "--gamma", "1", "--c", "nan", "--p", "10"], "c"),
        (["bounds", "hd-error", "--c", "nan", "--p", "10"], "c"),
        (["bounds", "projections", "--gamma", "1", "--c", "nan", "--asymptotic"], "c"),
        (["experiment", "gamma-cdf", "--c", "nan"], "c"),
        (["bounds", "rank", "--p", "100", "--c", "nan", "--zeta", "0.5", "--gamma", "1"],
         "c"),
        (["experiment", "gamma-cdf", "--c", "-1", "--p", "10", "--directions", "100"],
         "c"),
    ])
    def test_nonfinite_input_is_refused_by_name(self, capsys, tmp_path, argv, name):
        if argv[0] == "experiment":
            argv = [*argv, "--out", str(tmp_path / "gamma.csv")]
        code, stdout, stderr = run_main(capsys, *argv)
        assert code == EXIT_USAGE_OR_IO and stdout == ""
        assert re.search(rf"\b{name}\b", stderr), stderr

    @pytest.mark.parametrize("argv, code, expected", [
        (["direction-prob", "--gamma", "1e200", "--c", "1", "--p", "10"],
         EXIT_OK, "alpha >= p: bound degenerates to zero"),
        (["projections", "--gamma", "1e200", "--c", "1", "--p", "10"],
         EXIT_OK, "probability bound is zero: count unbounded"),
        (["kgmm", "--gamma-min", "1e200", "--c-min", "1", "--k", "3", "--p", "10"],
         EXIT_USAGE_OR_IO, "error: requires gamma_min^2 / c_min^2 < p"),
        (["error-gap", "--gamma", "1", "--gamma-max", "1e200", "--w-min", "0.5",
          "--eps", "0.01"], EXIT_USAGE_OR_IO, "error: requires (16*gamma_max^2"),
        (["error-gap", "--gamma", "1e-200", "--gamma-max", "1", "--w-min", "0.5",
          "--eps", "1e-200"], EXIT_USAGE_OR_IO,
         "error: 1/(4*gamma*eps) is not a finite float"),
    ], ids=["direction-prob", "projections", "kgmm", "error-gap-gamma-max",
            "error-gap-eps"])
    def test_finite_input_past_float_range_gives_the_limit_or_names_the_term(
            self, capsys, argv, code, expected):
        # Each of these raised OverflowError or ZeroDivisionError from
        # float arithmetic, which the CLI printed as a traceback.
        got, stdout, stderr = run_main(capsys, "bounds", *argv)
        assert got == code
        assert expected in (json.loads(stdout)["note"] if code == EXIT_OK else stderr)

    @pytest.mark.parametrize("argv, value, note", [
        (["projections", "--gamma", "1e300", "--c", "1e-300", "--asymptotic"], None,
         "probability bound is zero: count unbounded"),
        (["hd-error", "--c", "1e307", "--p", "10000"], 0.0, ""),
    ], ids=["projections-asymptotic", "hd-error"])
    def test_tail_argument_past_float_range_gives_the_limit(
            self, capsys, argv, value, note):
        # Q of an argument that overflows to inf is its limit, 0; each of
        # these exited 1 with an error that named no input.
        code, stdout, stderr = run_main(capsys, "bounds", *argv)
        assert code == EXIT_OK and stderr == ""
        payload = json.loads(stdout)
        assert payload["value"] == value and payload["note"] == note

    @pytest.mark.parametrize("argv", [
        ["hd-error", "--c", "1", "--p", "4"],
        ["direction-prob", "--gamma", "1", "--c", "1", "--p", "1000"],
        ["direction-prob", "--gamma", "1", "--c", "1", "--p", "1000", "--tau", "0.1"],
        ["projections", "--gamma", "1.49", "--c", "1", "--p", "10000"],
        ["projections", "--gamma", "1.49", "--c", "1", "--asymptotic"],
        ["kgmm", "--gamma-min", "0.1", "--c-min", "1", "--k", "2", "--p", "10000"],
        ["kgmm-projections", "--c-min", "1", "--k", "3", "--alpha", "0.2"],
        ["rank", "--p", "1000", "--c", "0.5", "--zeta", "0.0334", "--gamma", "1.75"],
        ["sample-size", "--eps", "0.1", "--delta", "0.05", "--gamma-min", "1"],
        ["error-gap", "--gamma", "1", "--gamma-max", "1", "--w-min", "0.5",
         "--eps", "0.01"],
    ], ids=["hd-error", "direction-prob", "direction-prob-tau", "projections-p",
            "projections-asymptotic", "kgmm", "kgmm-projections", "rank",
            "sample-size", "error-gap"])
    def test_every_bound_prints_one_report_form(self, capsys, argv):
        code, stdout, _ = run_main(capsys, "bounds", *argv)
        assert code == EXIT_OK
        assert set(json.loads(stdout)) == {f.name for f in fields(BoundReport)}

    def test_projections_takes_p_or_asymptotic_not_both(self, capsys):
        code, stdout, _ = run_main(
            capsys, "bounds", "projections", "--gamma", "1", "--c", "1",
            "--p", "100", "--asymptotic",
        )
        assert code == EXIT_USAGE_OR_IO and stdout == ""

    def test_hd_error(self, capsys):
        code, stdout, _ = run_main(
            capsys, "bounds", "hd-error", "--c", "1", "--p", "4",
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["value"] == pytest.approx(0.1587, abs=1e-4)

    def test_sample_size(self, capsys):
        code, stdout, _ = run_main(
            capsys, "bounds", "sample-size", "--eps", "0.1", "--delta", "0.05",
            "--gamma-min", "1",
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["value"] == 19173

    def test_direction_prob_with_and_without_tau(self, capsys):
        code, stdout, _ = run_main(
            capsys, "bounds", "direction-prob", "--gamma", "1", "--c", "1",
            "--p", "1000", "--tau", "0.1",
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["value"] == pytest.approx(0.266, abs=1e-3)
        code, stdout, _ = run_main(
            capsys, "bounds", "direction-prob", "--gamma", "1", "--c", "1",
            "--p", "1000",
        )
        assert json.loads(stdout)["value"] >= 0.266 - 1e-9

    def test_kgmm(self, capsys):
        code, stdout, _ = run_main(
            capsys, "bounds", "kgmm", "--gamma-min", "0.1", "--c-min", "1",
            "--k", "2", "--p", "10000",
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["value"] == pytest.approx(0.167, abs=2e-3)

    def test_error_gap(self, capsys):
        code, stdout, _ = run_main(
            capsys, "bounds", "error-gap", "--gamma", "1", "--gamma-max", "1",
            "--w-min", "0.5", "--eps", "0.01",
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["value"] == pytest.approx(0.44, abs=1e-6)

    def test_rank_bound(self, capsys):
        code, stdout, _ = run_main(
            capsys, "bounds", "rank", "--p", "1000", "--c", "0.5",
            "--zeta", "0.0334", "--gamma", "1.75",
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["value"] > 0.0

    def test_rank_bound_picks_its_own_tau(self, capsys):
        # Without --tau the CLI prints the library's tau=None report, as
        # rank_proj's bound_projections column uses it.
        argv = ["bounds", "rank", "--p", "1000", "--c", "0.5", "--zeta", "0.0334",
                "--gamma", "1.75"]
        code, stdout, _ = run_main(capsys, *argv)
        assert code == EXIT_OK
        spec, _ = make_rank_spec(1000, 0.5, 0.0334, RngStream(0, RANK_SPEC_STREAM))
        expected = nonspherical_direction_prob(spec, 1.75, None, mode="rank",
                                               tau1=RANK_TAU1, tau2=RANK_TAU2)
        assert json.loads(stdout)["value"] == expected.value
        assert json.loads(stdout)["inputs"]["tau"] == expected.inputs["tau"]
        _, fixed, _ = run_main(capsys, *argv, "--tau", "0.1")
        assert json.loads(fixed)["inputs"]["tau"] == 0.1
        assert expected.value >= json.loads(fixed)["value"]

    def test_kgmm_projections_stdout_bytes(self, capsys):
        # The bound takes no libm function (sqrt is correctly rounded), so
        # these bytes hold on every platform.
        code, stdout, _ = run_main(
            capsys, "bounds", "kgmm-projections", "--c-min", "1", "--k", "3",
            "--alpha", "0.2",
        )
        assert code == EXIT_OK
        assert stdout == (
            '{"citation": "kgmm-projection-count", "clamped": false, '
            '"inputs": {"alpha": 0.2, "c_min": 1.0, '
            '"gamma_min_threshold": 0.2124423364449676, "k": 3}, '
            '"kind": "count_upper", "note": "", "value": 5.0}\n')

    def test_domain_error_exit(self, capsys):
        code, _, err = run_main(
            capsys, "bounds", "error-gap", "--gamma", "1", "--gamma-max", "3",
            "--w-min", "0.1", "--eps", "0.2",
        )
        assert code == EXIT_USAGE_OR_IO
        assert "16*gamma_max" in err


class TestExperimentCommand:
    def test_gamma_cdf_csv(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "cdf.csv")
        code, stdout, _ = run_main(
            capsys, "experiment", "gamma-cdf", "--p", "200", "--c", "1",
            "--directions", "5000", "--seed", "4", "--out", out,
        )
        assert code == EXIT_OK
        lines = Path(out).read_text().splitlines()
        assert lines[0].split(",")[0] == "seed"
        assert len(lines) > 10

    def test_rerun_byte_identical(self, capsys, tmp_path):
        a, b = os.path.join(tmp_path, "a.csv"), os.path.join(tmp_path, "b.csv")
        args = ["experiment", "err-vs-proj", "--p", "20", "--c", "2",
                "--n", "800", "--budget", "5", "--repeats", "2", "--seed", "1"]
        assert main(args + ["--out", a]) == EXIT_OK
        assert main(args + ["--out", b]) == EXIT_OK
        capsys.readouterr()
        assert Path(a).read_text() == Path(b).read_text()

    def test_unknown_experiment_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_main(
            capsys, "experiment", "fig42", "--out", os.path.join(tmp_path, "x"),
        )
        assert code == EXIT_USAGE_OR_IO

    def test_acc_vs_sep_custom_cells(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "acc.csv")
        code, _, _ = run_main(
            capsys, "experiment", "acc-vs-sep", "--p", "20", "--c", "1",
            "--c", "2", "--n", "600", "--budget", "4", "--repeats", "2",
            "--seed", "3", "--out", out,
        )
        assert code == EXIT_OK
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 5

    @pytest.mark.parametrize("name, flag, value", [
        ("acc-vs-sep", "--error", "0.1"),
        ("acc-vs-sep", "--directions", "10"),
        ("err-vs-proj", "--zeta", "0.1"),
        ("gamma-cdf", "--budget", "5"),
        ("gamma-cdf", "--repeats", "2"),
        ("gamma-cdf", "--n", "100"),
        ("gamma-cdf", "--learner", "mom"),
    ])
    def test_flag_the_experiment_does_not_take_is_usage_error(
        self, capsys, tmp_path, name, flag, value
    ):
        out = os.path.join(tmp_path, "x.csv")
        small = ["--p", "10", "--directions", "100"] if name == "gamma-cdf" else []
        code, stdout, err = run_main(
            capsys, "experiment", name, flag, value, *small, "--out", out,
        )
        assert code == EXIT_USAGE_OR_IO
        assert err == f"error: experiment {name} takes no {flag}\n"
        assert stdout == "" and not os.path.exists(out)

    @pytest.mark.parametrize("name, small", [
        ("gamma-cdf", ["--p", "10", "--directions", "100"]),
        ("err-vs-proj", ["--p", "10", "--n", "200", "--budget", "2",
                         "--repeats", "1"]),
        ("rank-acc", ["--p", "10", "--zeta", "0.5", "--n", "200", "--budget",
                      "2", "--repeats", "1"]),
        ("rank-proj", ["--p", "10", "--zeta", "0.5", "--n", "200", "--budget",
                       "2", "--repeats", "1"]),
    ])
    def test_repeated_scalar_flag_is_usage_error(self, capsys, tmp_path, name,
                                                 small):
        # These experiments take one c; a second --c must not silently
        # replace the first.
        out = os.path.join(tmp_path, "x.csv")
        code, stdout, err = run_main(
            capsys, "experiment", name, "--c", "1", "--c", "2", *small,
            "--out", out,
        )
        assert code == EXIT_USAGE_OR_IO
        assert err == f"error: experiment {name} takes one --c\n"
        assert stdout == "" and not os.path.exists(out)


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        code, _, err = run_main(capsys, "gen", "--p", "10")
        assert code == EXIT_USAGE_OR_IO

    def test_unknown_command_flag(self, capsys):
        code, _, _ = run_main(capsys, "cluster", "--nope", "x")
        assert code == EXIT_USAGE_OR_IO


class TestConsoleEntry:
    def test_module_invocation(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "projclust.cli", "bounds", "hd-error",
             "--c", "1", "--p", "4"],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == pytest.approx(0.1587, abs=1e-4)
