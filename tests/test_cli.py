import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsteer import acceptance, scenarios, steering
from qsteer.qobj import DensityMatrix
from qsteer.cli import emit_csv, emit_svg, run
from qsteer.jointmeas import ThresholdRecord, mub_jm_threshold_symmetric
from qsteer.scenarios import LhsFalsificationReport, ScanResult, fig1_scan


def make_result(n=3, alphas=(0.5,)):
    records = []
    for a in alphas:
        for i in range(n):
            records.append(
                ThresholdRecord(
                    parameter=float(i), detected=0.7 + 0.01 * i, exact=0.7, alpha=a
                )
            )
    records.sort(key=lambda r: (r.parameter, r.alpha))
    meta = {"scenario": "synthetic", "parameter_name": "p", "alphas": list(alphas),
            "grid": list(range(n)), "tol": 1e-6, "seed": None}
    return ScanResult(tuple(records), meta)


class TestRunExitCodes:
    def test_threshold_prints_both_conventions(self, capsys):
        code = run(["threshold", "--d", "2", "--alpha", "0.5", "--tol", "1e-9"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("0.707107")
        assert lines[1].startswith("0.292893")

    def test_tolerance_of_one_or_more_exits_2(self, capsys):
        assert run(["threshold", "--d", "3", "--tol", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: tolerance must lie in (0, 1)" in captured.err

    def test_bad_order_lists_exit_2(self, capsys):
        # an empty or non-numeric field is rejected, not dropped ("0.5,,1" ran 0.5 and 1)
        for alphas in (",", "0.5,,1", "0.5,", "x,1"):
            assert run(["scan-fig1", "--d", "2", "--alphas", alphas]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"bad order list: {alphas!r}" in captured.err
        # the order rule is the library's, which names the value
        assert run(["check", "--d", "2", "--alpha", "nan"]) == 2
        assert "no dual order for alpha=nan: it must be a real number of at least 1/2" in capsys.readouterr().err

    def test_sum_errors_print_plain_floats(self, capsys):
        assert run(["entropy", "--probs", "0.7,0.7"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: distribution sums to 1.4, not 1"]
        assert run(["entropy", "--joint", "0.4,0.1;0.1,0.6"]) == 2
        err += capsys.readouterr().err
        assert "error: joint table sums to 1.2, not 1" in err
        assert "np.float64" not in err

    def test_ragged_joint_rows_exit_2(self, capsys):
        assert run(["entropy", "--joint", "0.4,0.1;0.1"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: --joint rows must have equal length"]

    @pytest.mark.parametrize("joint", ["0.5,x", ";"])
    def test_bad_joint_field_names_the_table(self, capsys, joint):
        # the float parse error named neither the option nor the input
        assert run(["entropy", "--joint", joint]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad joint table: {joint!r}" in captured.err

    @pytest.mark.parametrize("probs", ["0.5,,0.5", "0.5,0.5,"])
    def test_empty_probability_field_exits_2(self, capsys, probs):
        assert run(["entropy", "--probs", probs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad probability list: {probs!r}" in captured.err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--probs", "nan,1", "distribution has negative or NaN entry nan"),
         ("--joint", "nan,0.5;0.5,0", "joint table has negative or NaN entry nan")],
    )
    def test_nan_probability_exits_2(self, capsys, flag, value, message):
        assert run(["entropy", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_unknown_flag_exits_2(self):
        assert run(["threshold", "--d", "2", "--bogus"]) == 2

    def test_out_of_range_value_exits_2(self):
        assert run(["threshold", "--d", "1"]) == 2
        assert run(["check", "--d", "2", "--va", "1.4"]) == 2
        assert run(["entropy", "--probs", "0.7,0.7"]) == 2

    @pytest.mark.parametrize(
        "argv, named",
        [([command, *needs, "--tol", tol], f"got {float(tol)!r}")
         for command, needs in [("threshold", ["--d", "2"]), ("scan-fig1", []),
                                ("scan-qubit", []), ("scan-d3", []), ("tightness", [])]
         for tol in ("0", "-1", "nan")]
        + [([command, "--d", "1"], "got 1") for command in ("check", "threshold")]
        + [([command, "--d", "2..3"], "'2..3'") for command in ("check", "threshold")]
        + [(["check", "--d", "2", side, v], f"visibility must lie in [0, 1], got {v}")
           for side, v in (("--va", "1.4"), ("--vx", "nan"))]
        + [([command, "--d", "1"], "dimension must be an integer of at least 2, got 1")
           for command in ("scan-fig1", "tightness")]
        + [(["tightness", "--grid-points", "0"], "grid_points must be an integer of at least 1")]
        + [(["lhs-test", "--seed", "-1"], "seed must be an integer of at least 0, got -1")]
        + [([command, "--d", "2", "--alpha", a], f"no dual order for alpha={a}: it must be a real number")
           for command in ("check", "threshold") for a in ("0.3", "nan")]
        + [(["scan-fig1", "--d", "2", "--alphas", a], f"no dual order for alpha={a}: it must be a real number")
           for a in ("0.3", "nan")],
    )
    def test_value_the_library_rejects_exits_2(self, capsys, argv, named):
        # the CLI leaves these checks to the library, which names the value
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and named in captured.err

    def test_entropy_command(self, capsys):
        assert run(["entropy", "--probs", "0.9,0.1", "--alpha", "inf"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("0.152003093")
        assert run(["entropy", "--probs", "0.5,0.5", "--tsallis-q", "2"]) == 0
        assert capsys.readouterr().out == "0.5 nats (Tsallis q=2)\n"  # 1 - 2 * 0.5^2
        assert run(["entropy", "--joint", "0.5,0.5", "--alpha", "inf"]) == 0
        assert capsys.readouterr().out == "0 bits (conditional Renyi alpha=inf)\n"  # not "-0"

    def test_entropy_of_a_small_order_is_finite(self, capsys):
        # below alpha = ln(n)/710 the generic evaluator's expm1 overflowed: "inf bits"
        assert run(["entropy", "--probs", "0.5,0.5", "--alpha", "0.0005"]) == 0
        assert capsys.readouterr().out == "1 bits (Renyi alpha=0.0005)\n"
        assert run(["entropy", "--joint", "0.4,0.1;0.1,0.4", "--alpha", "1e-5"]) == 0
        assert capsys.readouterr().out == "0.999996781 bits (conditional Renyi alpha=1e-05)\n"

    @pytest.mark.parametrize(
        "inputs", [[], ["--probs", "0.5,0.5", "--joint", "0.5,0;0,0.5"]], ids=["neither", "both"]
    )
    def test_entropy_needs_exactly_one_input(self, capsys, inputs):
        assert run(["entropy", *inputs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "provide exactly one of --probs or --joint\n"

    def test_conditional_tsallis_command(self, capsys):
        joint = "0.4,0.1;0.1,0.4"
        assert run(["entropy", "--joint", joint, "--tsallis-q", "2"]) == 0
        # sum_y p(y)^2 (1 - sum_x p(x|y)^2) = 2 * 0.25 * (1 - 0.68) = 0.16 nats
        assert capsys.readouterr().out.startswith("0.16 nats (conditional Tsallis q=2)")
        assert run(["entropy", "--joint", joint]) == 0
        assert "bits (conditional Renyi alpha=1)" in capsys.readouterr().out

    def test_check_command_detects(self, capsys):
        assert run(["check", "--d", "2", "--alpha", "0.5", "--va", "0.8", "--vx", "0.8"]) == 0
        assert "detected" in capsys.readouterr().out

    def test_tightness_command(self, capsys):
        assert run(["tightness", "--d", "2..3", "--grid-points", "5", "--tol", "1e-8"]) == 0
        assert "overall max deviation" in capsys.readouterr().out

    def test_tightness_rejects_empty_grid(self, capsys):
        assert run(["tightness", "--d", "2", "--grid-points", "0"]) == 2
        assert "grid_points must be an integer of at least 1, got 0" in capsys.readouterr().err

    def test_lhs_test_command(self, capsys):
        assert run(["lhs-test", "--seed", "5", "--n-models", "50"]) == 0
        assert "no local-hidden-state violation" in capsys.readouterr().out

    def test_lhs_test_worst_case_rebuilds_the_maximum(self, capsys):
        # the printed worst case names one row of one dimension's stack; rebuilt
        # from the printed values alone, that row gives the reported maximum back
        assert run(["lhs-test", "--seed", "42", "--n-models", "400"]) == 0
        out = capsys.readouterr().out
        found = re.search(r"worst case: d=(\d+), model (\d+) of (\d+) from stack seed (\d+), n_lambda=(\d+), "
                          r"alpha=(\S+), Bob pair (\S+)\n", out)
        d, index, stack_size, stack_seed, n_lambda = map(int, found.groups()[:5])
        alpha, pair = float(found[6]), found[7]
        stack = steering.sample_lhs_model(stack_seed, d, np.resize(scenarios.LHS_N_LAMBDAS, stack_size))
        model = steering.LhsModel(
            stack.weights[index, :n_lambda],
            DensityMatrix(stack.hidden_states.matrix[index, :n_lambda]),
            {label: r[index, :n_lambda] for label, r in stack.responses.items()},
        )
        (bx, bz), = [(bx, bz) for name, bx, bz in scenarios._bob_pairs(d) if name == pair]
        jx, jz = steering.lhs_statistics(model, bx, bz)
        violation = steering.overlap_bound(bx, bz) - steering.steering_lhs(jx, jz, alpha)
        assert violation == scenarios.lhs_falsification_suite(42, 400).max_violation
        assert f"max violation {violation:.3e} over 4000 evaluations" in out

    def test_lhs_test_exits_1_on_a_violation(self, capsys, monkeypatch):
        def unsound(seed, n_models):
            return LhsFalsificationReport(seed, n_models, (2,), (0.5,), 1, 1e-3, {})

        monkeypatch.setattr(scenarios, "lhs_falsification_suite", unsound)
        assert run(["lhs-test", "--n-models", "1"]) == 1
        captured = capsys.readouterr()
        assert "max violation 1.000e-03 over 1 evaluations" in captured.out
        assert captured.err.startswith("INTERNAL ERROR: a local-hidden-state model violated")

    @pytest.mark.parametrize("outcomes, code", [((True, True), 0), ((True, False), 1)])
    def test_selftest_exit_code_and_summary(self, capsys, monkeypatch, outcomes, code):
        def stub(number, passed):
            return lambda: acceptance.CriterionResult(number, "stub", passed, "stubbed", 0.0)

        criteria = tuple(stub(i + 1, ok) for i, ok in enumerate(outcomes))
        monkeypatch.setattr(acceptance, "ALL_CRITERIA", criteria)
        assert run(["selftest"]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "[PASS] criterion 1: stub (0.0s) - stubbed"
        assert lines[-1] == f"{sum(outcomes)}/2 acceptance criteria passed"

    def test_lhs_test_lists_only_dimensions_that_ran(self, capsys):
        assert run(["lhs-test", "--seed", "5", "--n-models", "1"]) == 0
        out = capsys.readouterr().out
        assert "over 10 evaluations (1 models, dims (2,))" in out

    def test_scan_fig1_with_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "fig1.csv"
        svg_path = tmp_path / "fig1.svg"
        code = run([
            "scan-fig1", "--d", "2..3", "--alphas", "0.5,1",
            "--tol", "1e-5", "--csv", str(csv_path), "--svg", str(svg_path),
        ])
        assert code == 0
        assert csv_path.exists() and svg_path.exists()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, grid, name",
        [("scan-qubit", ["--thetas", "0:0.7:3"], "theta"),
         ("scan-d3", ["--t-grid", "0:0.5:3"], "t")],
    )
    def test_scan_commands_write_csv(self, tmp_path, capsys, command, grid, name):
        csv_path = tmp_path / "scan.csv"
        assert run([command, *grid, "--tol", "1e-5", "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        header, *rows = csv_path.read_text(encoding="utf-8").splitlines()
        assert header.startswith(f"{name},alpha,beta,")
        assert len(rows) == 3


def run_module(*args):
    """``python -m qsteer`` on this checkout's sources, in a subprocess."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "qsteer", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


class TestModuleEntryPoint:
    def test_python_m_qsteer(self):
        out = run_module("entropy", "--probs", "0.9,0.1", "--alpha", "inf")
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("0.152003093")

    def test_tolerance_below_float_spacing_ends(self):
        # a tolerance finer than the float spacing at the switch must still end
        out = run_module("threshold", "--d", "2", "--tol", "1e-20")
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("0.707107")


class TestCsv:
    def test_header_and_sorting(self, tmp_path):
        scan = fig1_scan([3, 2], [1.0, 0.5], tol=1e-5)
        path = tmp_path / "out.csv"
        emit_csv(scan, str(path))
        text = path.read_bytes().decode("utf-8")
        assert "\r" not in text
        lines = text.strip().split("\n")
        assert lines[0] == "d,alpha,beta,detected_visibility,exact_visibility,gap"
        rows = [line.split(",") for line in lines[1:]]
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_round_trip_at_nine_digits(self, tmp_path):
        scan = make_result(4)
        path = tmp_path / "rt.csv"
        emit_csv(scan, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, rec in zip(rows, scan.records):
            assert float(row["detected_visibility"]) == pytest.approx(
                rec.detected, rel=1e-9
            )
            assert float(row["gap"]) == pytest.approx(rec.gap, rel=1e-9, abs=1e-12)

    def test_gap_is_absolute_so_rounding_of_detected_cannot_move_it(self, tmp_path):
        # the d = 3 MUB endpoint: two solves 2.5e-15 apart once printed gaps
        # 9.47743889e-08 and 9.47743914e-08
        exact = mub_jm_threshold_symmetric(3)
        rows = []
        for detected in (0.6830127966666082, 0.6830127966666082 + 2.5e-15):
            scan = ScanResult((ThresholdRecord(parameter=0.0, detected=detected, exact=exact, alpha=0.5),), {})
            emit_csv(scan, str(tmp_path / "d3.csv"))
            rows.append((tmp_path / "d3.csv").read_text().split("\n")[1])
        assert rows[0] == rows[1] and rows[0].endswith(",0.000000094774")

    def test_gap_below_the_resolution_is_zero_without_sign(self, tmp_path):
        rec = ThresholdRecord(parameter=2.0, detected=0.5 - 1e-14, exact=0.5, alpha=0.5)
        emit_csv(ScanResult((rec,), {}), str(tmp_path / "zero.csv"))
        assert (tmp_path / "zero.csv").read_text().split("\n")[1].endswith(",0.5,0.000000000000")

    def test_empty_scan_gives_header_only(self, tmp_path):
        empty = ScanResult((), {"parameter_name": "d"})
        path = tmp_path / "empty.csv"
        emit_csv(empty, str(path))
        assert path.read_text() == "d,alpha,beta,detected_visibility,exact_visibility,gap\n"

    def test_unknown_exact_leaves_empty_fields(self, tmp_path):
        rec = ThresholdRecord(parameter=0.2, detected=0.9, alpha=0.5)
        scan = ScanResult((rec,), {"parameter_name": "t"})
        path = tmp_path / "none.csv"
        emit_csv(scan, str(path))
        line = path.read_text().strip().split("\n")[1]
        assert line == "0.2,0.5,inf,0.9,,"

    def test_deterministic_bytes(self, tmp_path):
        scan = make_result(5, alphas=(0.5, 1.0))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(scan, str(p1))
        emit_csv(scan, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestSvg:
    def test_one_polyline_per_series_plus_reference(self, tmp_path):
        scan = make_result(5, alphas=(0.5, 0.7, 1.0, math.inf))
        path = tmp_path / "chart.svg"
        emit_svg(scan, str(path))
        text = path.read_text()
        assert text.count("<polyline") == 5  # 4 alpha series + exact reference
        assert "<svg" in text and 'version="1.1"' in text

    def test_single_series(self, tmp_path):
        scan = make_result(4, alphas=(0.5,))
        path = tmp_path / "one.svg"
        emit_svg(scan, str(path))
        assert path.read_text().count("<polyline") == 2  # series + reference

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg(ScanResult((), {"parameter_name": "d"}), str(tmp_path / "x.svg"))

    def test_deterministic_bytes(self, tmp_path):
        scan = make_result(6, alphas=(0.5, 1.0))
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(scan, str(p1))
        emit_svg(scan, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_axes_labeled(self, tmp_path):
        scan = make_result(3)
        path = tmp_path / "ax.svg"
        emit_svg(scan, str(path))
        text = path.read_text()
        assert "detected visibility threshold" in text
        assert ">p<" in text  # parameter axis label
