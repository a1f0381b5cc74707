import inspect
import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import devex
from devex import DevexError, NoConvergence, binary_kl
from devex.cli import build_parser, load_pair, main

from conftest import write_pair_file


@pytest.fixture(autouse=True)
def quiet_by_default(monkeypatch):
    """Each test starts at the default DEVEX_LOG level, whatever the shell
    sets."""
    monkeypatch.delenv("DEVEX_LOG", raising=False)


@pytest.fixture()
def schema():
    path = resources.files("devex").joinpath("schema/report.schema.json")
    return json.loads(path.read_text())


def run_json(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 0, err
    return json.loads(out)


class TestLoadPair:
    def test_missing_field(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text('{"alphabet": ["0", "1"], "p1": [0.4, 0.6]}')
        with pytest.raises(DevexError, match=r"missing field\(s\) p2"):
            load_pair(str(path))

    def test_unknown_field(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text('{"alphabet": ["0", "1"], "p1": [0.4, 0.6], '
                        '"p2": [0.6, 0.4], "p3": [1.0]}')
        with pytest.raises(DevexError, match=r"unknown field\(s\) p3"):
            load_pair(str(path))

    def test_syntax_error_reports_position(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text('{"alphabet": ["0", "1",\n "p1": }')
        with pytest.raises(DevexError, match=r"line \d+ column \d+"):
            load_pair(str(path))

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text('[1, 2, 3]')
        with pytest.raises(DevexError, match="top level"):
            load_pair(str(path))

    def test_pmf_errors_name_the_field(self, tmp_path):
        path = tmp_path / "pair.json"
        write_pair_file(path, ["0", "1"], [0.4, 0.5], [0.6, 0.4])
        with pytest.raises(DevexError, match="field p1"):
            load_pair(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DevexError, match="pair.json"):
            load_pair(str(tmp_path / "pair.json"))

    # (field named in the error, pair file body), by case name
    MALFORMED = [
        pytest.param("alphabet", '{"alphabet": 5, "p1": [0.4, 0.6], '
                     '"p2": [0.6, 0.4]}', id="alphabet-number"),
        pytest.param("alphabet", '{"alphabet": "ab", "p1": [0.4, 0.6], '
                     '"p2": [0.6, 0.4]}', id="alphabet-string"),
        pytest.param("alphabet", '{"alphabet": null, "p1": [0.4, 0.6], '
                     '"p2": [0.6, 0.4]}', id="alphabet-null"),
        pytest.param("p1", '{"alphabet": ["0", "1"], "p1": 0.5, '
                     '"p2": [0.6, 0.4]}', id="p1-number"),
        pytest.param("p1", '{"alphabet": ["0", "1"], "p1": {"0": 0.4}, '
                     '"p2": [0.6, 0.4]}', id="p1-object"),
        pytest.param("p2", '{"alphabet": ["0", "1"], "p1": [0.4, 0.6], '
                     '"p2": "x"}', id="p2-string"),
        pytest.param("p1", '{"alphabet": ["0", "1"], "p1": [0.4, "x"], '
                     '"p2": [0.6, 0.4]}', id="p1-string-entry"),
        pytest.param("p2", '{"alphabet": ["0", "1"], "p1": [0.4, 0.6], '
                     '"p2": [null, 0.4]}', id="p2-null-entry"),
        pytest.param("p2", '{"alphabet": ["0", "1"], "p1": [0.4, 0.6], '
                     '"p2": [0.6, true]}', id="p2-bool-entry"),
        pytest.param("p1", '{"alphabet": ["0", "1"], "p1": [0.4, [0.6]], '
                     '"p2": [0.6, 0.4]}', id="p1-array-entry"),
        pytest.param("p1", '{"alphabet": ["0", "1"], "p1": [1' + "0" * 400
                     + ', 0.6], "p2": [0.6, 0.4]}', id="p1-huge-integer"),
    ]

    @pytest.mark.parametrize("field,body", MALFORMED)
    def test_malformed_body_names_the_field(self, tmp_path, field, body):
        path = tmp_path / "pair.json"
        path.write_text(body)
        with pytest.raises(DevexError, match=f"field {field}") as info:
            load_pair(str(path))
        assert type(info.value) is DevexError

    @pytest.mark.parametrize("field,body", MALFORMED)
    def test_malformed_body_exit_2(self, capsys, tmp_path, field, body):
        path = tmp_path / "pair.json"
        path.write_text(body)
        rc = main(["exponents", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: DevexError:") and f"field {field}" in err


class TestExponentsCommand:
    def test_report_values(self, capsys, ex1_pair_file, schema):
        report = run_json(capsys, ["exponents", ex1_pair_file])
        jsonschema.validate(report, schema)
        res = report["results"]
        assert res["exact_pe1"] == pytest.approx(0.020410997260127628,
                                                 rel=1e-12)
        assert res["azuma_lb_pe1"] == pytest.approx(1 / 72, abs=1e-12)
        assert res["refined_lb_pe1"] == pytest.approx(binary_kl(0.5, 0.4),
                                                      abs=1e-12)
        assert res["gamma1"] == pytest.approx(2 / 3, abs=1e-12)
        assert res["gamma_inv1"] == pytest.approx(1.5, abs=1e-12)
        assert res["delta_i1j1"] == pytest.approx(1 / 6, abs=1e-12)
        assert res["improvement_i1j1"] >= 1.0
        assert report["inputs"]["lambda_upper"] == 0.0

    def test_threshold_flags(self, capsys, ex1_pair_file):
        report = run_json(capsys, ["exponents", ex1_pair_file,
                                   "--lambda-upper", "0.02",
                                   "--lambda-lower", "-0.02"])
        res = report["results"]
        assert res["exact_alpha1"] < res["exact_alpha2"]
        assert report["inputs"]["lambda_upper"] == 0.02

    def test_csv_output(self, capsys, ex1_pair_file):
        rc = main(["exponents", ex1_pair_file, "--csv"])
        out, _ = capsys.readouterr()
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        table = dict(line.split(",", 1) for line in lines[1:])
        assert float(table["exact_pe1"]) == pytest.approx(
            0.020410997260127628, rel=1e-12)

    def test_identical_pmfs_exit_2(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        write_pair_file(path, ["0", "1"], [0.5, 0.5], [0.5, 0.5])
        rc = main(["exponents", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "DegenerateIncrements" in err

    def test_overflowing_log_ratio_exit_2(self, capsys, tmp_path):
        # P2(b)/P1(b) = 0.5/5e-324 overflows, so ln(P2/P1) would be inf
        path = tmp_path / "pair.json"
        write_pair_file(path, ["a", "b"], [1.0, 5e-324], [0.5, 0.5])
        rc = main(["exponents", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: DomainError:")
        assert "symbol 'b'" in err
        assert "Traceback" not in err

    def test_inadmissible_threshold_exit_2(self, capsys, ex1_pair_file):
        rc = main(["exponents", ex1_pair_file, "--lambda-upper", "0.9"])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "InadmissibleThresholds" in err

    def test_no_convergence_exit_3(self, capsys, monkeypatch, ex1_pair_file):
        import devex.cli as cli

        def violated(pair, th):
            raise NoConvergence("exponent ordering violated for pe1")

        monkeypatch.setattr(cli, "compare_report", violated)
        rc = main(["exponents", ex1_pair_file])
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        assert err.startswith("error: NoConvergence:")


class TestBoundsCommand:
    @pytest.mark.parametrize("field,flags", [
        ("d", ["--d", "inf", "--sigma-sq", "1"]),
        ("sigma_sq", ["--d", "1", "--sigma-sq", "inf"]),
    ])
    def test_non_finite_parameter_exit_2(self, capsys, field, flags):
        rc = main(["bounds", *flags, "--n", "10", "--alpha", "0.1"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: DomainError: {field} = inf must be finite")
        assert "Traceback" not in err

    def test_zero_deviation(self, capsys, schema):
        report = run_json(capsys, ["bounds", "--d", "1", "--sigma-sq", "1",
                                   "--n", "10", "--alpha", "0"])
        jsonschema.validate(report, schema)
        res = report["results"]
        assert res["refined"] == 1.0
        assert res["azuma"] == 2.0
        assert res["delta"] == 0.0
        assert res["gamma"] == 1.0

    def test_unreachable_deviation(self, capsys, schema):
        report = run_json(capsys, ["bounds", "--d", "1", "--sigma-sq", "1",
                                   "--n", "10", "--alpha", "2"])
        jsonschema.validate(report, schema)
        res = report["results"]
        assert res["refined"] == 0.0
        assert res["quad_cubic_floor"] is None

    def test_refined_below_azuma(self, capsys):
        for alpha in ("0.1", "0.3", "0.5", "0.9"):
            res = run_json(capsys, ["bounds", "--d", "1", "--sigma-sq", "0.5",
                                    "--n", "20", "--alpha", alpha])["results"]
            assert res["refined"] <= res["azuma"] + 1e-15

    def test_two_sided_doubles(self, capsys):
        argv = ["bounds", "--d", "1", "--sigma-sq", "0.5", "--n", "20",
                "--alpha", "0.3"]
        one = run_json(capsys, argv)["results"]["refined"]
        two = run_json(capsys, argv + ["--sided", "two"])["results"]["refined"]
        assert two == pytest.approx(2.0 * one, rel=1e-15)

    def test_jump_bounds_are_not_materialised(self, capsys):
        # a list of 10**6 jump bounds would take 8 MB
        tracemalloc.start()
        try:
            run_json(capsys, ["bounds", "--d", "1", "--sigma-sq", "0.5",
                              "--n", "1000000", "--alpha", "0.001"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_huge_n_takes_one_jump(self, capsys):
        # n jumps d enter as one jump d sqrt(n): no n-step loop, no drift
        n, d, alpha = 10 ** 9, 1.0, 0.001
        t0 = time.perf_counter()
        res = run_json(capsys, ["bounds", "--d", str(d), "--sigma-sq", "0.5",
                                "--n", str(n), "--alpha", str(alpha)])["results"]
        assert time.perf_counter() - t0 < 2.0
        delta = alpha / d
        assert res["azuma"] == pytest.approx(
            2.0 * math.exp(-n * delta * delta / 2.0), rel=1e-12, abs=0.0)

    def test_azuma_matches_mpmath(self, capsys):
        # summing n rounded d**2 terms drifted to 3.3e-14 relative here
        mpmath = pytest.importorskip("mpmath")
        n, d, alpha = 1000, 0.7, 0.05
        res = run_json(capsys, ["bounds", "--d", str(d), "--sigma-sq", "0.1",
                                "--n", str(n), "--alpha", str(alpha)])["results"]
        with mpmath.workdps(40):
            r = mpmath.mpf(alpha) * n
            want = 2 * mpmath.exp(-r * r / (2 * n * mpmath.mpf(d) ** 2))
            assert abs(res["azuma"] - want) <= 1e-15 * want

    def test_huge_jump_bound(self, capsys, schema):
        # d**2 and (d sqrt(n))**2 overflow, yet gamma = 1e-100 and the Azuma
        # exponent n (alpha/d)**2 / 2 = 5 are ordinary numbers
        report = run_json(capsys, ["bounds", "--d", "1e200", "--sigma-sq",
                                   "1e300", "--n", "10", "--alpha", "1e200"])
        jsonschema.validate(report, schema)
        res = report["results"]
        assert abs(res["gamma"] - 1e-100) <= math.ulp(1e-100)
        assert all(math.isfinite(v) for v in res.values())
        assert res["azuma"] == pytest.approx(2.0 * math.exp(-5.0), rel=1e-14)

    def test_overflowing_deviation_gives_zero(self, capsys):
        # (alpha n)**2 overflows; delta > 1 is an impossible deviation
        res = run_json(capsys, ["bounds", "--d", "1", "--sigma-sq", "1",
                                "--n", "1", "--alpha", "1e200"])["results"]
        assert res["azuma"] == 0.0
        assert res["refined"] == 0.0

    def test_underflowing_gamma_squared(self, capsys, schema):
        # gamma = 1e-200, so gamma**2 underflows to 0 in the floor's cubic
        # term, which is below every float: the floor reads -inf
        report = run_json(capsys, ["bounds", "--d", "1e200", "--sigma-sq",
                                   "1e200", "--n", "10", "--alpha", "1e200"])
        jsonschema.validate(report, schema)
        res = report["results"]
        assert res["gamma"] == 1e-200
        assert res["quad_cubic_floor"] == "-inf"
        assert res["azuma"] == pytest.approx(2.0 * math.exp(-5.0), rel=1e-14)

    def test_subnormal_squares(self, capsys):
        # d**2 = 1e-320 and gamma**2 = 1e-316 are subnormal, short of bits:
        # the plain quotients read gamma 0.5 and a floor of 5.0e-159
        res = run_json(capsys, ["bounds", "--d", "1e-160", "--sigma-sq", "5e-321",
                                "--n", "10", "--alpha", "1e-161"])["results"]
        want = Fraction(5e-321) / Fraction(1e-160) ** 2
        assert res["gamma"] == pytest.approx(float(want), rel=1e-15)   # 0.49999443
        res = run_json(capsys, ["bounds", "--d", "1", "--sigma-sq", "1e-158",
                                "--n", "10", "--alpha", "1e-158"])["results"]
        g = Fraction(1e-158)    # delta = gamma
        want = g * g / (2 * g) - g ** 3 / (6 * g * g * (1 + g))
        assert res["quad_cubic_floor"] == pytest.approx(float(want), rel=1e-14)

    def test_variance_above_span_exit_2(self, capsys):
        rc = main(["bounds", "--d", "1", "--sigma-sq", "1.5", "--n", "10",
                   "--alpha", "0"])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "DomainError" in err

    def test_bad_n_exit_2(self, capsys):
        rc = main(["bounds", "--d", "1", "--sigma-sq", "1", "--n", "0",
                   "--alpha", "0"])
        assert rc == 2
        assert "DomainError" in capsys.readouterr().err


class TestFisherCommand:
    def test_bernoulli_half(self, capsys, schema):
        report = run_json(capsys, ["fisher", "--family", "bernoulli",
                                   "--theta", "0.5"])
        jsonschema.validate(report, schema)
        res = report["results"]
        assert res["j"] == pytest.approx(4.0, abs=1e-9)
        assert res["divergence_limit"] == pytest.approx(2.0, rel=0.01)
        assert res["a_theta"] == pytest.approx(1.0, rel=0.02)
        assert len(res["offsets"]) == 3

    def test_ternary_factor(self, capsys, schema):
        report = run_json(capsys, ["fisher", "--family", "ternary",
                                   "--alpha", "0.9", "--theta", "1.0"])
        jsonschema.validate(report, schema)
        assert report["results"]["a_theta"] == pytest.approx(0.1, rel=0.02)

    def test_alpha_rejected_for_bernoulli(self, capsys):
        rc = main(["fisher", "--family", "bernoulli", "--theta", "0.5",
                   "--alpha", "0.9"])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "--alpha" in err

    def test_alpha_required_for_ternary(self, capsys):
        rc = main(["fisher", "--family", "ternary", "--theta", "1.0"])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "--alpha" in err

    def test_theta_outside_domain(self, capsys):
        rc = main(["fisher", "--family", "bernoulli", "--theta", "1.5"])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "OutOfDomain" in err

    def test_bad_offsets(self, capsys):
        rc = main(["fisher", "--family", "bernoulli", "--theta", "0.5",
                   "--offsets", "0.01,zzz"])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "--offsets" in err

    def test_csv_flattens_list_results(self, capsys):
        argv = ["fisher", "--family", "bernoulli", "--theta", "0.5"]
        res = run_json(capsys, argv)["results"]
        rc = main(argv + ["--csv"])
        out, _ = capsys.readouterr()
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        table = dict(line.split(",", 1) for line in lines[1:])
        # one row per list entry, keyed by its index
        for key in ("offsets", "chernoff_ratio"):
            assert [float(table[f"{key}.{i}"]) for i in range(3)] == res[key]
            assert f"{key}.3" not in table and key not in table
        assert float(table["j"]) == res["j"]

    def test_duplicate_offsets(self, capsys):
        rc = main(["fisher", "--family", "bernoulli", "--theta", "0.5",
                   "--offsets", "0.01,0.01"])
        assert rc == 2


class TestSimulateCommand:
    def test_thread_count_is_invisible(self, capsys, ex1_pair_file):
        argv = ["simulate", ex1_pair_file, "--n", "20", "--trials", "400",
                "--seed", "7"]
        main(argv + ["--threads", "1"])
        first, _ = capsys.readouterr()
        main(argv + ["--threads", "4"])
        second, _ = capsys.readouterr()
        assert first != ""
        assert first == second

    def test_zero_threads_exit_2(self, capsys, ex1_pair_file):
        rc = main(["simulate", ex1_pair_file, "--n", "20", "--trials", "400",
                   "--threads", "0"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "DomainError" in err

    def test_rerun_is_byte_identical(self, capsys, ex1_pair_file):
        argv = ["simulate", ex1_pair_file, "--n", "20", "--trials", "400",
                "--seed", "7", "--threads", "2"]
        main(argv)
        first, _ = capsys.readouterr()
        main(argv)
        second, _ = capsys.readouterr()
        assert first == second

    def test_binary_exact_block(self, capsys, ex1_pair_file, schema):
        report = run_json(capsys, ["simulate", ex1_pair_file, "--n", "10",
                                   "--trials", "2000", "--seed", "2"])
        jsonschema.validate(report, schema)
        res = report["results"]
        exact = res["exact"]
        assert exact is not None
        for k in ("alpha1", "alpha2", "beta1", "beta2"):
            est = res[k]
            assert est["ci_low"] <= exact[k] <= est["ci_high"]
        assert exact["pe1"] == pytest.approx(
            0.5 * exact["alpha1"] + 0.5 * exact["beta1"], rel=1e-12)

    def test_second_mass_of_one(self, capsys, tmp_path, schema):
        # 1e-300 + 1.0 rounds to 1.0, so P1 stores P(b) = 1.0 exactly and
        # log1p(-P(b)) is out of its domain; alpha1 = 1 - P(b)**5 = 5e-300
        path = write_pair_file(tmp_path / "pair.json", ["a", "b"],
                               [1e-300, 1.0], [0.5, 0.5])
        report = run_json(capsys, ["simulate", path, "--n", "5",
                                   "--trials", "10", "--seed", "1"])
        jsonschema.validate(report, schema)
        exact = report["results"]["exact"]
        assert all(math.isfinite(v) for v in exact.values())
        assert exact["alpha1"] == pytest.approx(5e-300, rel=1e-12)

    def test_ternary_has_no_exact_block(self, capsys, tmp_path, schema):
        path = tmp_path / "pair.json"
        write_pair_file(path, ["a", "b", "c"], [0.2, 0.3, 0.5],
                        [0.5, 0.3, 0.2])
        report = run_json(capsys, ["simulate", str(path), "--n", "10",
                                   "--trials", "200", "--seed", "1"])
        jsonschema.validate(report, schema)
        assert report["results"]["exact"] is None

    def test_zero_count_encodes_infinity(self, capsys, ex1_pair_file, schema):
        report = run_json(capsys, ["simulate", ex1_pair_file, "--n", "4000",
                                   "--trials", "50", "--seed", "2"])
        jsonschema.validate(report, schema)
        est = report["results"]["alpha1"]
        assert est["value"] == 0.0
        assert est["ci_high"] == pytest.approx(3.0 / 50, rel=1e-12)
        assert est["empirical_exponent"] == "inf"

    @pytest.mark.parametrize("trials", ["1", "2"])
    def test_few_trials_meet_the_schema(self, capsys, ex1_pair_file, schema,
                                        trials):
        # Wilson ends stay in [0, 1] even where 3/trials exceeds 1
        for seed in ("0", "1", "2", "3"):
            report = run_json(capsys, ["simulate", ex1_pair_file, "--n", "5",
                                       "--trials", trials, "--seed", seed])
            jsonschema.validate(report, schema)

    def test_prior_flag(self, capsys, ex1_pair_file):
        report = run_json(capsys, ["simulate", ex1_pair_file, "--n", "10",
                                   "--trials", "500", "--seed", "3",
                                   "--pi1", "0.25"])
        res = report["results"]
        want = 0.25 * res["alpha1"]["value"] + 0.75 * res["beta1"]["value"]
        assert res["pe1"]["value"] == pytest.approx(want, rel=1e-12)

    def test_zero_trials_exit_2(self, capsys, ex1_pair_file):
        rc = main(["simulate", ex1_pair_file, "--n", "10", "--trials", "0"])
        _, err = capsys.readouterr()
        assert rc == 2
        assert "DomainError" in err

    def test_csv_flattens_nested_results(self, capsys, ex1_pair_file):
        rc = main(["simulate", ex1_pair_file, "--n", "10", "--trials", "100",
                   "--seed", "1", "--csv"])
        out, _ = capsys.readouterr()
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        table = dict(line.split(",", 1) for line in lines[1:])
        assert "alpha1.value" in table
        assert "counts.alpha1" in table
        assert float(table["alpha1.value"]) == pytest.approx(
            int(table["counts.alpha1"]) / 100)


class TestReportSchema:
    def test_inputs_are_pinned_per_command(self, capsys, ex1_pair_file,
                                           schema):
        report = run_json(capsys, ["simulate", ex1_pair_file, "--n", "10",
                                   "--trials", "20", "--threads", "2"])
        jsonschema.validate(report, schema)
        extra = json.loads(json.dumps(report))
        extra["inputs"]["threads"] = 2
        missing = json.loads(json.dumps(report))
        del missing["inputs"]["pi1"]
        for bad in (extra, missing):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, schema)


class TestLogging:
    def test_stdout_stays_pure_json_under_info(self, capsys, ex1_pair_file,
                                               monkeypatch):
        monkeypatch.setenv("DEVEX_LOG", "info")
        rc = main(["exponents", ex1_pair_file])
        out, err = capsys.readouterr()
        assert rc == 0
        json.loads(out)
        assert "loaded pair" in err

    @pytest.mark.parametrize("level", ["info", "debug"])
    def test_exact_lines(self, capsys, ex1_pair_file, monkeypatch, level):
        # debug prints what info prints: nothing logs at debug
        monkeypatch.setenv("DEVEX_LOG", level)
        loaded = f"INFO devex.cli: loaded pair from {ex1_pair_file}: 2 symbols\n"
        assert main(["exponents", ex1_pair_file]) == 0
        assert capsys.readouterr().err == loaded
        assert main(["simulate", ex1_pair_file, "--n", "20", "--trials",
                     "300"]) == 0
        assert capsys.readouterr().err == (
            loaded + "INFO devex.cli: simulated 300 trials per hypothesis "
                     "at n=20 on one thread\n")

    def test_quiet_by_default(self, capsys, ex1_pair_file):
        rc = main(["exponents", ex1_pair_file])
        _, err = capsys.readouterr()
        assert rc == 0
        assert err == ""

    def test_bogus_level_warns_and_continues(self, capsys, ex1_pair_file,
                                             monkeypatch):
        monkeypatch.setenv("DEVEX_LOG", "chatty")
        rc = main(["exponents", ex1_pair_file])
        out, err = capsys.readouterr()
        assert rc == 0
        json.loads(out)
        assert "DEVEX_LOG" in err


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_sided_value(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bounds", "--d", "1", "--sigma-sq",
                                       "1", "--n", "10", "--alpha", "0",
                                       "--sided", "three"])


class TestEntryPoint:
    @pytest.mark.skipif(shutil.which("devex") is None,
                        reason="no devex console script on PATH; "
                               "run `pip install -e .` to install it")
    def test_installed_script(self, ex1_pair_file):
        exe = shutil.which("devex")
        proc = subprocess.run([exe, "exponents", ex1_pair_file],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["command"] == "exponents"
        assert math.isclose(report["results"]["exact_pe1"],
                            0.020410997260127628, rel_tol=1e-12)

    def test_declared_script_target_runs(self, ex1_pair_file):
        # checks the [project.scripts] wiring without an installed script:
        # the child does what pip's console-script wrapper does
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts == {"devex": "devex.cli:main"}
        module, func = scripts["devex"].split(":")
        wrapper = f"import sys\nfrom {module} import {func}\nsys.exit({func}())"
        env = dict(os.environ,
                   PYTHONPATH=str(Path(devex.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", wrapper, "exponents",
                               ex1_pair_file],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["command"] == "exponents"
        assert math.isclose(report["results"]["exact_pe1"],
                            0.020410997260127628, rel_tol=1e-12)


class TestPackageApi:
    def test_every_listed_name_resolves(self):
        for name in devex.__all__:
            getattr(devex, name)

    def test_all_lists_every_reexport(self):
        import devex.montecarlo

        bound = {name for name, obj in vars(devex).items()
                 if not name.startswith("_") and not inspect.ismodule(obj)}
        forwarded = {name for name, obj in vars(devex.montecarlo).items()
                     if not name.startswith("_")
                     and getattr(obj, "__module__", None) == "devex.montecarlo"}
        assert len(forwarded) == 11
        assert set(devex.__all__) == bound | forwarded | {"__version__"}

    def test_forwarded_name_is_the_montecarlo_object(self):
        import devex.montecarlo

        assert devex.simulate_test is devex.montecarlo.simulate_test

    def test_forwarded_name_is_looked_up_on_each_access(self, monkeypatch):
        # a wrapper installed on devex.montecarlo, then removed, must show
        # through devex both times: the package may not cache the object
        import devex.montecarlo

        original = devex.montecarlo.exact_binary_tail
        sentinel = object()
        monkeypatch.setattr(devex.montecarlo, "exact_binary_tail", sentinel)
        assert devex.exact_binary_tail is sentinel
        monkeypatch.undo()
        assert devex.exact_binary_tail is original

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            devex.no_such_name


class TestImportCost:
    """Each child compares sys.modules before and after its work, so the
    check holds whatever the interpreter's site hooks preload."""

    @staticmethod
    def _new_modules(body, arg):
        child = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            f"{body}"
            "print(json.dumps({'result': result, 'new': sorted(\n"
            "    m for m in ('dataclasses', 'inspect', 'logging', 'numpy', 'scipy')\n"
            "    if m in set(sys.modules) - before)}))\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=str(Path(devex.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", child, json.dumps(arg)],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_cli_runs_without_numpy_or_scipy(self, ex1_pair_file):
        # only simulate needs numpy; scipy is not a dependency, the
        # records are named tuples, so dataclasses (and the inspect it
        # pulls in) would be pure import cost, and diagnostics are plain
        # stderr lines, so logging would be too
        runs = [
            ["exponents", ex1_pair_file],
            ["bounds", "--d", "1", "--sigma-sq", "0.5", "--n", "20",
             "--alpha", "0.3"],
            ["fisher", "--family", "ternary", "--alpha", "0.9",
             "--theta", "1.0"],
        ]
        body = ("import devex.cli\n"
                "result = [devex.cli.main(argv) for argv in "
                "json.loads(sys.argv[1])]\n")
        assert self._new_modules(body, runs) == {"result": [0, 0, 0], "new": []}

    def test_simulator_loads_no_dataclasses(self):
        body = ("from devex import (ZERO_THRESHOLDS, HypothesisPair, SimConfig,\n"
                "                   make_pmf, simulate_test)\n"
                "p, q = (make_pmf('01', w) for w in json.loads(sys.argv[1]))\n"
                "result = simulate_test(HypothesisPair(p, q), SimConfig(\n"
                "    n=10, trials=20, seed=1, thresholds=ZERO_THRESHOLDS)).trials\n")
        result = self._new_modules(body, [[0.4, 0.6], [0.6, 0.4]])
        assert result["result"] == 20 and "numpy" in result["new"]
        assert "dataclasses" not in result["new"]
