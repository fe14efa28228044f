import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import staticpot.cli as cli
import staticpot.config as cfgmod
from staticpot.errors import ConfigError, IoError


class TestConfigParsing:
    def test_basic_lines_comments_and_blanks(self):
        text = """
        # run with a heavier mass
        mass = 2.5
        n_points = 12   # inline comment
        label = spherical run
        """
        cfg = cfgmod.parse_config_text(text)
        assert cfg == {"mass": "2.5", "n_points": "12", "label": "spherical run"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            cfgmod.parse_config_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            cfgmod.parse_config_text("just words\n")

    def test_bad_key_rejected(self):
        with pytest.raises(ConfigError, match="bad key"):
            cfgmod.parse_config_text("Mass = 1\n")
        with pytest.raises(ConfigError, match="bad key"):
            cfgmod.parse_config_text("2fast = 1\n")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            cfgmod.load_config(str(tmp_path / "nope.cfg"))

    def test_load_config_roundtrip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("mass = 3\n# comment only\ntol = 1e-8\n")
        assert cfgmod.load_config(str(p)) == {"mass": "3", "tol": "1e-8"}

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(
        st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
        st.text(alphabet=st.characters(blacklist_characters="#=\n\r",
                                       min_codepoint=33, max_codepoint=126),
                min_size=1, max_size=10),
        max_size=6))
    def test_parse_inverts_formatting(self, entries):
        text = "\n".join(f"{k} = {v}" for k, v in entries.items())
        assert cfgmod.parse_config_text(text) == {
            k: v.strip() for k, v in entries.items()}


class TestMergeAndCoercion:
    def test_unknown_key_lists_allowed(self):
        with pytest.raises(ConfigError) as err:
            cfgmod.merge_with_defaults({"masss": "1"}, {"mass": "1", "tol": "1e-6"},
                                       "demo")
        assert "masss" in str(err.value)
        assert "mass, tol" in str(err.value)

    def test_overrides_apply_on_top_of_defaults(self):
        merged = cfgmod.merge_with_defaults({"tol": "1e-3"},
                                            {"mass": "1", "tol": "1e-6"}, "demo")
        assert merged == {"mass": "1", "tol": "1e-3"}

    def test_coercers_accept_good_values(self):
        cfg = {"a": "2.5", "b": "7", "d": "1, 2.5, -3"}
        assert cfgmod.as_float(cfg, "a") == 2.5
        assert cfgmod.as_int(cfg, "b") == 7
        assert cfgmod.as_float_list(cfg, "d") == [1.0, 2.5, -3.0]

    @pytest.mark.parametrize("fn,val", [
        (cfgmod.as_float, "wide"),
        (cfgmod.as_int, "2.5"),
        (cfgmod.as_float_list, "1, two, 3"),
        (cfgmod.as_float, "nan"),
        (cfgmod.as_float, "-inf"),
        (cfgmod.as_float_list, "1, inf, 3"),
    ])
    def test_coercers_reject_bad_values(self, fn, val):
        with pytest.raises(ConfigError):
            fn({"k": val}, "k")


class TestKeyKinds:
    def test_every_default_has_a_kind_and_coerces(self):
        used = set()
        for suite, (defaults, _) in cli.SUITES.items():
            for key in defaults:
                assert key in cli.KEY_KINDS, f"{suite}.{key} has no declared kind"
                cli._coerce(defaults, key)
            used |= set(defaults)
        assert used == set(cli.KEY_KINDS)

    @pytest.mark.parametrize("key", ["tol", "rel_tol", "capacity_tol", "b_tol"])
    def test_tolerances_are_finite_and_nonnegative(self, key):
        assert cli.KEY_KINDS[key] == "nonneg"
        assert cli._coerce({key: "0"}, key) == 0.0
        assert cli._coerce({key: "1e-3"}, key) == 1e-3
        for bad in ("-1e-12", "-1", "inf", "nan"):
            with pytest.raises(ConfigError, match=key):
                cli._coerce({key: bad}, key)


class TestPlotData:
    def test_writes_rows_with_full_precision(self, tmp_path):
        cli.emit_plot_data(str(tmp_path), "data.csv", ("r", "value"),
                           [(1.0, 1.0 / 3.0), (2.0, 0.1)])
        lines = (tmp_path / "data.csv").read_text().strip().splitlines()
        assert lines[0] == "r,value"
        assert lines[1].split(",")[1] == "%.17g" % (1.0 / 3.0)

    def test_header_only_when_empty(self, tmp_path):
        cli.emit_plot_data(str(tmp_path), "empty.csv", ("a", "b"), [])
        assert (tmp_path / "empty.csv").read_text().strip() == "a,b"

    def test_unwritable_target_raises(self, tmp_path):
        with pytest.raises(IoError):
            cli.emit_plot_data(str(tmp_path / "no_such_dir"), "x.csv", ("a",), [])


class TestRunSuite:
    def test_unknown_suite(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown suite"):
            cli.run_suite("no_such_suite", {}, str(tmp_path))

    def test_report_shape_and_files(self, tmp_path):
        report = cli.run_suite("euclidean_affine", {"n_points": "10"},
                               str(tmp_path), seed=3)
        assert report["suite"] == "euclidean_affine"
        assert report["seed"] == 3
        assert report["passed"] is True
        assert report["n_failed"] == 0
        assert {c["name"] for c in report["checks"]} == {
            "curvature_zero", "static_residual_zero",
            "eigenframe_all_equal", "fd_backend_agreement"}
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk == report
        timing = json.loads((tmp_path / "timing.json").read_text())
        assert timing["suite"] == "euclidean_affine"
        assert timing["elapsed_seconds"] >= 0.0

    def test_same_seed_same_bytes(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        cli.run_suite("euclidean_affine", {"n_points": "10"}, str(a_dir), seed=7)
        cli.run_suite("euclidean_affine", {"n_points": "10"}, str(b_dir), seed=7)
        assert (a_dir / "report.json").read_bytes() == (b_dir / "report.json").read_bytes()

    def test_impossible_tolerance_fails_honestly(self, tmp_path):
        report = cli.run_suite("schwarzschild_static",
                               {"n_points": "4", "tol": "1e-25"},
                               str(tmp_path), seed=0)
        assert report["passed"] is False
        assert report["n_failed"] >= 1

    def test_library_error_becomes_failed_check(self, tmp_path):
        # a huge fit window makes the design matrix ill conditioned
        report = cli.run_suite("mass_fit", {"window": "1e9, 1e12"},
                               str(tmp_path), seed=0)
        assert report["passed"] is False
        failed = [c for c in report["checks"] if not c["passed"]]
        assert failed
        assert any("Error" in c["detail"] for c in failed)


class TestCommandLine:
    def test_verify_pass_exit_zero(self, tmp_path, capsys):
        rc = cli.main(["verify", "euclidean_affine", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS] euclidean_affine.curvature_zero" in out
        assert "0 failed" in out

    def test_verify_fail_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("n_points = 4\ntol = 1e-25\n")
        rc = cli.main(["verify", "schwarzschild_static",
                       "--config", str(cfg), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL]" in out

    def test_overflowing_transport_fails_without_warnings(self, tmp_path, capsys):
        # the transport equation overflows at epsilon = 1e300: its checks fail
        # with StepFailureError, and no RuntimeWarning reaches the user
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("epsilon = 1e300\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["verify", "growth_bound",
                           "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        details = {c["name"]: c["detail"] for c in report["checks"]}
        assert details["envelope_violations"].startswith(
            "StepFailureError: transport equation failed at t = ")
        # the extremal curve shares the trials' solve but fails with its own error,
        # and the separately solved tail curve still passes
        assert details["extremal_reproduction"] == (
            "StepFailureError: transport equation failed at t = 1: "
            "Required step size is less than spacing between numbers.")
        passed = {c["name"]: c["passed"] for c in report["checks"]}
        assert passed["tail_slope_bounded"]

    def test_partly_overflowing_trials_write_no_rows(self, tmp_path):
        # at epsilon = 1e4 trial 0 solves but a trial with a larger coefficient
        # overflows: the check fails before any of trial 0's rows is kept
        cfg = tmp_path / "partial.cfg"
        cfg.write_text("epsilon = 1e4\n")
        rc = cli.main(["verify", "growth_bound",
                       "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        details = {c["name"]: c["detail"] for c in report["checks"]}
        assert details["envelope_violations"].startswith(
            "StepFailureError: transport equation failed at t = 7474.37")
        lines = (tmp_path / "out" / "envelope.csv").read_text().splitlines()
        assert lines == ["t,solution,envelope"]

    def test_growth_suite_solves_twice(self, tmp_path, monkeypatch):
        # the trial curves and the extremal curve are one DOP853 solve, the
        # tail curve (its own span, no t_eval) the other
        from staticpot import geodesics

        calls = []
        solve_ivp = geodesics.solve_ivp
        monkeypatch.setattr(geodesics, "solve_ivp",
                            lambda *a, **k: calls.append(1) or solve_ivp(*a, **k))
        report = cli.run_suite("growth_bound", {}, str(tmp_path))
        assert report["passed"] and len(calls) == 2

    def test_schwarzschild_suite_takes_one_eigenframe_pass(self, tmp_path, monkeypatch):
        # simple_direction_radial and radial_eigenvalue_doubling share one pass
        from staticpot import identities

        calls = []
        ricci_eigenframe = identities.ricci_eigenframe
        monkeypatch.setattr(identities, "ricci_eigenframe",
                            lambda *a: calls.append(1) or ricci_eigenframe(*a))
        report = cli.run_suite("schwarzschild_static", {}, str(tmp_path))
        assert report["passed"] and len(calls) == 1

    def test_unknown_suite_exit_two(self, tmp_path, capsys):
        rc = cli.main(["verify", "bogus", "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("masss = 2\n")
        rc = cli.main(["verify", "euclidean_affine",
                       "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "allowed" in capsys.readouterr().err

    def test_missing_config_file_exit_two(self, tmp_path, capsys):
        rc = cli.main(["verify", "euclidean_affine",
                       "--config", str(tmp_path / "gone.cfg"),
                       "--out", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()

    def test_malformed_suite_value_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("coeffs = 1, 2\n")
        rc = cli.main(["verify", "euclidean_affine",
                       "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "coeffs" in capsys.readouterr().err

    @pytest.mark.parametrize("suite,line", [
        ("schwarzschild_static", "mass = 0"),
        ("schwarzschild_static", "mass = nan"),
        ("integral_identities", "n_polar = 1"),
        ("integral_identities", "r_inner = 50"),
        ("euclidean_affine", "n_points = 0"),
        ("anisotropy_limit", "masses ="),
        ("mass_fit", "window = 400, 50"),
        ("zero_set_gauss_bonnet", "bracket = -8"),
        ("flow_classify", "start = 0,0,0"),
        ("zero_set_gauss_bonnet", "radii = 50, 100, 500"),
        ("flow_classify", "start = 1, 2, 3, 4"),
        ("mass_fit", "window = 50, 50"),
        ("anisotropy_limit", "heights = ,"),
    ])
    def test_rejected_suite_value_exit_two(self, tmp_path, capsys, suite, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        rc = cli.main(["verify", suite, "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err
        assert "Traceback" not in err

    def test_check_body_value_error_fails_the_check(self, tmp_path, capsys):
        # two spheres are too few for the linear fit inside the check bodies
        cfg = tmp_path / "few.cfg"
        cfg.write_text("n_spheres = 2\n")
        rc = cli.main(["verify", "mass_fit", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "Traceback" not in captured.err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert any(c["detail"].startswith("ValueError: ")
                   for c in report["checks"] if not c["passed"])

    @pytest.mark.parametrize("suite,line,code,detail", [
        # an escape radius inside the start radius 0.6 could never be crossed
        ("flow_classify", "r_escape = 0.5", 2, "ValueError: r_escape 0.5 must exceed"),
        ("flow_classify", "r_escape = 0", 2, "ValueError: r_escape 0.0 must exceed"),
        ("flow_classify", "r_escape = -1", 2, "ValueError: r_escape -1.0 must exceed"),
        ("flow_classify", "r_escape = -5", 2, "ValueError: r_escape -5.0 must exceed"),
        # the flow never escapes, so there is no limit to compare
        ("flow_classify", "r_escape = 1e300", 1, "no limit: the flow ended as "),
        ("flow_classify", "mass = 1e-300", 1, "no limit: the flow ended as "),
        ("growth_bound", "t_end = 1", 2, "need t_end > r0"),
        ("growth_bound", "t_end = 0.5", 2, "need t_end > r0"),
        # the ratio check needs 0 < r_lo < r_hi (equal radii give the ratio 1 on
        # any metric) and ratio_factor >= 1 (below 1 no ratio could pass)
        ("huisken_yau", "r_lo = 0", 2, "need 0 < r_lo < r_hi, got r_lo = 0 and r_hi = 40"),
        ("huisken_yau", "r_hi = 0", 2, "need 0 < r_lo < r_hi, got r_lo = 20 and r_hi = 0"),
        ("huisken_yau", "r_lo = 40", 2, "need 0 < r_lo < r_hi, got r_lo = 40 and r_hi = 40"),
        ("huisken_yau", "r_lo = 50", 2, "need 0 < r_lo < r_hi, got r_lo = 50 and r_hi = 40"),
        ("huisken_yau", "ratio_factor = 0", 2, "need ratio_factor >= 1, got 0"),
        ("huisken_yau", "ratio_factor = 0.5", 2, "need ratio_factor >= 1, got 0.5"),
        ("euclidean_affine", "r_max = 1e300", 1, "OverflowError: "),
        ("schwarzschild_static", "r_max = 1e300", 1, "OverflowError: "),
        # the overflow is reported before f sees the coordinates, with no numpy warning
        pytest.param("conformal_double", "r_max = 1e300", 1, "OverflowError: ",
                     marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
        ("huisken_yau", "r_lo = 1e300", 2, "need 0 < r_lo < r_hi, got r_lo = 1e+300"),
        # the start point is checked while the suite is set up
        ("flow_classify", "start = 1e300, 0, 0", 2, "OverflowError: "),
        # a check with a negative tolerance could never pass
        ("euclidean_affine", "tol = -1", 2, "key 'tol': expected a number >= 0"),
        ("integral_identities", "rel_tol = -1e-5", 2, "key 'rel_tol': expected a number >= 0"),
        ("integral_identities", "capacity_tol = -0.02", 2,
         "key 'capacity_tol': expected a number >= 0"),
        ("flow_classify", "b_tol = -1", 2, "key 'b_tol': expected a number >= 0"),
        # the shell's inner sphere must lie inside the chart (floor m/2)
        ("integral_identities", "r_inner = 0.4", 2,
         "DomainError: schwarzschild(m=1): point (0.4, 0.0, 0.0) outside chart domain"),
        ("integral_identities", "r_inner = 0.5", 2,
         "DomainError: schwarzschild(m=1): point (0.5, 0.0, 0.0) outside chart domain"),
        # a sampling shell must be non-empty and inside the chart (floor m/2)
        ("schwarzschild_static", "r_min = 0.5", 2,
         "DomainError: schwarzschild(m=2): point (0.5, 0.0, 0.0) outside chart domain"),
        ("schwarzschild_static", "r_min = -3", 2,
         "need 0 < r_min <= r_max, got r_min = -3 and r_max = 10"),
        ("schwarzschild_static", "r_min = 20", 2,
         "need 0 < r_min <= r_max, got r_min = 20 and r_max = 10"),
        ("tod_identities", "r_min = 0.1", 2,
         "DomainError: schwarzschild(m=1.5): point (0.1, 0.0, 0.0) outside chart domain"),
        ("conformal_double", "r_min = 0.1", 2,
         "DomainError: schwarzschild(m=1): point (0.1, 0.0, 0.0) outside chart domain"),
        ("huisken_yau", "r_lo = 0.1", 2, "DomainError: schwarzschild(m=1): point ("),
        # the perturbed chart then starts at r ~ 3098
        ("huisken_yau", "perturb_amp = 1e6", 2, "DomainError: perturbed_as(m=1,terms=3): point ("),
        # three coefficients need three heights, inside the annulus, and nonzero masses
        ("anisotropy_limit", "heights = 100, 200", 2,
         "need at least three distinct heights inside (50, 1000), got heights = 100, 200"),
        ("anisotropy_limit", "heights = 100, 100, 200", 2,
         "need at least three distinct heights inside (50, 1000), got heights = 100, 100, 200"),
        ("anisotropy_limit", "heights = 10", 2,
         "need at least three distinct heights inside (50, 1000), got heights = 10"),
        ("anisotropy_limit", "heights = 10, 140, 200", 2,
         "need at least three distinct heights inside (50, 1000), got heights = 10, 140, 200"),
        ("anisotropy_limit", "masses = 0", 2, "ValueError: mass must be nonzero"),
        # each mass names a check limit_mass_<m:g>, and two equal names would
        # write one name twice into report.json
        ("anisotropy_limit", "masses = 2, 2", 2,
         "need masses with distinct check names limit_mass_<m:g>, got masses = 2.0, 2.0"),
        ("anisotropy_limit", "masses = 2, 2.0000001", 2,
         "need masses with distinct check names limit_mass_<m:g>, got masses = 2.0, 2.0000001"),
        # points are drawn from the cube [-r_max, r_max]^3, which must have room
        ("euclidean_affine", "r_max = -10", 2, "need r_max > 0, got r_max = -10"),
        ("euclidean_affine", "r_max = 0", 2, "need r_max > 0, got r_max = 0"),
        # geometric spacing needs lo > 0; the decay fit needs two distinct radii
        ("mass_fit", "window = 0, 400", 2, "need 0 < lo < hi, got window = 0, 400"),
        ("mass_fit", "window = -5, 400", 2, "need 0 < lo < hi, got window = -5, 400"),
        ("zero_set_gauss_bonnet", "radii = 50", 2,
         "need at least two radii, all distinct, got radii = 50"),
        ("zero_set_gauss_bonnet", "radii = 50, 50, 50", 2,
         "need at least two radii, all distinct, got radii = 50, 50, 50"),
        # Aitken's extrapolation of a 1/r error is sound on geometric radii only
        ("zero_set_gauss_bonnet", "radii = 50, 100, 490", 2,
         "ValueError: Aitken's extrapolation needs geometric radii, the last three in one "
         "ratio: got 50, 100, 490"),
    ])
    def test_boundary_value_exit_code(self, tmp_path, capsys, suite, line, code, detail):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(line + "\n")
        rc = cli.main(["verify", suite, "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == code
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("config error: ") and detail in err and err.count("\n") == 1
        else:
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            assert any(c["detail"].startswith(detail)
                       for c in report["checks"] if not c["passed"])

    def test_list_suites_names_and_keys(self, capsys):
        rc = cli.main(["list-suites"])
        out = capsys.readouterr().out
        assert rc == 0
        names = [line.split(":")[0] for line in out.strip().splitlines()]
        assert names == sorted(names)
        assert "schwarzschild_static" in names
        assert len(names) == len(cli.SUITES)
        line = next(l for l in out.splitlines()
                    if l.startswith("schwarzschild_static:"))
        assert "mass" in line and "tol" in line

    def test_dump_curvature_values(self, tmp_path, capsys):
        rc = cli.main(["dump-curvature", "--metric", "schwarzschild:mass=2",
                       "--points", "3,0,0", "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        lines = (tmp_path / "curvature.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, map(float, lines[1].split(","))))
        # closed form: (m/r^3) phi^-2 (delta - 3 rhat rhat) at (3, 0, 0)
        assert row["ric_11"] == pytest.approx(-1.0 / 12.0, rel=1e-10)
        assert row["ric_22"] == pytest.approx(1.0 / 24.0, rel=1e-10)
        assert row["ric_33"] == pytest.approx(1.0 / 24.0, rel=1e-10)
        assert abs(row["scalar"]) < 1e-10

    def test_dump_curvature_points_file(self, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        pts.write_text("3,0,0\n0,4,0\n")
        rc = cli.main(["dump-curvature", "--metric", "euclidean",
                       "--points-file", str(pts), "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        lines = (tmp_path / "curvature.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        vals = [float(v) for v in lines[1].split(",")[3:]]
        assert np.allclose(vals, 0.0, atol=1e-12)

    def test_dump_curvature_needs_points(self, tmp_path, capsys):
        rc = cli.main(["dump-curvature", "--out", str(tmp_path)])
        assert rc == 2
        assert "points" in capsys.readouterr().err

    def test_bad_metric_spec_exit_two(self, tmp_path, capsys):
        rc = cli.main(["dump-curvature", "--metric", "kerr",
                       "--points", "1,0,0", "--out", str(tmp_path)])
        assert rc == 2
        assert "metric" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--metric", "schwarzschild:mass=abc", "--points", "3,0,0"],
        ["--metric", "schwarzschild:mass=0", "--points", "3,0,0"],
        ["--metric", "schwarzschild:mass=nan", "--points", "3,0,0"],
        ["--points", "1,a,0"],
        ["--points", "nan,0,0"],
        ["--metric", "schwarzschild:mass=2", "--points", "0.1,0,0"],  # inside the horizon
        # the squared radius overflows
        ["--metric", "schwarzschild", "--points", "1e155,0,0"],
        ["--metric", "schwarzschild", "--backend", "fd", "--points", "1e155,0,0"],
        ["--metric", "euclidean", "--backend", "fd", "--points", "1e155,0,0"],
    ])
    def test_rejected_dump_input_exit_two(self, tmp_path, capsys, args):
        rc = cli.main(["dump-curvature", *args, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_bad_point_exit_two(self, tmp_path, capsys):
        rc = cli.main(["dump-curvature", "--points", "1,0",
                       "--out", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()


# Exit-code fuzz: boundary values for the numeric keys of the cheap suites. The
# sample sizes are pinned small so that every example runs in well under a second.
_CHEAP = {"euclidean_affine": {"n_points": "3"}, "schwarzschild_static": {"n_points": "3"},
          "tod_identities": {"n_points": "3"}, "growth_bound": {"n_trials": "1"},
          "huisken_yau": {}, "conformal_double": {"n_points": "3"}, "flow_classify": {},
          "mass_fit": {}}
_RELATED = (("r_min", "r_max"), ("r_lo", "r_hi"), ("r0", "t_end"))
_BOUNDARY = ("0", "-1", "1e-300", "1e300")


@st.composite
def _edge_configs(draw):
    suite = draw(st.sampled_from(sorted(_CHEAP)))
    defaults, cfg = cli.SUITES[suite][0], dict(_CHEAP[suite])
    keys = sorted(k for k in defaults if k not in cfg)
    pairs = ([("window", k) for k in keys if cli.KEY_KINDS[k] == "pair"]
             + [p for p in _RELATED if p[0] in defaults])
    singles = [k for k in keys if cli.KEY_KINDS[k] in ("float", "nonneg", "count")]
    if pairs and draw(st.booleans()):
        pair, swap = draw(st.sampled_from(pairs)), draw(st.booleans())
        if pair[0] == "window":
            lo, hi = (v.strip() for v in defaults[pair[1]].split(","))
            cfg[pair[1]] = f"{hi}, {lo}" if swap else f"{lo}, {lo}"
        else:
            a, b = pair
            cfg[b] = defaults[a]
            if swap:
                cfg[a] = defaults[b]
    else:
        cfg[draw(st.sampled_from(singles))] = draw(st.sampled_from(_BOUNDARY))
    return suite, cfg


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_edge_configs())
def test_boundary_values_keep_the_exit_code_contract(case):
    suite, cfg = case
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "edge.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["verify", suite, "--config", path,
                           "--out", os.path.join(out, "run")])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
