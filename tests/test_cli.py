import math
from pathlib import Path

import pytest

from lrpovm.cli import main
from lrpovm.curvefile import CSV_HEADER, write_curve_csv
from lrpovm.estimators import CurvePoint, sweep_curves
from lrpovm.svgchart import write_curve_svg

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidation:
    def test_samples_minimum(self, capsys):
        code, _, err = run(capsys, "bell", "--model", "simple-bell",
                           "--samples", "0")
        assert code == 1
        assert "--samples" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "bell", "--frobnicate")
        assert code == 1

    def test_bad_q(self, capsys):
        code, _, err = run(capsys, "bell", "--q", "1.5")
        assert code == 1
        assert "--q" in err

    def test_bad_copies(self, capsys):
        code, _, err = run(capsys, "curves", "--n-copies", "zero",
                           "--out", "x.csv")
        assert code == 1
        assert "--n-copies" in err

    @pytest.mark.parametrize("argv,flag", [
        (("--model", "ncopy-steering", "--n-copies", "inf"), "--n-copies"),
        (("--m-choices", "1"), "--m-choices"),
        # The default directions are the orthogonal triple.
        (("--m-choices", "4"), "--m-choices must be at most 3")])
    def test_bad_model_flag_named(self, capsys, argv, flag):
        code, _, err = run(capsys, "steer", *argv, "--samples", "1000")
        assert code == 1
        assert flag in err

    @pytest.mark.parametrize("argv,flag", [
        (("steer", "--model", "ncopy-tomography", "--m-choices", "2"),
         "--m-choices"),
        (("bell", "--model", "simple-bell", "--n-copies", "5", "--q", "0.5"),
         "--n-copies"),
        (("bell", "--model", "simple-bell", "--q", "0.5"), "--q"),
        (("steer", "--model", "ncopy-steering", "--q", "0.2"), "--q"),
        (("steer", "--model", "trusted-steering", "--n-copies", "2"),
         "--n-copies"),
        # Of several unread flags the first in parser order is named.
        (("steer", "--model", "trusted-steering", "--q", "0.5",
          "--n-copies", "5"), "--n-copies")])
    def test_unread_model_flag_rejected(self, capsys, argv, flag):
        """A flag the chosen --model does not read fails before any run,
        naming the flag, instead of being silently ignored."""
        code, out, err = run(capsys, *argv, "--samples", "1000")
        assert code == 1
        assert err.startswith(f"error: {flag} is not read by --model ")
        assert out == ""

    @pytest.mark.parametrize("argv,flag", [
        (("qubit", "--n-copies", "1"), "--n-copies"),
        (("qubit", "--n-copies", "13"), "--n-copies"),
        (("curves", "--n-copies", ",", "--out", "x.csv"), "--n-copies"),
        (("qubit", "--omega", "nan"), "--omega"),
        (("qubit", "--omega", "inf"), "--omega"),
        (("qubit", "--t-a", "nan"), "--t-a"),
        (("qubit", "--t-a", "inf"), "--t-a"),
        (("qubit", "--t-b", "nan"), "--t-b"),
        (("qubit", "--t-b", "inf"), "--t-b"),
        (("qubit", "--t-a", "2", "--t-b", "1"), "--t-a"),
        (("qubit", "--omega", "1e300", "--t-a", "1e10", "--t-b", "1e11"),
         "--omega"),
        (("bell", "--seed", "-1", "--samples", "2000"), "--seed"),
        (("curves", "--seed", "-3", "--out", "x.csv"), "--seed"),
        (("bell", "--samples", "2000", "--out", "/nonexistent/x.csv"),
         "--out"),
        (("steer", "--samples", "2000", "--out", "/nonexistent/x.csv"),
         "--out"),
        (("bell", "--samples", "2000", "--out", "."), "--out"),
        (("curves", "--samples", "2000", "--out", "/nonexistent/x.csv"),
         "--out"),
        (("curves", "--samples", "2000", "--out", "x.csv",
          "--svg", "/nonexistent/x.svg"), "--svg"),
        # passes the up-front check; the write itself fails (ENAMETOOLONG)
        (("curves", "--samples", "2000", "--out", "x" * 300 + ".csv"),
         "--out"),
        (("qubit", "--n-copies", "inf"), "--n-copies"),
        # an empty path names no file: rejected before any run
        (("bell", "--samples", "1000", "--out", ""), "--out"),
        (("steer", "--samples", "1000", "--out", ""), "--out"),
        (("curves", "--samples", "2000", "--out", ""), "--out"),
        (("curves", "--samples", "2000", "--out", "x.csv", "--svg", ""),
         "--svg")])
    def test_bad_input_flag_named(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and flag in err
        assert out == ""

    @pytest.mark.parametrize("argv,flag", [
        (("bell", "--samples", "abc"), "--samples"),
        (("bell", "--samples", "10"), "--samples"),
        (("bell", "--q", "1.5"), "--q"),
        (("bell", "--seed", "-1"), "--seed"),
        (("bell", "--workers", "0"), "--workers"),
        (("steer", "--m-choices", "x"), "--m-choices"),
        (("curves", "--n-copies", "zero", "--out", "x.csv"), "--n-copies"),
        (("qubit", "--omega", "nan"), "--omega"),
        (("bell", "--out", "/nonexistent/x.csv"), "--out"),
        (("curves", "--out", "x.csv", "--svg", "."), "--svg")])
    def test_type_error_names_flag_once(self, capsys, argv, flag):
        """argparse prefixes ``argument --flag:``; the message does not
        name the flag again."""
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: argument {flag}: ")
        assert err.count(flag) == 1

    def test_missing_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_missing_scenario_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "causality", str(tmp_path / "absent.txt"))
        assert code == 1
        assert "absent.txt" in err


class TestCausalityCommand:
    @pytest.mark.parametrize("name", ["nested_choices", "spacelike_choices"])
    def test_golden_output(self, capsys, name):
        code, out, _ = run(capsys, "causality", str(GOLDEN / f"{name}.txt"))
        assert code == 0
        assert out == (GOLDEN / f"{name}.expected").read_text()

    def test_malformed_scenario(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("choice a 0 0 0\n")
        code, _, err = run(capsys, "causality", str(bad))
        assert code == 1
        assert "line 1" in err

    def test_nonfinite_scenario_coordinate_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("choice a 0 0 0 0\nreadout r 1 0 nan 0\n")
        code, out, err = run(capsys, "causality", str(bad))
        assert (code, out) == (1, "")
        assert err == "error: line 2: event y must be finite, got nan\n"

    def test_unreadable_scenario_named(self, capsys, tmp_path):
        # A directory or a file that is not UTF-8 fails with exit 1 and a
        # message naming the path, not a traceback or a bare codec error.
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"\xff\xfe choice a 0 0 0\n")
        for path in (tmp_path, binary):
            code, out, err = run(capsys, "causality", str(path))
            assert code == 1 and out == ""
            assert err.startswith(f"error: cannot read scenario file {path}")


class TestBellCommand:
    def test_simple_bell_block(self, capsys):
        code, out, _ = run(capsys, "bell", "--model", "simple-bell",
                           "--samples", "20000", "--seed", "3")
        assert code == 0
        assert "S = " in out and "efficiency" in out

    def test_golden_output(self, capsys):
        code, out, _ = run(capsys, "bell", "--model", "simple-bell",
                           "--samples", "20000", "--seed", "3")
        assert code == 0
        assert out == (GOLDEN / "bell_simple.expected").read_text()

    def test_degenerate_exit(self, capsys):
        code, _, err = run(capsys, "bell", "--model", "chaotic-ball",
                           "--q", "0.95", "--samples", "2000")
        assert code == 2
        assert "degenerate" in err.lower()

    def test_pair_csv(self, capsys, tmp_path):
        out_file = tmp_path / "pairs.csv"
        code, _, _ = run(capsys, "bell", "--model", "simple-bell",
                         "--samples", "5000", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("pair_alice,pair_bob,")
        assert len(lines) == 5

    def test_out_write_failure_named(self, capsys, tmp_path):
        code, _, err = run(capsys, "bell", "--samples", "2000",
                           "--out", str(tmp_path / ("x" * 300 + ".csv")))
        assert code == 1
        assert err.startswith("error:") and "--out" in err

    def test_tomography_preselection_weight(self, capsys):
        # (N + 1) / 2^N at N = 3, read from the config.
        code, out, _ = run(capsys, "bell", "--model", "ncopy-tomography",
                           "--n-copies", "3", "--q", "0.2",
                           "--samples", "20000", "--seed", "3")
        assert code == 0
        assert out.splitlines()[-1] == "preselection weight: 0.5"

    def test_tomography_golden_output(self, capsys):
        code, out, _ = run(capsys, "bell", "--model", "ncopy-tomography",
                           "--n-copies", "3", "--q", "0.2",
                           "--samples", "20000", "--seed", "3")
        assert code == 0
        assert out == (GOLDEN / "bell_tomography.expected").read_text()


class TestSteerCommand:
    def test_trusted_block(self, capsys):
        code, out, _ = run(capsys, "steer", "--model", "trusted-steering",
                           "--samples", "20000", "--seed", "5")
        assert code == 0
        assert "T = " in out and "1/3" in out
        assert out == (GOLDEN / "steer_trusted.expected").read_text()

    def test_tomography_golden_output(self, capsys):
        # m_choices in the header, and no preselection line.
        code, out, _ = run(capsys, "steer", "--model", "ncopy-tomography",
                           "--n-copies", "2", "--q", "0.3",
                           "--samples", "20000", "--seed", "5")
        assert code == 0
        assert out == (GOLDEN / "steer_tomography.expected").read_text()

    def test_pair_csv(self, capsys, tmp_path):
        # Every (i, j) pair of the three choices, not only the matched ones.
        out_file = tmp_path / "pairs.csv"
        code, out, _ = run(capsys, "steer", "--samples", "5000",
                           "--out", str(out_file))
        assert code == 0
        assert f"wrote {out_file}" in out
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("pair_alice,pair_bob,")
        assert [ln.split(",")[:2] for ln in lines[1:]] == [
            [str(i), str(j)] for i in (1, 2, 3) for j in (1, 2, 3)]

    def test_empty_bins_exit(self, capsys):
        code, out, err = run(capsys, "steer", "--model", "chaotic-ball",
                             "--q", "0.999", "--samples", "1000",
                             "--seed", "1")
        assert code == 2
        assert "empty conditional bins" in err
        assert "T = " not in out


class TestQubitCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "qubit", "--omega", "1",
                           "--t-a", "1.5707963", "--t-b", "3.1415927")
        assert code == 0
        assert out.count("0.250000") >= 4      # sequential quarters
        assert "copies" in out
        assert "0.000000" in out               # restored projective zero

    def test_golden_output(self, capsys):
        code, out, _ = run(capsys, "qubit", "--omega", "1",
                           "--t-a", "1.5707963267948966",
                           "--t-b", "3.141592653589793")
        assert code == 0
        assert out == (GOLDEN / "qubit_demo.expected").read_text()


class TestCurvesCommand:
    def test_csv_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("curves", "--kind", "bell", "--n-copies", "1,inf",
                "--samples", "5000", "--seed", "7", "--workers", "2")
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_schema_and_order(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "curves", "--kind", "bell",
                         "--n-copies", "2,1", "--samples", "5000",
                         "--seed", "7", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        n_col = [ln.split(",")[0] for ln in lines[1:]]
        assert n_col == sorted(n_col, key=int)  # sorted by n_copies then q

    def test_svg_output(self, capsys, tmp_path):
        svg = tmp_path / "c.svg"
        code, _, _ = run(capsys, "curves", "--kind", "steering",
                         "--n-copies", "2", "--samples", "5000",
                         "--seed", "7", "--out", str(tmp_path / "c.csv"),
                         "--svg", str(svg))
        assert code == 0
        text = svg.read_text()
        assert "<polyline" in text
        assert "LR bound 0.3333" in text

    def test_svg_write_failure_named(self, capsys, tmp_path):
        code, _, err = run(capsys, "curves", "--samples", "2000",
                           "--out", str(tmp_path / "c.csv"),
                           "--svg", str(tmp_path / ("y" * 300 + ".svg")))
        assert code == 1
        assert err.startswith("error:") and "--svg" in err

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_write_failure_names_path_once(self, capsys, tmp_path, flag):
        """A dangling symlink fails the write; the error names the flag
        and the path once, with the system's reason."""
        link = tmp_path / "L"
        link.symlink_to(tmp_path / "missing" / "target")
        paths = {"--out": tmp_path / "c.csv", "--svg": tmp_path / "c.svg",
                 flag: link}
        code, _, err = run(capsys, "curves", "--samples", "2000",
                           *(str(x) for item in paths.items() for x in item))
        assert code == 1
        assert err.startswith(f"error: {flag}: cannot write {link}: ")
        assert err.count(str(link)) == 1

    @pytest.mark.parametrize("kind", ["bell", "steering"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_golden_csv(self, capsys, tmp_path, kind, workers):
        """The one-pass sweep of three copy counts, byte for byte."""
        out = tmp_path / "g.csv"
        code, _, _ = run(capsys, "curves", "--kind", kind,
                         "--n-copies", "1,2,inf", "--samples", "20000",
                         "--seed", "99", "--workers", workers,
                         "--out", str(out))
        assert code == 0
        assert out.read_bytes() == \
            (GOLDEN / f"curves_{kind}.expected").read_bytes()


class TestOracleCheck:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "oracle-check")
        assert code == 0
        assert "all oracle checks passed" in out
        assert "FAIL" not in out


class TestCurveFile:
    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_curve_csv([], tmp_path / "empty.csv")

    def test_single_point_file(self, tmp_path):
        point = CurvePoint(1, 0.0, 1.0, 2.0, 0.01, 1000)
        path = tmp_path / "one.csv"
        write_curve_csv([point], path)
        lines = path.read_text().splitlines()
        assert lines == [CSV_HEADER, "1,0,1,2,0.01,1000"]


class TestSvgChart:
    def test_empty_group_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_curve_svg({}, tmp_path / "x.svg")

    def test_bell_reference_line(self, tmp_path):
        curves = sweep_curves("bell", [1], [0.0, 0.3], 2_000, seed=1)
        path = tmp_path / "bell.svg"
        write_curve_svg(curves, path, kind="bell")
        assert "LR bound 2" in path.read_text()

    def test_infinite_curve_styled(self, tmp_path):
        curves = sweep_curves("bell", [1, math.inf], [0.0, 0.3], 2_000,
                              seed=1)
        path = tmp_path / "mix.svg"
        write_curve_svg(curves, path, kind="bell")
        assert 'stroke="blue"' in path.read_text()
