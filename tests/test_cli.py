"""Command-line behaviour: outputs, determinism, exit codes."""
from __future__ import annotations

import csv
import io
import os
import subprocess
import sys

import numpy as np
import pytest

import lorenzel as lz
from conftest import garbage_cycles
from lorenzel import cli, intervals

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def income_csv(tmp_path):
    rng = np.random.default_rng(17)
    rows = ["income,state"]
    for _ in range(80):
        rows.append(f"{rng.chisquare(3.0) * 10000:.2f},AZ")
    for _ in range(60):
        rows.append(f"{rng.chisquare(3.0) * 12000:.2f},CA")
    p = tmp_path / "income.csv"
    p.write_text("\n".join(rows) + "\n")
    return str(p)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCi:
    def test_table_shape_and_rows(self, income_csv, capsys):
        code, out, _ = run(["ci", "--input", income_csv, "--value-column", "income",
                            "--t", "0.25,0.5", "--methods", "el,tael"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "estimate", "method", "lower", "upper", "length"]
        assert [(r[0], r[2]) for r in rows[1:]] == [
            ("0.25", "el"), ("0.25", "tael"), ("0.5", "el"), ("0.5", "tael")]
        for r in rows[1:]:
            lo, hi, ln = float(r[3]), float(r[4]), float(r[5])
            assert lo < float(r[1]) < hi
            assert ln == pytest.approx(hi - lo, abs=1e-3)

    def test_reruns_byte_identical(self, income_csv, tmp_path, capsys):
        args = ["ci", "--input", income_csv, "--value-column", "income",
                "--t", "0.5", "--methods", "all"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stops_at_the_first_failing_interval(self, tmp_path, capsys, monkeypatch):
        # at t = 0.9 the TAEL set of this table is the whole line: the rows
        # before it are written, and no kind after it is searched.  Both t
        # are one group, searched kind by kind: EL at both t, TAEL at 0.5,
        # and AEL at both t, which the row (0.5, ael) before the failure needs
        table = tmp_path / "ten.csv"
        table.write_text("income\n" + "\n".join(["12", "31", "7", "45", "23", "18", "52",
                                                 "9", "27", "36"]) + "\n")
        searched = []  # per side searched, whether its kind is adjusted
        true_search = intervals._search_side

        def search_side(v, adjusted, *args):
            searched.append(adjusted)
            return true_search(v, adjusted, *args)

        monkeypatch.setattr(intervals, "_search_side", search_side)
        code, out, err = run(["ci", "--input", str(table), "--value-column", "income",
                              "--t", "0.5,0.9", "--methods", "el,tael,ael"], capsys)
        assert code == 4
        rows = list(csv.reader(io.StringIO(out)))
        assert [(r[0], r[2]) for r in rows] == [
            ("t", "method"), ("0.5", "el"), ("0.5", "tael"), ("0.5", "ael"), ("0.9", "el")]
        assert err.startswith("lorenzel ci: BracketFailure: tael log-ratio is bounded")
        assert searched == [False] * 4 + [True] * 6

    @pytest.mark.parametrize("methods", ["all", "tael,el,ael"])
    @pytest.mark.parametrize("per", [None, 2, 1])
    def test_a_t_grid_writes_the_rows_of_its_single_t_runs(self, income_csv, capsys,
                                                          monkeypatch, methods, per):
        # the t of one group (all three by default; two, then one, or one
        # at a time when _PASS_VALUES is cut) are searched together, kind by
        # kind: each row is the one a run at its t alone writes, bit for bit
        if per is not None:
            monkeypatch.setattr(cli, "_PASS_VALUES", per * 140)  # the table's 140 rows
        base = ["ci", "--input", income_csv, "--value-column", "income", "--raw",
                "--methods", methods]
        ts = ["0.2", "0.5", "0.8"]
        code, out, _ = run(base + ["--t", ",".join(ts)], capsys)
        assert code == 0
        want = "t,estimate,method,lower,upper,length\n"
        for t in ts:
            code, alone, _ = run(base + ["--t", t], capsys)
            assert code == 0
            want += alone.split("\n", 1)[1]
        assert out == want
        assert len(out.splitlines()) == 1 + 3 * (4 if methods == "all" else 3)

    def test_a_set_up_that_fails_ends_the_table_at_its_t(self, tmp_path, capsys):
        # 20 small values and 5 near 1e200: at t = 0.9 the plug-in variances
        # overflow, so the table holds the rows at t = 0.3, those of a run
        # at 0.3 alone, and stops there, though t = 0.5 after it has a set-up
        table = tmp_path / "huge_top.csv"
        table.write_text("income\n" + "\n".join([str(k) for k in range(1, 21)]
                                                 + [f"{k}e200" for k in range(1, 6)]) + "\n")
        base = ["ci", "--input", str(table), "--value-column", "income"]
        code, alone, _ = run(base + ["--t", "0.3"], capsys)
        assert code == 0 and len(alone.splitlines()) == 5
        code, out, err = run(base + ["--t", "0.3,0.9,0.5"], capsys)
        assert code == 4
        assert out == alone
        assert err.startswith("lorenzel ci: NonFinite: plug-in variances")
        code, _, _ = run(base + ["--t", "0.5"], capsys)
        assert code == 0

    def test_a_failure_leaves_no_reference_cycle(self, tmp_path, capsys, monkeypatch):
        # a set-up that fails, a whole-line interval and a search out of
        # steps end the table from no frame that still holds the failure, so
        # the table, the open file and the stack are freed with the call
        table = tmp_path / "ten.csv"
        table.write_text("income\n" + "\n".join(["12", "31", "7", "45", "23", "18", "52",
                                                 "9", "27", "36"]) + "\n")
        base = ["ci", "--input", str(table), "--value-column", "income",
                "--output", str(tmp_path / "out.csv")]
        codes = []
        for argv in (["--t", "0.5,0.1"], ["--t", "0.5,0.9", "--methods", "el,tael"]):
            assert garbage_cycles(lambda: codes.append(run(base + argv, capsys)[0])) == 0
        monkeypatch.setattr(intervals, "_MAX_PASSES", 2)
        assert garbage_cycles(lambda: codes.append(run(base + ["--t", "0.5"], capsys)[0])) == 0
        assert codes == [4] * 6

    def test_exhausted_search_is_exit_4(self, income_csv, capsys, monkeypatch):
        # ci raises the first failure of any kind, a search out of steps included
        monkeypatch.setattr(intervals, "_MAX_PASSES", 1)
        code, out, err = run(["ci", "--input", income_csv, "--value-column", "income",
                              "--t", "0.5", "--methods", "el"], capsys)
        assert code == 4 and out == "t,estimate,method,lower,upper,length\n"
        assert err.startswith("lorenzel ci: LorenzELError: lower endpoint search did not "
                              "converge in 1 steps")

    def test_group_with_one_usable_row_is_exit_3(self, income_csv, tmp_path, capsys):
        table = tmp_path / "one_nv.csv"
        table.write_text(open(income_csv).read() + "41250.00,NV\n")
        out = tmp_path / "out.csv"
        code, _, err = run(["ci", "--input", str(table), "--value-column", "income",
                            "--group-column", "state", "--group", "NV",
                            "--output", str(out)], capsys)
        assert code == 3
        assert err == f"lorenzel ci: {table}: need at least 2 usable rows, got 1\n"
        assert not out.exists()

    def test_group_filter(self, income_csv, capsys):
        code, out, _ = run(["ci", "--input", income_csv, "--value-column", "income",
                            "--group-column", "state", "--group", "CA",
                            "--t", "0.5", "--methods", "el"], capsys)
        assert code == 0 and out.count("\n") == 2

    def test_raw_gives_full_precision(self, income_csv, capsys):
        code, out, _ = run(["ci", "--input", income_csv, "--value-column", "income",
                            "--t", "0.5", "--methods", "el", "--raw"], capsys)
        est = out.splitlines()[1].split(",")[1]
        assert len(est.split(".")[1]) > 4

    def test_missing_file_is_exit_3(self, capsys):
        code, _, err = run(["ci", "--input", "/no/such/file.csv",
                            "--value-column", "income"], capsys)
        assert code == 3 and "cannot read" in err

    def test_non_utf8_input_is_exit_3(self, tmp_path, capsys):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"income\n1\n2\n\xff\n3\n")
        code, out, err = run(["ci", "--input", str(p), "--value-column", "income",
                              "--t", "0.5", "--methods", "el"], capsys)
        assert code == 3 and "cannot read" in err and out == ""

    def test_missing_column_is_exit_3(self, income_csv, capsys):
        code, _, err = run(["ci", "--input", income_csv,
                            "--value-column", "wages"], capsys)
        assert code == 3 and "wages" in err

    def test_degenerate_data_is_exit_4(self, tmp_path, capsys):
        p = tmp_path / "flat.csv"
        p.write_text("income\n" + "5\n" * 10)
        code, _, err = run(["ci", "--input", str(p), "--value-column", "income",
                            "--t", "0.5", "--methods", "el"], capsys)
        assert code == 4 and "DegenerateVariance" in err

    def test_tiny_alpha_stays_inside_the_hull(self, tmp_path, capsys):
        # chi2_crit(1e-17) is 73.5, a finite value, so the interval lies
        # strictly inside the hull [0, 23]
        p = tmp_path / "ten.csv"
        p.write_text("income\n12\n31\n7\n45\n23\n18\n52\n9\n27\n36\n")
        code, out, _ = run(["ci", "--input", str(p), "--value-column", "income", "--t", "0.5",
                            "--methods", "el", "--alpha", "1e-17"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "0.5,6.9000,el,0.0401,21.9888,21.9487"

    def test_overlong_cell_is_exit_3(self, tmp_path, capsys):
        p = tmp_path / "long.csv"
        p.write_text("income\n12\n31\n" + "7" * 200_000 + "\n45\n")
        code, out, err = run(["ci", "--input", str(p), "--value-column", "income",
                              "--t", "0.5", "--methods", "el"], capsys)
        assert code == 3 and "line 4" in err and out == ""

    def test_unknown_method_is_exit_2(self, income_csv, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["ci", "--input", income_csv, "--value-column", "income",
                      "--methods", "bootstrap"])
        assert e.value.code == 2

    @pytest.mark.parametrize("flag,val", [("--t", "0"), ("--t", "1"),
                                          ("--t", "junk"), ("--alpha", "1.0"),
                                          ("--alpha", "-0.1")])
    def test_bad_numbers_are_exit_2(self, income_csv, flag, val, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["ci", "--input", income_csv, "--value-column", "income",
                      flag, val])
        assert e.value.code == 2

    def test_unparsable_alpha_is_exit_2(self, income_csv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as e:
            cli.main(["ci", "--input", income_csv, "--value-column", "income",
                      "--alpha", "abc", "--output", str(out)])
        assert e.value.code == 2
        assert "bad alpha 'abc'" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_smoke_and_determinism(self, tmp_path, capsys):
        args = ["simulate", "--population", "chisquare:3", "--n", "12", "--t", "0.5",
                "--reps", "8", "--methods", "el", "--seed", "9", "--quiet"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header, row = a.read_text().splitlines()
        assert header == "population,n,t,method,bias,mse,coverage,mean_length,failures"
        assert row.startswith("chisquare(3),12,0.5,el,")

    def test_seed_changes_output(self, tmp_path, capsys):
        base = ["simulate", "--n", "12", "--t", "0.5", "--reps", "8",
                "--methods", "none", "--quiet"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(base + ["--seed", "1", "--output", str(a)])
        cli.main(base + ["--seed", "2", "--output", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_methods_none_leaves_interval_columns_empty(self, capsys):
        code, out, _ = run(["simulate", "--n", "10", "--t", "0.3", "--reps", "5",
                            "--methods", "none", "--quiet"], capsys)
        assert code == 0
        row = next(csv.reader(io.StringIO(out.splitlines()[1])))
        assert row[0] == "weibull(1,2)"
        assert row[3] == "" and row[6] == "" and row[7] == ""

    def test_progress_lines_on_stderr(self, capsys):
        code, out, err = run(["simulate", "--n", "10", "--t", "0.3,0.6",
                              "--reps", "3", "--methods", "el"], capsys)
        assert code == 0
        assert err.splitlines() == [
            "cell 1/2: n=10 t=0.3 method=el",
            "cell 2/2: n=10 t=0.6 method=el",
        ]

    def test_t_range_spec(self, capsys):
        code, out, _ = run(["simulate", "--n", "10", "--t", "0.2..0.6:0.2",
                            "--reps", "2", "--methods", "none", "--quiet"], capsys)
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [r[2] for r in rows] == ["0.2", "0.4", "0.6"]

    def test_negative_seed_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, _, err = run(["simulate", "--n", "10", "--t", "0.5", "--reps", "2", "--seed", "-1",
                            "--quiet", "--output", str(out)], capsys)
        assert code == 2
        assert "master_seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_1_is_exit_2_and_writes_nothing(self, tmp_path, capsys, workers):
        out = tmp_path / "out.csv"
        code, _, err = run(["simulate", "--n", "10", "--t", "0.5", "--reps", "2",
                            "--workers", workers, "--quiet", "--output", str(out)], capsys)
        assert code == 2
        assert "workers" in err
        assert not out.exists()

    def test_bad_population_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["simulate", "--population", "cauchy:0,1"])
        assert e.value.code == 2

    def test_population_outside_its_domain_is_exit_2(self, tmp_path, capsys):
        # Weibull(-1, 2) raises DomainError, and so does a parameter that is
        # not finite, which the parser reports as usage before the output opens
        out = tmp_path / "out.csv"
        for spec in ("weibull:-1,2", "skewnormal:nan,1,1", "skewnormal:inf,1,1",
                     "weibull:1,inf", "chisquare:inf"):
            with pytest.raises(SystemExit) as e:
                cli.main(["simulate", "--population", spec, "--n", "10", "--t", "0.5",
                          "--reps", "2", "--quiet", "--output", str(out)])
            assert e.value.code == 2
            assert f"bad population {spec!r}" in capsys.readouterr().err
            assert not out.exists()

    def test_skewnormal_with_a_large_shape_runs(self, capsys):
        # delta rounds to 1 there; the true ordinate is the half-normal's
        code, out, _ = run(["simulate", "--population", "skewnormal:0,1,1e8", "--n", "10",
                            "--t", "0.5", "--reps", "2", "--quiet"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 5


class TestCurve:
    def test_writes_group_files(self, income_csv, tmp_path, capsys):
        outdir = tmp_path / "curves"
        code, out, _ = run(["curve", "--input", income_csv, "--value-column",
                            "income", "--group-column", "state", "--groups",
                            "AZ,CA", "--grid-step", "0.25",
                            "--output-dir", str(outdir)], capsys)
        assert code == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["curve_ALL.csv", "curve_AZ.csv", "curve_CA.csv"]
        lines = (outdir / "curve_AZ.csv").read_text().splitlines()
        assert lines[0] == "t,lorenz,generalized,diagonal"
        assert [l.split(",")[0] for l in lines[1:]] == ["0.25", "0.5", "0.75"]

    def test_unknown_group_is_exit_3(self, income_csv, tmp_path, capsys):
        code, _, err = run(["curve", "--input", income_csv, "--value-column",
                            "income", "--group-column", "state", "--groups", "XX",
                            "--output-dir", str(tmp_path)], capsys)
        assert code == 3

    def test_nonpositive_mean_is_exit_4(self, tmp_path, capsys):
        p = tmp_path / "signed.csv"
        p.write_text("v\n-1\n1\n")
        code, out, err = run(["curve", "--input", str(p), "--value-column", "v",
                              "--output-dir", str(tmp_path / "curves")], capsys)
        assert code == 4
        assert "DomainError" in err and "positive mean" in err
        assert out == ""

    @pytest.mark.parametrize("b_rows, code", [(["-3", "-1"], 4), (["5"], 3)])
    def test_failing_group_writes_no_files(self, tmp_path, capsys, b_rows, code):
        # group B fails (mean -2, or a single row) after ALL and A succeed
        p = tmp_path / "groups.csv"
        rows = [f"{v},A" for v in ("10", "20", "30")] + [f"{v},B" for v in b_rows]
        p.write_text("v,g\n" + "\n".join(rows) + "\n")
        outdir = tmp_path / "curves"
        got, out, _ = run(["curve", "--input", str(p), "--value-column", "v",
                           "--group-column", "g", "--groups", "A,B",
                           "--output-dir", str(outdir)], capsys)
        assert got == code
        assert list(tmp_path.glob("curves/curve_*.csv")) == []
        assert out == ""

    @pytest.mark.parametrize("groups, first, second, name", [
        ("A B,A_B", "group 'A B'", "group 'A_B'", "curve_A_B.csv"),
        ("ALL", "the pooled table", "group 'ALL'", "curve_ALL.csv"),
    ], ids=["sanitized", "pooled"])
    def test_labels_sharing_a_file_are_exit_2(self, tmp_path, capsys, groups, first,
                                             second, name):
        # two labels whose sanitized file names coincide would overwrite one
        # another; nothing is written and both are named
        p = tmp_path / "groups.csv"
        rows = [f"{v},{g}" for g in ("A B", "A_B", "ALL") for v in ("10", "20", "30")]
        p.write_text("v,g\n" + "\n".join(rows) + "\n")
        outdir = tmp_path / "curves"
        code, out, err = run(["curve", "--input", str(p), "--value-column", "v",
                              "--group-column", "g", "--groups", groups,
                              "--output-dir", str(outdir)], capsys)
        assert code == 2
        assert first in err and second in err and name in err
        assert out == "" and not outdir.exists()

    def test_groups_without_column_is_exit_2(self, income_csv, tmp_path, capsys):
        code, _, err = run(["curve", "--input", income_csv, "--value-column",
                            "income", "--groups", "AZ",
                            "--output-dir", str(tmp_path)], capsys)
        assert code == 2

    def test_overflowing_sum_is_exit_4(self, tmp_path, capsys):
        # finite values whose running sum overflows
        p = tmp_path / "huge.csv"
        p.write_text("v\n1e308\n1.5e308\n1.7e308\n1.2e308\n")
        outdir = tmp_path / "curves"
        code, out, err = run(["curve", "--input", str(p), "--value-column", "v",
                              "--output-dir", str(outdir)], capsys)
        assert code == 4 and "NonFinite" in err
        assert out == "" and not outdir.exists()


@pytest.mark.parametrize("argv", [
    ["ci", "--group", "CA"],
    ["ci", "--methods", "none"],
    ["curve", "--groups", "CA"],
    ["curve", "--grid-step", "2"],
], ids=["ci-group", "ci-no-methods", "curve-groups", "curve-grid-step"])
def test_usage_errors_come_before_the_input(argv, tmp_path, capsys):
    # the input does not exist, which would be exit 3 once read
    code, out, err = run([*argv, "--input", str(tmp_path / "missing.csv"),
                          "--value-column", "income"], capsys)
    assert code == 2 and "missing.csv" not in err and out == ""


@pytest.mark.parametrize("command", ["ci", "simulate", "curve"])
def test_unwritable_output_is_exit_3(command, income_csv, tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    argv = {
        "ci": ["ci", "--input", income_csv, "--value-column", "income",
               "--t", "0.5", "--methods", "el", "--output", str(blocker / "x.csv")],
        "simulate": ["simulate", "--n", "10", "--t", "0.5", "--reps", "2",
                     "--methods", "el", "--output", str(blocker / "x.csv")],
        "curve": ["curve", "--input", income_csv, "--value-column", "income",
                  "--output-dir", str(blocker)],
    }[command]
    code, out, err = run(argv, capsys)
    assert code == 3 and "cannot write" in err
    # the destination is opened before any work, so simulate runs no cell
    assert out == "" and "cell " not in err


@pytest.mark.parametrize("argv", [
    ["ci", "--value-column", "income", "--t", "0.5", "--methods", "el"],
    ["simulate", "--n", "10", "--t", "0.5", "--reps", "2", "--methods", "el", "--quiet"],
], ids=["ci", "simulate"])
def test_closed_stdout_is_exit_141(argv, income_csv):
    # the reader of the pipe is gone before the first row is written, as
    # with ``| head -1`` on a long table: no traceback, exit 128 + SIGPIPE
    if argv[0] == "ci":
        argv = argv[:1] + ["--input", income_csv] + argv[1:]
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    try:
        proc = subprocess.run([sys.executable, "-m", "lorenzel.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_ci_and_curve_load_no_scipy(tmp_path):
    # in a fresh interpreter the package, ci and curve need only numpy; the
    # first population call loads SciPy and gives the same ordinate
    path = tmp_path / "ten.csv"
    path.write_text("income\n12\n31\n7\n45\n23\n18\n52\n9\n27\n36\n")
    base = ["--input", str(path), "--value-column", "income"]
    ci = ["ci", *base, "--t", "0.3..0.7", "--output", str(tmp_path / "ci.csv")]
    curve = ["curve", *base, "--output-dir", str(tmp_path)]
    script = "\n".join([
        "import sys",
        "import lorenzel as lz",
        "import lorenzel.cli",
        f"assert lorenzel.cli.main({ci}) == 0",
        f"assert lorenzel.cli.main({curve}) == 0",
        "loaded = [m for m in ('scipy', 'concurrent.futures.process') if m in sys.modules]",
        "assert not loaded, loaded",
        "print(repr(lz.true_ordinate(lz.ChiSquare(3.0), 0.5)))",
        "assert 'scipy' in sys.modules",
    ])
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) == lz.true_ordinate(lz.ChiSquare(3.0), 0.5)


@pytest.mark.parametrize("argv", [
    ["curve", "--grid-step", "1e-13", "--output-dir", "curves"],
    ["ci", "--t", "0.1..0.9:1e-300"],
    ["ci", "--t", "0.1..0.9:1e-320"],
])
def test_too_fine_grid_is_exit_2(argv, tmp_path):
    # the point count is worked out before the grid is built, so these
    # neither hang nor overflow; a fresh interpreter, so a hang can be cut
    path = tmp_path / "ten.csv"
    path.write_text("income\n12\n31\n7\n45\n23\n18\n52\n9\n27\n36\n")
    argv = [argv[0], "--input", str(path), "--value-column", "income", *argv[1:]]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "lorenzel.cli", *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "1000000 points" in proc.stderr
    assert not (tmp_path / "curves").exists()


def test_default_grids_are_unchanged(income_csv, tmp_path, monkeypatch, capsys):
    nine = [round(0.1 + i * 0.1, 12) for i in range(9)]
    for command in ("ci", "simulate"):
        argv = [command] + (["--input", "x", "--value-column", "v"] if command == "ci" else [])
        assert cli.build_parser().parse_args(argv).t == nine
    assert nine == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    grids = []
    true_curve = cli.curve
    monkeypatch.setattr(cli, "curve", lambda s, grid: grids.append(grid) or true_curve(s, grid))
    code, _, _ = run(["curve", "--input", income_csv, "--value-column", "income",
                      "--output-dir", str(tmp_path)], capsys)
    assert code == 0
    assert grids == [[round(k * 0.01, 12) for k in range(1, 100)]]


class TestParser:
    def test_no_command_is_exit_2(self):
        with pytest.raises(SystemExit) as e:
            cli.main([])
        assert e.value.code == 2

    def test_t_comma_list(self):
        assert cli._parse_t_spec("0.1,0.55") == [0.1, 0.55]

    def test_t_range_default_step(self):
        assert cli._parse_t_spec("0.1..0.4") == [0.1, 0.2, 0.3, 0.4]

    def test_population_specs(self):
        assert cli._parse_population("weibull:1,2") == cli.Weibull(1.0, 2.0)
        assert cli._parse_population("chisq:3") == cli.ChiSquare(3.0)
        assert cli._parse_population("skewnormal:1,3,5") == cli.SkewNormal(1, 3, 5)


def test_one_parser_per_process(income_csv, tmp_path):
    # main builds the parser once and reuses it; a call with --t and
    # --methods leaves nothing behind for a later default call, so each
    # writes the bytes that a fresh process writes
    assert cli.build_parser() is cli.build_parser()
    argv = ["ci", "--input", income_csv, "--value-column", "income"]
    first, second = (cli.build_parser().parse_args(argv).t for _ in range(2))
    assert first == second and first is not second
    calls = [["--t", "0.5", "--methods", "el"], []]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for i, extra in enumerate(calls):
        assert cli.main(argv + extra + ["--output", str(tmp_path / f"same{i}.csv")]) == 0
    for i, extra in enumerate(calls):
        alone = tmp_path / f"alone{i}.csv"
        proc = subprocess.run([sys.executable, "-m", "lorenzel.cli", *argv, *extra,
                               "--output", str(alone)], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / f"same{i}.csv").read_bytes() == alone.read_bytes(), extra
