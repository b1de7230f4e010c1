"""Income CSV ingestion and Lorenz curve evaluation."""
from __future__ import annotations

import io
import warnings

import numpy as np
import pytest

import lorenzel as lz


def write(tmp_path, text, name="incomes.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path, "county,state,income\na,AZ,100\nb,CA,250\nc,AZ,175\n")
        table = lz.load_csv(path, "income", "state")
        assert table.values.tolist() == [100.0, 250.0, 175.0]
        assert table.groups == ("AZ", "CA", "AZ")
        assert table.dropped == 0
        assert table.group_labels() == ("AZ", "CA")

    def test_drops_bad_rows_with_warning(self, tmp_path):
        path = write(tmp_path, "income,state\n100,AZ\n,CA\nn/a,NV\n250,AZ\ninf,CA\n")
        with pytest.warns(UserWarning, match="dropped 3"):
            table = lz.load_csv(path, "income")
        assert table.values.tolist() == [100.0, 250.0]
        assert table.dropped == 3
        assert table.groups is None

    def test_short_rows(self, tmp_path):
        # a row that stops before the value cell is dropped; one that stops
        # before the group cell keeps its value with no label
        path = write(tmp_path, "county,income,state\na,100,AZ\nb\nc,250\nd,175,CA\n")
        with pytest.warns(UserWarning, match="dropped 1"):
            table = lz.load_csv(path, "income", "state")
        assert table.values.tolist() == [100.0, 250.0, 175.0]
        assert table.groups == ("AZ", None, "CA")
        assert table.dropped == 1

    def test_blank_lines_are_not_rows(self, tmp_path):
        path = write(tmp_path, "income,state\n\n100,AZ\n\n\n250,CA\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = lz.load_csv(path, "income", "state")
        assert table.values.tolist() == [100.0, 250.0]
        assert table.groups == ("AZ", "CA")
        assert table.dropped == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(lz.FileError):
            lz.load_csv(str(tmp_path / "nope.csv"), "income")

    def test_overlong_cell_is_a_file_error(self, tmp_path):
        # the csv module refuses a cell longer than its field size limit
        path = write(tmp_path, "income,note\n100,a\n250," + "x" * 200_000 + "\n175,b\n")
        with pytest.raises(lz.FileError, match=r"incomes\.csv, line 3"):
            lz.load_csv(path, "income")

    def test_missing_columns(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(lz.SchemaError):
            lz.load_csv(path, "income")
        with pytest.raises(lz.SchemaError):
            lz.load_csv(path, "a", "state")

    def test_filter(self, tmp_path):
        path = write(tmp_path, "income,state\n1,AZ\n2,CA\n3,AZ\n4,NV\n")
        table = lz.load_csv(path, "income", "state")
        az = table.filter("AZ")
        assert az.values.tolist() == [1.0, 3.0]
        with pytest.raises(lz.SchemaError):
            lz.load_csv(path, "income").filter("AZ")

    def test_filter_matches_the_label_loop(self):
        # None stands for a short row's missing label
        labels = ("AZ", None, "CA", "AZ", None, "az", "AZ")
        table = lz.IncomeTable(values=np.arange(7.0), groups=labels, dropped=2)
        for group in ("AZ", None, "CA", "az", "NV"):
            got = table.filter(group)
            keep = [g == group for g in labels]
            assert got.values.tolist() == [v for v, k in zip(range(7), keep) if k]
            assert got.groups == tuple(g for g, k in zip(labels, keep) if k)
            assert got.dropped == 2
        empty = lz.IncomeTable(values=np.empty(0), groups=(), dropped=0).filter("AZ")
        assert empty.n == 0 and empty.groups == ()

    def test_sample_roundtrip(self, tmp_path):
        path = write(tmp_path, "income\n3\n1\n2\n")
        s = lz.load_csv(path, "income").sample()
        assert s.values.tolist() == [1.0, 2.0, 3.0]


class TestCurve:
    def test_toy_values(self):
        s = lz.Sample([1.0, 2.0, 3.0, 4.0, 5.0])
        pts = lz.curve(s, [0.4, 0.9])
        assert pts.mu_hat == 3.0
        assert pts.generalized.tolist() == [0.6, 3.0]
        # 0.6 / 3.0 rounds to the double just below 0.2
        assert pts.lorenz.tolist() == pytest.approx([0.2, 1.0], rel=1e-15)

    def test_closes_exactly_at_one(self):
        rng = np.random.default_rng(2)
        s = lz.Sample(rng.chisquare(3.0, 101))
        pts = lz.curve(s, [0.995])  # ceil(101 * 0.995) = 101: everything included
        assert pts.lorenz[-1] == 1.0  # bit-exact, same summation both sides

    def test_equal_incomes_curve_hits_one(self):
        # with all values tied, every t includes the whole sample
        s = lz.Sample([7.0, 7.0, 7.0, 7.0])
        pts = lz.curve(s, [0.25, 0.5, 0.75])
        assert pts.lorenz.tolist() == [1.0, 1.0, 1.0]

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(3)
        s = lz.Sample(rng.lognormal(0.0, 1.0, 57))
        grid = [i / 100 for i in range(1, 100)]
        pts = lz.curve(s, grid)
        assert np.all(np.diff(pts.generalized) >= 0.0)
        assert np.all(np.diff(pts.lorenz) >= 0.0)

    def test_lorenz_below_diagonal_scale_free(self):
        rng = np.random.default_rng(4)
        x = rng.weibull(1.5, 200) * 3.0
        grid = [i / 10 for i in range(1, 10)]
        pts = lz.curve(lz.Sample(x), grid)
        assert np.all(pts.lorenz <= np.asarray(grid) + 1e-12)
        scaled = lz.curve(lz.Sample(1000.0 * x), grid)
        assert scaled.lorenz == pytest.approx(pts.lorenz.tolist(), rel=1e-12)

    @pytest.mark.parametrize("values", [[-1.0, 1.0], [-3.0, 1.0]])
    def test_nonpositive_mean_raises(self, values):
        # mean 0 gave ordinates [-inf, -inf, nan]; mean -1 gave 1.5 at t = 0.5
        with pytest.raises(lz.DomainError, match="positive mean"):
            lz.curve(lz.Sample(values), [0.25, 0.5, 0.75])

    def test_overflowing_sum_raises(self):
        # every value is finite, but their running sum is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lz.NonFinite, match="overflows"):
                lz.curve(lz.Sample([1e308, 1.5e308, 1.7e308, 1.2e308]), [0.25, 0.5, 0.75])

    def test_row_order_irrelevant(self, tmp_path):
        a = write(tmp_path, "v\n5\n1\n3\n2\n4\n", "a.csv")
        b = write(tmp_path, "v\n1\n2\n3\n4\n5\n", "b.csv")
        grid = [0.2, 0.4, 0.6, 0.8]
        pa = lz.curve(lz.load_csv(a, "v").sample(), grid)
        pb = lz.curve(lz.load_csv(b, "v").sample(), grid)
        assert pa.generalized.tolist() == pb.generalized.tolist()


@pytest.mark.parametrize("whole", [True, False], ids=["whole-dollar", "lognormal"])
def test_curve_matches_point_estimate(whole):
    # curve sums once, in order; point_estimate sums each truncation
    # pairwise.  Whole numbers sum exactly either way; otherwise each sum
    # is within (n - 1) eps of the exact one, the values being positive
    x = np.random.default_rng(5).lognormal(10.0, 0.5, 1000)
    s = lz.Sample(np.round(x) if whole else x)
    grid = [i / 100 for i in range(1, 100)]
    want = [lz.point_estimate(s, t) for t in grid]
    got = lz.curve(s, grid).generalized.tolist()
    if whole:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=2 * s.n * np.finfo(float).eps)


class TestWriteCurveCsv:
    def test_format(self):
        s = lz.Sample([1.0, 2.0, 3.0, 4.0, 5.0])
        pts = lz.curve(s, [0.4, 0.9])
        buf = io.StringIO()
        lz.write_curve_csv(pts, buf, precision=4)
        assert buf.getvalue() == (
            "t,lorenz,generalized,diagonal\n"
            "0.4,0.2000,0.6000,0.4\n"
            "0.9,1.0000,3.0000,0.9\n"
        )
