"""The exact text of every table the package writes, pinned on tiny inputs:
UTF-8, LF endings, comma cells, floats at 17 significant digits (``nan``;
every zero, -0.0 too, as ``0``), booleans as ``true``/``false``."""

import re

import numpy as np
import pytest

from robustvar import VarModel, emit_csv, read_results_csv, write_series_csv, write_var_model_csv
from robustvar._tables import format_cell
from robustvar.diagnostics import DiagnosticsReport, write_reports_csv

THIRD = 1.0 / 3.0


def written(tmp_path, write, *args):
    path = tmp_path / "t.csv"
    write(*args, path)
    return path.read_bytes().decode("utf-8")


class TestExactBytes:
    def test_series(self, tmp_path):
        data = np.array([[0.1, -0.0], [THIRD, 1e-300]])
        assert written(tmp_path, write_series_csv, data) == (
            "t,z1,z2\n"
            "0,0.10000000000000001,0\n"
            "1,0.33333333333333331,1e-300\n"
        )

    def test_var_model(self, tmp_path):
        # the -0.0 coefficient is written 0, as every zero of every table
        model = VarModel((np.array([[0.5, -0.0], [THIRD, 2.0]]),
                          np.array([[0.0, 1e-5], [-0.25, 0.7]])))
        assert written(tmp_path, write_var_model_csv, model) == (
            "# varmodel p=2 d=2\n"
            "0.5,0.33333333333333331,0,-0.25\n"
            "0,2,1.0000000000000001e-05,0.69999999999999996\n"
        )

    def test_results(self, tmp_path):
        common = {"case": "case1_df_sweep", "p": 2, "n": 30, "d": 1}
        rows = [
            {**common, "df": 2.5, "tau": 1.0, "lambda": 0.38040184433278057, "rep": 0,
             "error": float("nan"), "iterations": 7, "converged": False,
             "seed": 5156922822541503845},
            {**common, "df": 3.0, "tau": 10.0, "lambda": THIRD, "rep": 1,
             "error": -0.0, "iterations": 2, "converged": True, "seed": 12},
        ]
        assert written(tmp_path, emit_csv, rows) == (
            "case,p,n,d,df,tau,lambda,rep,error,iterations,converged,seed\n"
            "case1_df_sweep,2,30,1,2.5,1,0.38040184433278057,0,nan,7,false,5156922822541503845\n"
            "case1_df_sweep,2,30,1,3,10,0.33333333333333331,1,0,2,true,12\n"
        )

    def test_diagnostics(self, tmp_path):
        reports = [
            DiagnosticsReport(0.2, 0.25, True, THIRD, 10, np.array([-0.0, 0.1, 0.0])),
            DiagnosticsReport(THIRD, 0.19645545214236859, False, float("nan"), 0, None),
        ]
        assert written(tmp_path, write_reports_csv, reports) == (
            "rep,deviation_stat,lambda_half,deviation_pass,re_hat,re_directions,min_direction\n"
            "0,0.20000000000000001,0.25,true,0.33333333333333331,10,0 0.10000000000000001 0\n"
            "1,0.33333333333333331,0.19645545214236859,false,nan,0,\n"
        )


class TestZeroCells:
    @pytest.mark.parametrize("zero", [-0.0, np.float64(-0.0), 0.0, 0])
    def test_every_float_zero_is_written_0(self, zero):
        assert format_cell(float, zero) == "0"

    def test_other_values_keep_their_sign(self):
        assert [format_cell(float, v) for v in (-1e-300, -THIRD, float("-inf"))] == [
            "-1e-300", "-0.33333333333333331", "-inf"]


class TestBooleanCells:
    HEADER = "case,p,n,d,df,tau,lambda,rep,error,iterations,converged,seed\n"
    ROW = "custom,3,20,1,3,1,0.5,0,0.25,4,{},7\n"

    def test_true_and_false_read_back(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(self.HEADER + self.ROW.format("true") + self.ROW.format("false"))
        assert [row["converged"] for row in read_results_csv(path)] == [True, False]

    @pytest.mark.parametrize("cell", ["yes", "True", "x", "", "1", "false "])
    def test_other_text_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "r.csv"
        path.write_text(self.HEADER + self.ROW.format("true") + self.ROW.format(cell))
        message = f"line 3, column converged: {cell!r} is not true or false"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_results_csv(path)
