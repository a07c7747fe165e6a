import dataclasses
import decimal
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from helpers import SRC_ENV, cell_by_cell_text, e16_cell_texts, repr_cell_texts
from superres import (
    ConfigurationError,
    DomainError,
    ModelParams,
    OutOfReachError,
    SweepSpec,
    SweepTable,
    concurrence,
    concurrence_max,
    emit,
    f_tot_coherence,
    f_tot_concurrence,
    figure_preset,
    overlap,
    precision,
    precision_concurrence,
    precision_gamma,
    qfim,
    qfim_concurrence,
    qfim_gamma,
    run_sweep,
    theta_from_concurrence,
)
from superres.cli import main
from superres import float_text
from superres.sweep import CSV_FIELDS, DELTA_FIELDS, worst_oracle_delta

# the usage line that argparse's errors about an option open with
USAGE = "usage: superres [-h] {single,qfim,verify,figure} ...\n"


def small_single_spec(**kw):
    base = dict(
        mode="single",
        nuisance="coherence",
        s_range=(0.5, 2.5, 5),
        nuisance_range=(0.0, 1.0, 4),
    )
    base.update(kw)
    return SweepSpec(**base)


def table_of(*rows):
    """A ``SweepTable`` of ``rows``, each a dict of its populated cells,
    every one in reach; it has delta columns where a row names a delta."""
    names = CSV_FIELDS + (DELTA_FIELDS if any(n in r for r in rows for n in DELTA_FIELDS)
                          else ())
    return SweepTable({n: np.array([r.get(n, math.nan) for r in rows], dtype=float)
                       for n in names}, np.ones(len(rows), bool))


def status_of(table):
    """The status each row of ``table`` is emitted with."""
    return np.where(table.reach, "ok", "out_of_reach").tolist()


class TestSweepSpec:
    def test_defaults_fill_nuisance_range(self):
        spec = SweepSpec(mode="single", nuisance="theta")
        lo, hi, steps = spec.nuisance_range
        assert (lo, hi) == (0.0, math.pi / 2) and steps == 50
        assert spec.s_range == (1e-3, 5.0, 50)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(mode="scan"),
            dict(nuisance="purity"),
            dict(s_range=(-0.5, 1.0, 3)),
            dict(sigma=0.0),
            dict(s_range=(1.0, 0.5, 5)),
            dict(s_range=(0.5, 2.0, 0)),
            dict(nuisance_range=(-0.2, 1.0, 5)),
            dict(mode="qfim", s_range=(0.0, 2.0, 5)),
            dict(sigma=math.inf),
            dict(s_range=(0.5, math.inf, 5)),
            dict(nuisance="concurrence", nuisance_range=(0.0, math.nan, 3)),
            dict(s_range=(0.1, 1.0, 2.5)),
            dict(nuisance_range=(0, 1, "3")),
            dict(grid_points=4096.0, oracle=True),
            dict(s_range=(0.1, 1.0, True)),
            dict(sigma="1"),
            dict(s_range=("0.1", 1.0, 3)),
            dict(grid_halfwidth="5", oracle=True),
            dict(s_range=(0.1, 1.0)),
            # one point, several steps: every row came out that many times
            dict(s_range=(1.0, 1.0, 3)),
            dict(nuisance_range=(0.5, 0.5, 2)),
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(DomainError):
            small_single_spec(**kw)

    @pytest.mark.parametrize("kw", [
        dict(grid_points=7), dict(grid_points=512), dict(grid_points=4095),
        dict(grid_halfwidth=-1.0), dict(grid_halfwidth=0.0), dict(grid_halfwidth=math.nan),
        dict(grid_halfwidth=math.inf), dict(grid_points=64, oracle=True),
    ])
    def test_rejects_grids_the_oracle_rejects(self, kw):
        # the oracle's grid rule, whether or not the oracle runs
        with pytest.raises(ConfigurationError):
            small_single_spec(**kw)

    def test_frozen_and_revalidated_on_replace(self):
        spec = small_single_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.sigma = 2.0
        assert dataclasses.replace(spec, sigma=2.0).sigma == 2.0
        with pytest.raises(DomainError):
            dataclasses.replace(spec, s_range=(0.5, 2.0, 0))

    def test_verify_is_not_a_mode(self):
        # the verify command runs a qfim block in the theta chart with the oracle
        with pytest.raises(DomainError, match="^mode must be one of "):
            SweepSpec(mode="verify", nuisance="theta", s_range=(0.5, 1.0, 2))


class TestRunSweep:
    def test_record_count_and_order(self):
        table = run_sweep(small_single_spec())
        assert len(table) == 20
        s_vals = table.columns["s"].tolist()
        assert s_vals == sorted(s_vals)               # s-major
        assert table.columns["gamma"][:4].tolist() == pytest.approx(
            list(np.linspace(0, 1, 4))
        )

    def test_incoherent_column(self):
        cols = run_sweep(small_single_spec()).columns
        assert (cols["f_tot"][cols["gamma"] == 0.0] == 0.25).all()

    def test_out_of_reach_rows_kept(self):
        spec = small_single_spec(
            nuisance="concurrence",
            s_range=(0.3, 0.3, 1),
            nuisance_range=(0.0, 1.0, 6),
        )
        table = run_sweep(spec)
        assert len(table) == 6
        assert table.reach.dtype == bool
        marked = ~table.reach
        assert marked.sum() == 5                      # C_max(0.3) ~ 0.149
        assert np.isnan(table.columns["f_tot"][marked]).all()
        assert not np.isnan(table.columns["C"][marked]).any()

    def test_s_zero_reaches_only_c_zero(self):
        # C^2 underflows for these C > 0; they stay out of reach all the same
        spec = small_single_spec(nuisance="concurrence", s_range=(0.0, 0.0, 1),
                                 nuisance_range=(0.0, 1e-170, 3))
        table = run_sweep(spec)
        assert table.reach.tolist() == [True, False, False]
        assert table.columns["f_tot"][0] == f_tot_coherence(0.0, 1.0, 1.0).f_tot

    def test_theta_nuisance(self):
        spec = small_single_spec(nuisance="theta",
                                 nuisance_range=(0.0, math.pi / 2, 3))
        gamma = run_sweep(spec).columns["gamma"]
        assert gamma[0] == 1.0
        assert abs(gamma[2]) < 1e-15

    def test_qfim_mode_populates_matrix(self):
        spec = SweepSpec(mode="qfim", nuisance="theta",
                         s_range=(1.0, 2.0, 2),
                         nuisance_range=(0.3, math.pi / 2, 3))
        cols = run_sweep(spec).columns
        assert not np.isnan(cols["f_ss"]).any() and not np.isnan(cols["h_s"]).any()
        assert np.isnan(cols["f_tot"]).all()
        assert (cols["f_ss"] * cols["f_tt"] - cols["f_st"] ** 2 >= -1e-12).all()

    def test_qfim_gamma_one_column(self):
        spec = SweepSpec(mode="qfim", nuisance="coherence",
                         s_range=(2.0, 2.0, 1), nuisance_range=(0.0, 1.0, 5))
        top = {name: col[-1] for name, col in run_sweep(spec).columns.items()}
        assert top["gamma"] == 1.0
        assert top["h_s"] == pytest.approx(0.1199805936513259, abs=1e-12)
        assert math.isnan(top["f_tt"]) and math.isnan(top["h_nuisance"])

    def test_qfim_concurrence_boundary_falls_back_to_invariant(self):
        from superres import concurrence_max
        c_max = concurrence_max(1.0, 1.0)
        spec = SweepSpec(mode="qfim", nuisance="concurrence",
                         s_range=(1.0, 1.0, 1),
                         nuisance_range=(c_max, c_max, 1))
        table = run_sweep(spec)
        assert table.reach.tolist() == [True]
        assert not math.isnan(table.columns["h_s"][0]) and math.isnan(table.columns["f_tt"][0])

    def test_qfim_underflowing_lambda1_takes_the_limit(self):
        # lambda1 is subnormal at theta = 1.5e-161 and the squared derivative
        # underflows; the closed form still gives F_tt -> (1-d)/(1+d)
        spec = SweepSpec(mode="qfim", nuisance="theta", s_range=(1.0, 1.0, 1),
                         nuisance_range=(0.0, 1.5e-161, 2))
        e = -math.expm1(-1.0 / 8.0)
        cols = run_sweep(spec).columns
        for name in ("f_tt", "h_nuisance"):
            assert cols[name].tolist() == pytest.approx([e / (2.0 - e)] * 2, rel=1e-15)
        assert cols["f_ss"].tolist() == cols["h_s"].tolist()

    @pytest.mark.parametrize("nuisance", ["coherence", "concurrence"])
    def test_far_separation_asymptote(self, nuisance):
        spec = SweepSpec(mode="single", nuisance=nuisance, s_range=(1e200, 1e200, 1),
                         nuisance_range=(0.0, 1.0, 3))
        assert run_sweep(spec).columns["f_tot"].tolist() == [0.25] * 3

    @pytest.mark.parametrize("s, sigma, c", [
        # F_ss / sigma^2 overflows in the chart's matrix alone: an ok row
        # carried f_ss = inf, where qfim_concurrence raises
        (1e-152, 1e-152, 0.4703182081618728),
        # G_ss = G_CC = inf at sigma = 1: an ok row carried h_nuisance = nan
        (4.7782171712299286e-154, 1.0, 2.389108585614964e-154),
    ], ids=["f_ss", "h_nuisance"])
    def test_qfim_concurrence_overflow_is_a_domain_error(self, s, sigma, c):
        spec = SweepSpec(mode="qfim", nuisance="concurrence", sigma=sigma,
                         s_range=(s, s, 1), nuisance_range=(c, c, 1))
        with pytest.raises(DomainError, match="do not resolve"):
            run_sweep(spec)

    def test_unresolvable_scale_is_a_domain_error(self):
        # sigma^4 underflows: the closed forms would give NaN in every cell
        with pytest.raises(DomainError, match="do not resolve"):
            run_sweep(small_single_spec(sigma=1e-160))

    def test_oracle_deltas(self):
        spec = SweepSpec(mode="qfim", nuisance="theta",
                         s_range=(1.0, 2.0, 2),
                         nuisance_range=(math.pi / 4, math.pi / 2, 2),
                         oracle=True)
        table = run_sweep(spec)
        assert not np.isnan(table.columns["delta_f_ss"]).any()
        worst, at, element = worst_oracle_delta(table)
        assert worst < 1e-6
        assert table.columns["delta_" + element][at] == worst
        assert worst_oracle_delta(run_sweep(small_single_spec())) == (0.0, None, None)

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("mode", ["single", "qfim"])
    def test_delta_columns_only_with_the_oracle(self, mode, oracle):
        spec = small_single_spec(mode=mode, s_range=(0.5, 2.5, 2), nuisance_range=(0.0, 0.9, 2),
                                 oracle=oracle)
        table = run_sweep(spec)
        assert set(table.columns) == set(CSV_FIELDS + (DELTA_FIELDS if oracle else ()))
        header = emitted(table, "csv").splitlines()[0].split(",")
        assert len(header) == (17 if oracle else 13) and header[-1] == "status"

    @pytest.mark.parametrize("mode", ["single", "qfim"])
    def test_columns_never_computed_are_read_only(self, mode):
        columns = run_sweep(small_single_spec(mode=mode)).columns
        never = ("f_ss", "f_tt", "f_st", "h_s", "h_nuisance") if mode == "single" else ("f_tot",)
        for name in never:
            assert np.isnan(columns[name]).all()
            with pytest.raises(ValueError, match="read-only"):
                columns[name][0] = 1.0

    @pytest.mark.parametrize("mode", ["qfim", "single"])
    def test_oracle_calls_of_bounded_size_match_one_call(self, mode, monkeypatch):
        from superres import sweep as sweep_mod

        spec = SweepSpec(mode=mode, nuisance="theta", s_range=(0.5, 2.0, 3),
                         nuisance_range=(0.0, 1.5, 4), oracle=True)
        whole = run_sweep(spec).columns
        monkeypatch.setattr(sweep_mod, "_ORACLE_CELLS", 5)
        parts = run_sweep(spec).columns
        for name in DELTA_FIELDS:
            assert np.array_equal(whole[name], parts[name], equal_nan=True), name

    def test_oracle_leaves_f_tt_and_f_st_blank_exactly_at_zero_theta(self):
        spec = SweepSpec(mode="qfim", nuisance="concurrence", s_range=(0.5, 1.0, 2),
                         nuisance_range=(0.0, 0.2, 3), oracle=True)
        columns = run_sweep(spec).columns
        zero = np.sin(columns["theta"]) == 0.0
        assert zero.tolist() == [True, False, False] * 2
        assert not np.isnan(columns["delta_f_ss"]).any()
        for name in ("delta_f_tt", "delta_f_st"):
            assert np.isnan(columns[name]).tolist() == zero.tolist()


class TestEmit:
    def test_csv_layout(self, tmp_path):
        table = run_sweep(small_single_spec())
        out = tmp_path / "sweep.csv"
        emit(table, "csv", out)
        lines = out.read_text().splitlines()
        assert lines[0] == "s,sigma,theta,gamma,C,d,f_tot,f_ss,f_tt,f_st,h_s,h_nuisance,status"
        assert len(lines) == 21
        assert lines[1].endswith(",ok")
        # full-precision scientific notation
        assert "e-" in lines[1] or "e+" in lines[1]

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_sweep(small_single_spec()), "csv", a)
        emit(run_sweep(small_single_spec()), "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, tmp_path):
        table = run_sweep(small_single_spec())
        out = tmp_path / "sweep.json"
        emit(table, "json", out)
        data = json.loads(out.read_text())
        assert len(data) == len(table)
        for i, obj in enumerate(data):
            assert obj["status"] == status_of(table)[i]
            for name in CSV_FIELDS:
                v = float(table.columns[name][i])
                if math.isnan(v):
                    assert name not in obj
                else:
                    assert obj[name] == v

    def test_unpopulated_cells_blank(self, tmp_path):
        spec = small_single_spec(nuisance="concurrence",
                                 s_range=(0.3, 0.3, 1),
                                 nuisance_range=(0.9, 0.9, 1))
        out = tmp_path / "oor.csv"
        emit(run_sweep(spec), "csv", out)
        row = out.read_text().splitlines()[1].split(",")
        assert row[-1] == "out_of_reach"
        assert row[CSV_FIELDS.index("f_tot")] == ""

    def test_io_error_carries_path(self, tmp_path):
        with pytest.raises(OSError) as err:
            emit(table_of(), "csv", tmp_path / "missing" / "x.csv")
        assert "x.csv" in str(err.value)

    def test_rejects_unknown_format(self):
        out = io.StringIO()
        with pytest.raises(DomainError, match="format"):
            emit(run_sweep(small_single_spec()), "xml", out)
        assert out.getvalue() == ""


class TestFigurePresets:
    def test_unknown_preset_lists_options(self):
        with pytest.raises(DomainError) as err:
            figure_preset("fig9")
        assert str(err.value) == ("unknown figure preset 'fig9'; "
                                  "available: fig1a, fig1b, fig1c, fig2a, fig2b")

    def test_builds_only_the_named_preset(self, monkeypatch):
        built = []
        check = SweepSpec.__post_init__
        monkeypatch.setattr(SweepSpec, "__post_init__",
                            lambda spec: built.append(spec.nuisance) or check(spec))
        figure_preset("fig2b")
        assert built == ["coherence"]
        figure_preset("fig1c")
        assert built == ["coherence", "coherence", "concurrence"]
        with pytest.raises(DomainError):
            figure_preset("fig9")
        assert len(built) == 3

    def test_fig1c_blocks(self):
        blocks = figure_preset("fig1c")
        assert len(blocks) == 2
        assert {b.nuisance for b in blocks} == {"coherence", "concurrence"}
        for b in blocks:
            assert b.s_range == (0.3, 0.3, 1)

    def test_fig1c_endpoints_and_monotonicity(self):
        coh, conc = figure_preset("fig1c")
        coh_cols = run_sweep(coh).columns
        assert coh_cols["gamma"][0] == 0.0 and coh_cols["f_tot"][0] == 0.25
        assert coh_cols["f_tot"][-1] == pytest.approx(0.005593418701544485, abs=1e-12)
        assert (np.diff(coh_cols["f_tot"]) < 0).all()
        assert (np.diff(run_sweep(conc).columns["f_tot"]) > 0).all()

    def test_fig2_presets_use_qfim(self):
        (block,) = figure_preset("fig2b")
        assert block.mode == "qfim" and block.nuisance == "coherence"
        assert block.s_range[0] > 0.0


class TestCli:
    def test_figure_to_file(self, tmp_path):
        out = tmp_path / "fig1c.csv"
        code = main(["figure", "fig1c", "--out", str(out), "--n-steps", "20"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 41
        assert lines[0].startswith("s,sigma,theta")

    def test_single_stdout_json(self, capsys):
        code = main([
            "single", "--s-min", "0.5", "--s-max", "1.0", "--s-steps", "2",
            "--n-min", "0", "--n-max", "1", "--n-steps", "3",
            "--format", "json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 6

    def test_domain_error_exit_code(self, capsys):
        assert main(["single", "--sigma", "-1"]) == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["single"], ["qfim"], ["verify"], ["figure", "fig1c"]])
    def test_every_command_rejects_phi(self, command, capsys):
        # the closed forms take phi = 0 alone, so no command has the option
        with pytest.raises(SystemExit) as err:
            main([*command, "--phi", "0.1"])
        assert err.value.code == 2
        assert capsys.readouterr() == ("", USAGE + "superres: error: unrecognized arguments: "
                                       "--phi 0.1\n")

    @pytest.mark.parametrize("argv, message", [
        (["single", "--grid-points", "7"], "n_points must be a power of two >= 1024, got 7"),
        (["single", "--grid-halfwidth", "-1"], "halfwidth must be positive and finite, got -1.0"),
        (["qfim", "--grid-halfwidth", "nan"], "halfwidth must be positive and finite, got nan"),
    ], ids=["single-points", "single-halfwidth", "qfim-halfwidth"])
    def test_grid_options_are_checked_without_the_oracle(self, argv, message, capsys):
        # these exited 0 with the options unused, and 2 with --oracle
        for oracle in ([], ["--oracle"]):
            assert main([*argv, *oracle, "--s-steps", "2", "--n-steps", "2"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == f"superres: error: {message}\n"

    @pytest.mark.parametrize("argv", [
        # 1 - d^2 underflows: f_ss used to be blank on status=ok rows
        ["qfim", "--s-min", "1e-170", "--s-max", "1e-170", "--s-steps", "1", "--n-steps", "3"],
        # sigma^2 overflows: f_ss and h_nuisance likewise
        ["qfim", "--sigma", "1e300", "--s-steps", "3", "--n-steps", "3"],
        # sigma^2 underflows: a ZeroDivisionError traceback (exit 1)
        ["single", "--sigma", "1e-300"],
        # 1 - d^2 is subnormal: exit 0 with f_ss = 0.25099 at theta = pi/2 (0.25)
        ["qfim", "--nuisance", "theta", "--s-min", "1e-160", "--s-max", "1e-160",
         "--s-steps", "1", "--n-steps", "3"],
        # likewise: exit 0 with gamma = 1 at C = 1e-162
        ["single", "--nuisance", "concurrence", "--s-min", "1e-161", "--s-max", "1e-161",
         "--s-steps", "1", "--n-min", "0", "--n-max", "2e-162", "--n-steps", "3"],
        # the concurrence chart's F_ss / sigma^2 overflows: exit 0, f_ss blank
        ["qfim", "--nuisance", "concurrence", "--sigma", "1e-152", "--s-min", "1e-152",
         "--s-max", "1e-152", "--s-steps", "1", "--n-min", "0.4703182081618728",
         "--n-max", "0.4703182081618728", "--n-steps", "1"],
        # the concurrence chart's G_ss cancels to -1.03e-25: exit 0 with
        # h_nuisance = -0.12
        ["qfim", "--nuisance", "concurrence", "--s-min", "1.2589254117941661e-12",
         "--s-max", "1.2589254117941661e-12", "--s-steps", "1",
         "--n-min", "6.294627058970831e-17", "--n-max", "6.294627058970831e-17",
         "--n-steps", "1"],
    ], ids=["tiny-s", "huge-sigma", "tiny-sigma", "subnormal-qfim", "subnormal-concurrence",
            "concurrence-overflow", "concurrence-cancelled"])
    def test_unresolved_cells_exit_code(self, argv, capsys):
        assert main(argv) == 2
        assert "do not resolve" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        # s / sigma overflows to inf, where the far-separation limit holds:
        # numpy's overflow warning went to stderr
        (["single", "--s-min", "1e308", "--s-max", "1.7e308", "--sigma", "0.5",
          "--s-steps", "2", "--n-steps", "2"], 0),
        # likewise, then "do not resolve": the warning, raised, was a traceback
        (["figure", "fig2a", "--sigma", "1e-308", "--s-steps", "2", "--n-steps", "2"], 2),
    ], ids=["single", "fig2a"])
    def test_overflowing_separation_warns_nothing(self, argv, code, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert err == ""
            rows = [row.split(",") for row in out.splitlines()[1:]]
            assert [(row[CSV_FIELDS.index("f_tot")], row[-1]) for row in rows] == [
                ("1.0000000000000000e+00", "ok")] * 4
        else:
            assert err.startswith("superres: error: the closed forms do not resolve")

    @pytest.mark.parametrize("argv", [
        ["single", "--s-min", "1", "--s-max", "1", "--s-steps", "3", "--n-steps", "2"],
        ["single", "--n-min", "0.5", "--n-max", "0.5", "--n-steps", "2", "--s-steps", "2"],
        ["figure", "fig1c", "--s-steps", "3", "--n-steps", "2"],
    ], ids=["s", "nuisance", "fig1c"])
    def test_one_point_axis_with_several_steps_exit_code(self, argv, capsys):
        # every row came out once per step, with exit 0
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "-range with max = min must have 1 step" in err

    def test_verify_where_the_grid_samples_no_psf(self, capsys):
        # the grid spacing is ~490 sigma at s = 1e6: no sample reached the
        # PSF, every delta was NaN, and verify printed PASS at 0.000e+00
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--s-min", "1e6", "--s-max", "1e6", "--s-steps", "1",
                         "--n-steps", "2"])
        assert code == 2
        assert "the grid does not resolve s = 1000000.0 at sigma = 1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["verify"], ["single", "--oracle"]])
    def test_overflowing_default_halfwidth_is_a_domain_error(self, command, capsys):
        # 8 sigma + s overflows: the error named --grid-halfwidth, which was
        # never given ("halfwidth must be positive and finite, got inf")
        argv = [*command, "--sigma", "1e307", "--s-min", "1e308", "--s-max", "1e308",
                "--s-steps", "1", "--n-steps", "1"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "superres: error: the grid does not resolve s = 1e+308 at sigma = 1e+307\n")

    def test_scalar_api_takes_the_sigma_of_a_sweep(self, capsys):
        # one range rule: ModelParams rejected sigma = 1e-80 (outside
        # [1e-75, 1e75]) while a sweep at that sigma emitted rows
        p = ModelParams(1e-3, 1e-80, 0.5)
        argv = ["qfim", "--sigma", "1e-80", "--nuisance", "theta", "--s-min", "1e-3",
                "--s-max", "1e-3", "--s-steps", "1", "--n-min", "0.5", "--n-max", "0.5",
                "--n-steps", "1"]
        assert main(argv) == 0
        header, row = capsys.readouterr().out.splitlines()
        got = {k: float(v) for k, v in zip(header.split(","), row.split(",")) if v not in ("", "ok")}
        q, h = qfim(p), precision(p)
        assert got == {"s": 1e-3, "sigma": 1e-80, "theta": 0.5, "gamma": math.cos(0.5),
                       "C": concurrence(p), "d": 0.0, "f_ss": q.f_ss, "f_tt": q.f_tt,
                       "f_st": q.f_st, "h_s": h.h_s, "h_nuisance": h.h_nuisance}
        assert q.f_ss == pytest.approx(2.5e159, rel=1e-15)

    def test_tiny_separation_single_coherence(self, capsys):
        argv = ["single", "--nuisance", "coherence", "--s-min", "1e-200",
                "--s-max", "1e-200", "--s-steps", "1", "--n-steps", "3"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3 and all(r.endswith(",ok") for r in rows)

    def test_unknown_preset_exit_code(self, capsys):
        assert main(["figure", "fig9"]) == 2

    @pytest.mark.parametrize("option, message", [
        (["--grid-halfwidth", "1"], "too narrow"),
        (["--grid-points", "64"], "power of two"),
    ])
    def test_figure_forwards_grid_options(self, option, message, capsys):
        # the oracle refuses these grids, as in single --oracle
        argv = ["figure", "fig2a", "--oracle", "--s-steps", "2", "--n-steps", "2", *option]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert main(["single", "--oracle", "--s-steps", "2", "--n-steps", "2", *option]) == 2

    @pytest.mark.parametrize("option", [
        ["--nuisance", "coherence"], ["--s-min", "0.1"], ["--s-max", "2"],
        ["--n-min", "0"], ["--n-max", "0.5"],
    ])
    def test_figure_rejects_options_its_preset_fixes(self, option, capsys):
        # the figure command has no such option
        with pytest.raises(SystemExit) as err:
            main(["figure", "fig1b", "--s-steps", "2", "--n-steps", "2", *option])
        assert err.value.code == 2
        assert capsys.readouterr() == ("", USAGE + "superres: error: unrecognized arguments: "
                                       + " ".join(option) + "\n")

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["unknown-mode"])
        assert err.value.code == 2

    def test_removed_step_option_is_a_usage_error(self):
        # the oracle differentiates the sampled PSF exactly and takes no step
        with pytest.raises(SystemExit) as err:
            main(["verify", "--fd-step", "1e-5"])
        assert err.value.code == 2

    def test_io_error_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code = main(["figure", "fig1c", "--n-steps", "5", "--out", str(out)])
        assert code == 4

    def test_verify_pass(self, capsys):
        code = main([
            "verify", "--s-min", "1.0", "--s-max", "2.0", "--s-steps", "2",
            "--n-min", "0.7853981633974483", "--n-max", "1.5707963267948966",
            "--n-steps", "2",
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().err

    @pytest.mark.parametrize("s", ["1e-3", "1e-2", "1e-12", "1e-100"])
    def test_verify_passes_at_small_separation(self, s, capsys):
        # nearly collinear basis vectors here; 4096 grid points, tolerance 1e-6.
        # Sampled as h_+ and h_- rather than their sum and difference, the
        # f_tt delta read 1.4e-4 at s = 1e-12 and 1.0 at 1e-100 (exit 3)
        code = main(["verify", "--s-min", s, "--s-max", s, "--s-steps", "1",
                     "--grid-points", "4096"])
        first, where = capsys.readouterr().err.splitlines()
        assert code == 0
        assert re.fullmatch(r"verify: 4 points, max relative QFIM delta \S+ "
                            r"\(tolerance 1e-06\): PASS", first)
        assert re.fullmatch(rf"verify: worst delta in f_(ss|tt|st) at "
                            rf"s = {float(s)!r}, theta = [0-9.e-]+", where)

    @pytest.mark.parametrize("argv, edge", [
        (["qfim", "--nuisance", "theta", "--n-min", "0", "--s-min", "1e-9"], ("theta", 0.0)),
        (["single", "--nuisance", "coherence", "--s-min", "1e-12"], ("gamma", 1.0)),
    ], ids=["qfim-theta", "single-coherence"])
    def test_oracle_deltas_at_tiny_separation(self, argv, edge, capsys):
        # theta = 0 and gamma = 1 put the state on h_+ + h_-: formed from
        # samples of h_+ and h_-, its derivative by s cancelled to O(s), and
        # the f_ss delta read 1.2e-7 (f_tt 1.7e-7) at s = 1e-9, the gamma = 1
        # f_tot delta 1.1e-4 at s = 1e-12
        s = argv[-1]
        assert main([*argv, "--oracle", "--s-max", s, "--s-steps", "1", "--format", "json"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert {r["status"] for r in table} == {"ok"} and edge[1] in [r[edge[0]] for r in table]
        for r in table:
            deltas = [v for k, v in r.items() if k.startswith("delta_") and v is not None]
            assert deltas and max(deltas) <= 1e-11, r

    @pytest.mark.parametrize("argv", [
        ["--s-min", "1e-5", "--s-max", "1e-5", "--s-steps", "1"],
        ["--s-min", "1e-6", "--s-max", "1e-6", "--s-steps", "1"],
        ["--s-min", "1e-2", "--s-max", "1e-2", "--s-steps", "1", "--n-min", "0", "--n-max", "1e-3"],
    ], ids=["s1e-5", "s1e-6", "s1e-2-small-theta"])
    def test_verify_passes_at_a_small_eigenvalue(self, argv, capsys):
        # these failed with deltas of 3.2e9, 5.3e12 and 2.2e-3 when the
        # oracle cut its spectral sum at eigenvalue pairs below 1e-12
        code = main(["verify", *argv])
        assert code == 0
        assert "PASS" in capsys.readouterr().err

    def test_verify_passes_at_far_separation(self, capsys):
        # F_st falls to ~1e-66 at s = 35 while the grid's round-off is ~1e-32:
        # relative to F_st the delta read 1.0 (exit 3); on its Cauchy-Schwarz
        # scale sqrt(F_ss F_tt) it reads the oracle's accuracy
        code = main(["verify", "--s-min", "20", "--s-max", "60", "--s-steps", "3"])
        assert code == 0
        assert "PASS" in capsys.readouterr().err

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        from superres import sweep as sweep_mod

        def broken(s, sigma, thetas, **kw):
            ones = np.ones(np.shape(thetas))
            return ones, ones, 0.0 * ones

        monkeypatch.setattr(sweep_mod, "numeric_qfim_cells", broken)
        code = main([
            "verify", "--s-min", "1.0", "--s-max", "1.0", "--s-steps", "1",
            "--n-min", "1.0", "--n-max", "1.0", "--n-steps", "1",
        ])
        assert code == 3
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.skipif(not (getattr(os, "confstr", None)
                             and (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")),
                        reason="the CLI tunes glibc's malloc only")
    def test_verify_reuses_freed_memory(self, capsys):
        # with glibc's default thresholds every row of the grid oracle faulted
        # its ~2 MB of arrays in afresh: ~3,000 minor faults per call here
        import resource
        argv = ["verify", "--s-min", "1e-3", "--s-max", "5", "--s-steps", "6",
                "--n-steps", "6", "--grid-points", "16384"]
        assert main(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 300

    def test_entry_module_runs(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "superres.cli", "figure", "fig1c",
             "--n-steps", "8", "--out", str(out)],
            capture_output=True,
            text=True,
            env=SRC_ENV,
        )
        assert proc.returncode == 0
        assert out.exists()


def scalar_cell(spec, s, nu):
    """One sweep cell computed point by point from the scalar API, the way
    the sweep did before it became an array kernel: (status, populated
    fields)."""
    sigma = spec.sigma
    d = overlap(s, sigma).d
    out_of_reach = ("out_of_reach", {"C": nu, "d": d})
    if spec.mode == "single":
        if spec.nuisance == "concurrence":
            if s == 0.0:
                if nu > 0.0:
                    return out_of_reach
                rec = f_tot_coherence(s, sigma, 1.0)
            else:
                try:
                    rec = f_tot_concurrence(s, sigma, nu)
                except OutOfReachError:
                    return out_of_reach
        else:
            gamma = nu if spec.nuisance == "coherence" else math.cos(nu)
            rec = f_tot_coherence(s, sigma, gamma)
        return "ok", {"theta": rec.theta, "gamma": rec.gamma, "C": rec.concurrence,
                      "d": d, "f_tot": rec.f_tot}
    if spec.nuisance == "theta":
        p = ModelParams(s, sigma, nu)
        cells = {"theta": nu, "gamma": math.cos(nu), "C": concurrence(p)}
        q, h = qfim(p), precision(p)
    elif spec.nuisance == "coherence":
        theta = math.acos(nu)
        cells = {"theta": theta, "gamma": nu,
                 "C": concurrence(ModelParams(s, sigma, theta))}
        if nu == 1.0:
            h_s = precision_gamma(s, sigma, 1.0).h_s
            return "ok", {**cells, "d": d, "f_ss": h_s, "h_s": h_s}
        q, h = qfim_gamma(s, sigma, nu), precision_gamma(s, sigma, nu)
    else:
        c_max = concurrence_max(s, sigma)
        if nu * nu - c_max * c_max > 1e-12 * c_max * c_max:
            return out_of_reach
        theta = theta_from_concurrence(s, sigma, nu)
        cells = {"theta": theta, "gamma": math.cos(theta), "C": nu}
        try:
            q, h = qfim_concurrence(s, sigma, nu), precision_concurrence(s, sigma, nu)
        except DomainError:
            h_s = precision(ModelParams(s, sigma, theta)).h_s
            return "ok", {**cells, "d": d, "h_s": h_s}
    return "ok", {**cells, "d": d, "f_ss": q.f_ss, "f_tt": q.f_tt, "f_st": q.f_st,
                  "h_s": h.h_s, "h_nuisance": h.h_nuisance}


class TestKernelMatchesScalarApi:
    """The array kernel against the scalar API, cell by cell, on every preset
    and on theta-nuisance blocks.

    Kernel and scalar API call the same closed forms, and quantities of one
    axis alone go through ``math`` in both, so theta- and coherence-nuisance
    blocks agree exactly.  In the concurrence blocks theta depends on both
    axes and goes through numpy's arcsin/arccos/cos/sin, which may differ
    from ``math``'s by an ulp; the concurrence chart's ``1/cos(theta)`` near
    maximum reach amplifies that in the transported cells."""

    TIGHT = 1e-13
    AMPLIFIED = 1e-8

    @pytest.mark.parametrize("preset", ["fig1a", "fig1b", "fig1c", "fig2a", "fig2b"])
    def test_preset_cells(self, preset):
        for block in figure_preset(preset):
            self.check_cells(dataclasses.replace(
                block,
                s_range=(*block.s_range[:2], min(block.s_range[2], 40)),
                nuisance_range=(*block.nuisance_range[:2], 40),
            ))

    @pytest.mark.parametrize("mode", ["single", "qfim"])
    def test_theta_blocks(self, mode):
        self.check_cells(SweepSpec(mode=mode, nuisance="theta", s_range=(1e-3, 5.0, 40),
                                   nuisance_range=(0.0, math.pi / 2, 40)))

    @pytest.mark.parametrize("sigma", [2.5, 1e-80])
    @pytest.mark.parametrize("preset", ["fig1a", "fig1b", "fig1c", "fig2a", "fig2b"])
    def test_preset_cells_at_other_sigma(self, preset, sigma):
        # both scale the same outputs computed at sigma = 1 on u = s / sigma;
        # at 1e-80 no overlap is left and f_ss is 2.5e159
        for block in figure_preset(preset):
            self.check_cells(dataclasses.replace(
                block, sigma=sigma,
                s_range=(*block.s_range[:2], min(block.s_range[2], 12)),
                nuisance_range=(*block.nuisance_range[:2], 12),
            ))

    @pytest.mark.parametrize("sigma", [2.5, 1e-80])
    @pytest.mark.parametrize("mode", ["single", "qfim"])
    def test_theta_blocks_at_other_sigma(self, mode, sigma):
        self.check_cells(SweepSpec(mode=mode, nuisance="theta", sigma=sigma,
                                   s_range=(1e-3, 5.0, 12), nuisance_range=(0.0, math.pi / 2, 12)))

    def check_cells(self, spec):
        table = run_sweep(spec)
        s_axis = np.linspace(*spec.s_range) if spec.s_range[2] > 1 else [spec.s_range[0]]
        cells = [(float(s), float(nu)) for s in s_axis
                 for nu in np.linspace(*spec.nuisance_range)]
        assert len(table) == len(cells)
        rows = zip(*(table.columns[name].tolist() for name in CSV_FIELDS))
        for row, status, (s, nu) in zip(rows, status_of(table), cells):
            rec = dict(zip(CSV_FIELDS, row))
            want_status, want = scalar_cell(spec, s, nu)
            assert status == want_status and rec["s"] == s and rec["sigma"] == spec.sigma
            for name in CSV_FIELDS[2:]:
                got = rec[name]
                where = (spec.mode, spec.nuisance, s, nu, name)
                if name not in want:
                    assert math.isnan(got), where
                elif spec.nuisance != "concurrence":
                    assert got == want[name], where
                else:
                    amplified = name in ("f_ss", "f_tt", "f_st", "h_nuisance")
                    tol = self.AMPLIFIED if amplified else self.TIGHT
                    assert got == pytest.approx(want[name], rel=tol, abs=0.0), where


def mixed_table(oracle=True):
    """Every row shape a table holds: in-reach and out-of-reach rows, the
    gamma = 1 column, an infinite cell and, with the oracle, its deltas."""
    qfim_block = run_sweep(SweepSpec(mode="qfim", nuisance="coherence", oracle=oracle,
                                     s_range=(0.5, 2.0, 2), nuisance_range=(0.0, 1.0, 3)))
    single_block = run_sweep(small_single_spec(nuisance="concurrence", oracle=oracle,
                                               s_range=(0.3, 0.3, 1),
                                               nuisance_range=(0.0, 0.5, 3)))
    extra = table_of(dict(s=1.0, sigma=1.0, h_s=0.125, h_nuisance=math.inf,
                          **({"delta_f_ss": 3e-9} if oracle else {})))
    return SweepTable.concat([qfim_block, single_block, extra])


def read_back(path, fmt):
    """Columns of an emitted file with delta columns (NaN for blank cells)
    and its statuses."""
    names = CSV_FIELDS + DELTA_FIELDS
    if fmt == "csv":
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert tuple(header) == names + ("status",)
        cols = {n: [float(r[j]) if r[j] else math.nan for r in rows]
                for j, n in enumerate(names)}
        return cols, [r[-1] for r in rows]
    data = json.loads(path.read_text())
    return ({n: [obj.get(n, math.nan) for obj in data] for n in names},
            [obj["status"] for obj in data])


class TestSweepTable:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip_through_emit(self, tmp_path, fmt):
        table = mixed_table()
        assert set(table.reach.tolist()) == {True, False}
        out = tmp_path / f"table.{fmt}"
        emit(table, fmt, out)
        cols, status = read_back(out, fmt)
        assert status == status_of(table)
        for name in CSV_FIELDS + DELTA_FIELDS:
            col = table.columns[name]
            np.testing.assert_array_equal(cols[name], np.where(np.isfinite(col), col, np.nan))
        assert math.isnan(cols["h_nuisance"][-1])        # inf is emitted blank

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_table(self, tmp_path, fmt):
        out = tmp_path / f"empty.{fmt}"
        emit(table_of(), fmt, out)
        expected = ",".join(CSV_FIELDS + ("status",)) if fmt == "csv" else "[]"
        assert out.read_text() == expected + "\n"

    def test_signed_zeros_keep_their_sign(self, tmp_path):
        values = (0.0, -0.0) * 3
        out = tmp_path / "zeros.csv"
        table = table_of(*(dict(s=1.0, sigma=1.0, f_st=v) for v in values))
        emit(table, "csv", out)
        column = [line.split(",")[CSV_FIELDS.index("f_st")]
                  for line in out.read_text().splitlines()[1:]]
        assert column == [f"{v:.16e}" for v in values]
        emit(table, "json", out)
        text = out.read_text()
        assert [line.split(": ")[1] for line in text.splitlines() if '"f_st"' in line] == [
            "0.0,", "-0.0,"] * 3
        assert [math.copysign(1.0, row["f_st"]) for row in json.loads(text)] == [1.0, -1.0] * 3

    @pytest.mark.parametrize("oracle", [False, True])
    def test_bytes_match_cell_by_cell_formatting(self, tmp_path, oracle):
        """Whole-row templates write what per-cell formatting and json.dump
        write."""
        table = mixed_table(oracle)
        for fmt in ("csv", "json"):
            out = tmp_path / f"rows.{fmt}"
            emit(table, fmt, out)
            assert out.read_text() == cell_by_cell_text(table, fmt)

    @pytest.mark.parametrize("source, fmt", [
        *((name, "csv") for name in ("fig1a", "fig1b", "fig1c", "fig2a", "fig2b")),
        ("fig2b", "json"), ("verify", "csv"), ("verify", "json"),
    ])
    def test_real_tables_match_cell_by_cell_formatting(self, tmp_path, source, fmt):
        """As above on whole surfaces, where the repeated columns take the
        format-once path and the others are formatted in the template."""
        if source == "verify":
            table = run_sweep(SweepSpec(mode="qfim", nuisance="theta", oracle=True,
                                        s_range=(1e-3, 5.0, 6),
                                        nuisance_range=(0.0, math.pi / 2, 6)))
        else:
            # the presets on 50 x 50 axes; fig1c's fixed s keeps its one step
            table = SweepTable.concat(run_sweep(dataclasses.replace(
                spec, s_range=spec.s_range[:2] + (min(spec.s_range[2], 50),),
                nuisance_range=spec.nuisance_range[:2] + (50,)))
                for spec in figure_preset(source))
        out = tmp_path / f"{source}.{fmt}"
        emit(table, fmt, out)
        assert out.read_text() == cell_by_cell_text(table, fmt)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_edges_match_cell_by_cell_formatting(self, offset):
        """Tables one row short of, at, and one row past a chunk of each
        format, with and without deltas: every column holds a finite cell,
        so each has a slot and ``chunk_rows`` of them sets the chunk."""
        for fmt in ("csv", "json"):
            for oracle in (False, True):
                names = CSV_FIELDS + (DELTA_FIELDS if oracle else ())
                rows = float_text.chunk_rows(len(names)) + offset
                rng = np.random.default_rng(rows)
                pool = np.concatenate([
                    rng.standard_normal(64) * 10.0 ** rng.integers(-30, 30, 64),
                    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300]])
                table = SweepTable({n: rng.choice(pool, rows) for n in names},
                                   rng.random(rows) < 0.5)
                out = io.StringIO()
                emit(table, fmt, out)
                assert out.getvalue() == cell_by_cell_text(table, fmt)

    @pytest.mark.parametrize("kind", ["all-out-of-reach", "empty", "all-blank"])
    def test_edge_tables_match_cell_by_cell_formatting(self, kind):
        if kind == "all-out-of-reach":
            table = run_sweep(SweepSpec(mode="single", nuisance="concurrence", oracle=True,
                                        s_range=(0.01, 0.02, 3), nuisance_range=(0.5, 1.0, 4)))
            assert not table.reach.any()
        elif kind == "empty":
            table = table_of()
        else:
            table = SweepTable({n: np.full(3, math.nan) for n in CSV_FIELDS + DELTA_FIELDS},
                               np.array([False, True, False]))
        without_deltas = SweepTable({n: table.columns[n] for n in CSV_FIELDS}, table.reach)
        for fmt in ("csv", "json"):
            for each in (table, without_deltas):
                out = io.StringIO()
                emit(each, fmt, out)
                assert out.getvalue() == cell_by_cell_text(each, fmt)

    def test_infinite_cells_have_no_json_key(self):
        table = table_of(dict(s=1.0, sigma=1.0, f_st=math.inf),
                         dict(s=2.0, sigma=1.0, f_st=-math.inf, h_s=0.5))
        out = io.StringIO()
        emit(table, "json", out)
        assert out.getvalue() == cell_by_cell_text(table, "json")
        assert [sorted(row) for row in json.loads(out.getvalue())] == [
            ["s", "sigma", "status"], ["h_s", "s", "sigma", "status"]]


def preset_table(name, steps=50):
    """A figure preset's table on ``steps``-point axes (fig1c keeps its one
    ``s``)."""
    return SweepTable.concat(run_sweep(dataclasses.replace(
        spec, s_range=spec.s_range[:2] + (min(spec.s_range[2], steps),),
        nuisance_range=spec.nuisance_range[:2] + (steps,)))
        for spec in figure_preset(name))


def emitted(table, fmt):
    out = io.StringIO()
    emit(table, fmt, out)
    return out.getvalue()


class TestAxisColumns:
    """Fields computed on one sweep axis alone, or as a constant, carry their
    values and a row index; emit formats those values once and gives a field
    blank on every row no slot.  The bytes are those of the same table
    without axis data, and of per-cell formatting."""

    def check(self, table, formats=("csv", "json")):
        for name, (values, index) in table.axes.items():
            np.testing.assert_array_equal(table.columns[name], values[index], err_msg=name)
        plain = SweepTable(table.columns, table.reach)
        for fmt in formats:
            text = emitted(table, fmt)
            assert text == emitted(plain, fmt)
            assert text == cell_by_cell_text(table, fmt)

    @pytest.mark.parametrize("source, fmt", [
        *((name, "csv") for name in ("fig1a", "fig1b", "fig1c", "fig2a", "fig2b")),
        ("fig2a", "json"), ("fig2b", "json"), ("verify", "csv"), ("verify", "json"),
    ])
    def test_tables_emit_as_without_axes(self, source, fmt):
        if source == "verify":
            table = run_sweep(SweepSpec(mode="qfim", nuisance="theta", oracle=True,
                                        s_range=(1e-3, 5.0, 12),
                                        nuisance_range=(0.0, math.pi / 2, 12)))
        else:
            table = preset_table(source)
        if source != "fig1c":       # a table joined from several blocks has no axes
            assert {"s", "sigma", "d"} <= set(table.axes)
        self.check(table, formats=(fmt,))

    def test_one_index_per_axis(self):
        axes = run_sweep(SweepSpec(mode="qfim", nuisance="coherence",
                                   s_range=(0.5, 2.0, 4), nuisance_range=(0.0, 1.0, 3))).axes
        assert set(axes) == {"s", "sigma", "d", "theta", "gamma"}
        assert axes["s"][1] is axes["d"][1] and axes["theta"][1] is axes["gamma"][1]
        assert axes["s"][1].tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
        assert axes["gamma"][1].tolist() == [0, 1, 2] * 4
        assert axes["sigma"][0].tolist() == [1.0] and not axes["sigma"][1].any()
        np.testing.assert_array_equal(axes["s"][0], np.linspace(0.5, 2.0, 4))

    def test_concat(self):
        coherence, concurrence = (run_sweep(dataclasses.replace(spec, nuisance_range=(
            *spec.nuisance_range[:2], 7))) for spec in figure_preset("fig1c"))
        # every preset goes through concat, so a lone table keeps its axes
        assert SweepTable.concat([coherence]) is coherence
        assert {"s", "sigma", "d"} <= set(coherence.axes)
        blocks = [coherence, concurrence, coherence]
        table = SweepTable.concat(blocks)
        assert table.axes == {}
        for name, column in table.columns.items():
            np.testing.assert_array_equal(column, np.concatenate([t.columns[name] for t in blocks]))
        assert table.reach.tolist() == sum((t.reach.tolist() for t in blocks), [])
        self.check(table)

    def test_out_of_reach_rows_keep_only_the_kept_fields_on_an_axis(self, monkeypatch):
        """Out of reach, only ``s``, ``sigma``, ``C`` and ``d`` keep their
        value; a field of one axis that is blank there is emitted per cell."""
        from superres import sweep as sweep_mod

        block = sweep_mod._single_block
        monkeypatch.setattr(sweep_mod, "_single_block", lambda nuisance, u, *rest: {
            **block(nuisance, u, *rest), "f_tot": u * 2.0})
        table = run_sweep(small_single_spec(nuisance="concurrence",
                                            nuisance_range=(0.0, 1.0, 6)))
        assert set(table.reach.tolist()) == {True, False}
        assert set(table.axes) == {"s", "sigma", "C", "d"}
        assert np.isnan(table.columns["f_tot"][~table.reach]).all()
        self.check(table)
        coherence = run_sweep(small_single_spec())
        assert "f_tot" in coherence.axes
        self.check(coherence)

    def test_non_finite_axis_values_are_blank(self):
        index = np.repeat(np.arange(3), 2)
        columns = {n: np.full(6, math.nan) for n in CSV_FIELDS + DELTA_FIELDS}
        axes = {"s": (np.array([1.0, math.nan, 2.5]), index),
                "sigma": (np.array([math.inf]), np.zeros(6, np.intp)),
                "gamma": (np.array([-math.inf, 0.5]), np.tile([0, 1], 3)),
                "h_s": (np.array([math.nan, math.nan, math.nan]), index)}
        for name, (values, at) in axes.items():
            columns[name] = values[at]
        columns["f_ss"] = np.array([0.25, math.nan, 1e-300, -0.0, math.inf, 3.0])
        for names in (CSV_FIELDS, CSV_FIELDS + DELTA_FIELDS):
            self.check(SweepTable({n: columns[n] for n in names},
                                  np.array([True, False, True, True, False, True]), axes))

    @pytest.mark.parametrize("blank", [
        ("s", "sigma"), ("f_tot", "f_tt"), ("h_s", "h_nuisance"),
        ("s", "f_tot", "h_nuisance", "delta_f_tot", "delta_f_st"), CSV_FIELDS + DELTA_FIELDS,
    ])
    def test_blank_columns_have_no_slot(self, blank):
        """Runs of columns blank on every row at the start, middle and end of
        a row, and a table blank everywhere."""
        rng = np.random.default_rng(len(blank))
        columns = {n: math.nan if n in blank else rng.standard_normal(9) * 10.0 ** (
            rng.integers(-20, 20, 9)) for n in CSV_FIELDS + DELTA_FIELDS}
        columns = {n: np.broadcast_to(v, 9).astype(float) for n, v in columns.items()}
        columns["d"][2] = math.nan            # a blank cell in a populated column
        index = np.repeat(np.arange(3), 3)
        axes = {n: (columns[n][::3].copy(), index) for n in ("s", "sigma", "C") if n not in blank}
        for name, (values, at) in axes.items():
            columns[name] = values[at]
        reach = np.array([True, False, True] * 3)
        for names in (CSV_FIELDS + DELTA_FIELDS, CSV_FIELDS):
            table = SweepTable({n: columns[n] for n in names}, reach, axes)
            self.check(table)
        if blank == CSV_FIELDS + DELTA_FIELDS:
            assert emitted(table, "csv").splitlines()[1] == "," * len(CSV_FIELDS) + "ok"

    def test_axis_values_are_formatted_once(self, monkeypatch):
        """fig1a on 50 x 50 sends its per-cell populated cells and each
        distinct value of ``s``, ``sigma``, ``C`` and ``d`` to the CSV cell
        kernel once, not every populated cell."""
        from superres import sweep as sweep_mod

        sent = []
        kernel = sweep_mod.e16_cells
        monkeypatch.setattr(sweep_mod, "e16_cells", lambda v: sent.append(v.size) or kernel(v))
        table = preset_table("fig1a")
        axis_fields = ("s", "sigma", "C", "d")
        per_cell = sum(np.isfinite(table.columns[n]).sum() for n in CSV_FIELDS
                       if n not in axis_fields)
        assert per_cell == 5532 and len(table) == 2500
        emitted(table, "csv")
        assert sum(sent) == per_cell + 50 + 1 + 50 + 50       # not 5532 + 4 * 2500


class TestCsvCells:
    """The vectorized '%.16e' kernel of CSV emit, against '%' itself."""

    # exact ties, which round half to even and go to '%'
    TIES = [1e15 + 0.25, 1e15 + 0.75, -(1e15 + 0.25), 1e14 + 0.125]
    # outside [1e-280, 1e280], also formatted by '%'
    EXTREMES = [5e-324, -5e-324, 2.2250738585072014e-308, 1e-290, 1e290,
                1.7976931348623157e308, -1.7976931348623157e308]
    # the nearest floats to these powers of ten lie below them, and their 17
    # digits round up into the next decade
    DECADE_UP_EXPONENTS = (-243, -176, -79, -14, 98, 129, 220)
    DECADE_UP = [float(f"1e{n}") for n in DECADE_UP_EXPONENTS]
    CERTIFIED = [0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 2.5, 1 / 3, 1e23, -1e-23, 9.999999999999999e22,
                 math.nextafter(1.0, 0.0), math.nextafter(10.0, 0.0), 1e-280, 1e280,
                 *(float(f"1e{p}") for p in range(-5, 23)), *DECADE_UP]

    def test_named_values(self):
        values = self.TIES + self.EXTREMES + self.CERTIFIED
        texts, sure = e16_cell_texts(values)
        assert texts == ["%.16e" % v for v in values]
        assert texts[0] == "1.0000000000000002e+15"
        assert texts[-len(self.DECADE_UP):] == [
            f"1.0000000000000000e{n:+03d}" for n in self.DECADE_UP_EXPONENTS]
        # both branches run: the named fallback cells and the certified rest
        fallback = len(self.TIES) + len(self.EXTREMES)
        assert not sure[:fallback].any() and sure[fallback:].all()

    @staticmethod
    def near_ties(k, sign, count):
        """Floats x in [10**k, 10**(k + 1)) with x 10**(16 - k) at 1/2 +
        sign t / 2**J past an integer, t < 10**5 and J = j - e (48 to 64
        here): closer to a tie than the fast path's error bound, yet no tie."""
        e = 16 - k
        j = 52 - math.floor(math.log2(10.0**k))      # x = m 2**-j, m of 53 bits
        # the fraction of m 5**e / 2**(j - e) is set by m modulo 2**(j - e)
        big = 2 ** (j - e)
        inverse = pow(5, -e, big)
        low = math.ceil(math.ldexp(10.0**k, j))
        found = []
        for t in range(1, 10**5):
            m = (big // 2 + sign * t) * inverse % big
            m -= (m - low) // big * big               # the least such m >= low
            if m < 2**53 and 10.0**k <= (x := math.ldexp(m, -j)) < 10.0**(k + 1):
                found.append(x)
                if len(found) == count:
                    return found
        raise AssertionError(f"no near tie at k = {k}")

    def test_near_ties_go_to_the_fallback(self):
        values = [x for k in range(-12, -4) for sign in (1, -1)
                  for x in self.near_ties(k, sign, 5)]
        texts, sure = e16_cell_texts(values)
        assert texts == ["%.16e" % v for v in values]
        assert not sure.any()

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20101)
        certified = 0
        for _ in range(8):
            values = rng.integers(0, 2**64, 2**17, dtype=np.uint64).view(np.float64)
            values = values[np.isfinite(values)]
            texts, sure = e16_cell_texts(values)
            assert texts == ["%.16e" % v for v in values.tolist()]
            certified += sure.sum()
        # the fast path covers |x| in [1e-280, 1e280]: 91 % of the exponents
        assert certified > 0.9 * 8 * 2**17 * 2047 / 2048

    def test_certified_share_on_uniform_draws(self):
        values = np.random.default_rng(20102).random(10**5)
        texts, sure = e16_cell_texts(values)
        assert texts == ["%.16e" % v for v in values.tolist()]
        assert sure.mean() >= 0.99


class TestJsonCells:
    """The vectorized shortest-digit kernel of JSON emit, against repr."""

    NEIGHBOURS = [f(x) for x in (1e-4, 1e16) for f in (
        lambda x: math.nextafter(x, 0.0), lambda x: x, lambda x: math.nextafter(x, math.inf))]
    NAMED = [*NEIGHBOURS, 9.999999999999999e-05, 5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, 0.1, 1e23, 123.0, 0.0, -0.0, 1e15, 1e-5, 12.5, -2.5]

    def test_named_values(self):
        values = self.NAMED + [-v for v in self.NAMED]
        texts, sure = repr_cell_texts(values)
        assert texts == [repr(v) for v in values]
        assert texts[:6] == ["9.999999999999999e-05", "0.0001", "0.00010000000000000002",
                             "9999999999999998.0", "1e+16", "1.0000000000000002e+16"]
        # the fallback takes |x| outside [1e-280, 1e280], and 1e23, which
        # lies on an end of its float's interval (1e23 - 2**23, spacing 2**24)
        fallback = [abs(v) < 1e-280 and v != 0.0 or abs(v) > 1e280 or abs(v) == 1e23
                    for v in values]
        assert (sure == ~np.array(fallback)).all()

    @staticmethod
    def digits(v):
        """The decimal exponent and the count of shortest digits of repr(v)."""
        shortest = decimal.Decimal(repr(abs(v))).normalize()
        return shortest.adjusted(), len(shortest.as_tuple().digits)

    @classmethod
    def with_digits(cls, e, n):
        """The first float from ``n`` digits 1234567891... up whose repr has
        decimal exponent ``e`` and ``n`` digits."""
        m = int(("123456789" * 2)[:n])
        while cls.digits(v := float(f"{m}e{e - n + 1}")) != (e, n):
            m += 1
        return v

    def test_one_value_per_layout(self):
        """repr's every layout, with and without the sign: 1 to 17 digits in
        fixed notation with exponent -4 to 15, or in scientific notation with
        a two- or three-digit exponent of either sign; rows such as 1e15 ->
        "1000000000000000.0" that random floats seldom reach."""
        exponents = [*range(-4, 16), -5, 16, -99, 99, -100, 100, -308, 308]
        values = [s * self.with_digits(e, n) for e in exponents for n in range(1, 18)
                  for s in (1.0, -1.0)]

        def layout(v):
            e, n = self.digits(v)
            return v < 0, e if -4 <= e <= 15 else len(str(abs(e))), n

        assert {layout(v) for v in values} == {
            (sign, kind, n) for sign in (False, True) for n in range(1, 18)
            for kind in (*range(-4, 16), 2, 3)}
        values += [0.0, -0.0, 5e-324]
        texts, _ = repr_cell_texts(values)
        assert texts == [repr(v) for v in values]
        assert "1000000000000000.0" in texts
        assert max(map(len, texts)) == float_text.SLOT       # "-1.2345678912345683e-308"
        # each text starts its slot: the bytes no text writes all follow it
        slots, _ = float_text.repr_cells(np.array(values))
        written = slots != float_text.DROP
        assert (written.sum(axis=1) == [len(t) for t in texts]).all()
        assert (written[:, :-1] >= written[:, 1:]).all()

    def test_powers_of_two(self):
        values = [2.0**k for k in range(-1074, 1024)]
        texts, sure = repr_cell_texts(values)
        assert texts == [repr(v) for v in values]
        # certified where 15 digits read back: 2**-1 .. 2**49 among them
        assert sure[[1074 + k for k in range(-1, 50)]].all()

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20121)
        certified = 0
        for _ in range(8):
            values = rng.integers(0, 2**64, 2**17, dtype=np.uint64).view(np.float64)
            values = values[np.isfinite(values)]
            texts, sure = repr_cell_texts(values)
            assert texts == [repr(v) for v in values.tolist()]
            certified += sure.sum()
        # the fast path covers |x| in [1e-280, 1e280]: 91 % of the exponents
        assert certified > 0.9 * 8 * 2**17 * 2047 / 2048

    def test_rounded_decimals(self):
        rng = np.random.default_rng(20122)
        values = np.concatenate([np.round(rng.random(2000) * 10.0**e, d)
                                 for e in range(7) for d in range(12)])
        texts, sure = repr_cell_texts(values)
        assert texts == [repr(v) for v in values.tolist()]
        assert sure.mean() >= 0.99

    def test_certified_share_on_uniform_draws(self):
        values = np.random.default_rng(20123).random(10**5)
        texts, sure = repr_cell_texts(values)
        assert texts == [repr(v) for v in values.tolist()]
        assert sure.mean() >= 0.99
