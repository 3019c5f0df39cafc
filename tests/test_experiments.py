"""Experiment harness: row schemas, determinism, bound columns."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from projclust.experiments import (
    ACC_VS_SEP_FIELDS,
    ERR_VS_PROJ_FIELDS,
    EXPERIMENTS,
    GAMMA_CDF_FIELDS,
    PROJ_VS_SEP_FIELDS,
    RANK_ACC_FIELDS,
    RANK_PROJ_FIELDS,
    acc_vs_sep,
    err_vs_proj,
    gamma_cdf,
    proj_vs_sep,
    rank_acc,
    rank_proj,
    sample_gamma_values,
    write_csv,
)
from projclust.learner1d import LEARNERS
from projclust.mathkit import q_function

# Every experiment at a size that runs in well under a second.
TINY_ARGS = {
    "gamma-cdf": dict(p=50, directions=2000, grid_points=8),
    "acc-vs-sep": dict(p_list=(10,), c_list=(1.0, 2.0), n=500, budget=4,
                       repeats=2),
    "proj-vs-sep": dict(p=20, c_list=(1.0, 2.0), n=500, repeats=2,
                        max_budget=10),
    "err-vs-proj": dict(p=20, n=500, budget=4, repeats=2),
    "rank-acc": dict(p=20, zeta_list=(0.1, 0.5), n=500, budget=4, repeats=2),
    "rank-proj": dict(p=20, c=1.0, zeta_list=(0.1, 0.5), n=500,
                      target_error=0.2, repeats=2, max_budget=10),
}


class TestGammaCdf:
    def test_rows_and_monotone_cdf(self):
        rows = gamma_cdf(p=300, c=1.0, directions=20_000, seed=3, grid_points=40)
        assert set(rows[0]) == set(GAMMA_CDF_FIELDS)
        cdf = [r["cdf_empirical"] for r in rows]
        assert all(a <= b for a, b in zip(cdf, cdf[1:]))
        assert rows[0]["cdf_empirical"] == 0.0

    def test_bound_column_below_empirical(self):
        rows = gamma_cdf(p=300, c=1.0, directions=20_000, seed=3, grid_points=40)
        n = 20_000
        for r in rows:
            emp = r["prob_exceed_empirical"]
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / n)
            assert r["prob_exceed_bound"] <= emp + 4 * se

    def test_deterministic(self):
        a = gamma_cdf(p=100, c=0.5, directions=5_000, seed=1, grid_points=10)
        b = gamma_cdf(p=100, c=0.5, directions=5_000, seed=1, grid_points=10)
        assert a == b

    def test_sample_gamma_values_mean_square(self):
        g = sample_gamma_values(500, 1.0, 50_000, seed=7)
        assert float(np.mean(g**2)) == pytest.approx(1.0, abs=0.05)

    def test_mass_above_c_at_reference_scale(self):
        rows = gamma_cdf(p=1000, c=1.0, directions=30_000, seed=2,
                         grid_points=60)
        at_c = min(rows, key=lambda r: abs(r["gamma"] - 1.0))
        assert 0.25 < at_c["prob_exceed_empirical"] < 0.45


class TestAccVsSep:
    def test_schema_and_bounds_columns(self):
        rows = acc_vs_sep(p_list=(20,), c_list=(1.0, 2.0), n=2000, budget=8,
                          repeats=2, seed=5)
        assert len(rows) == 4
        assert set(rows[0]) == set(ACC_VS_SEP_FIELDS)
        for r in rows:
            assert r["bound_q_1d"] == pytest.approx(q_function(r["c"]))
            assert r["bound_q_hd"] == pytest.approx(
                q_function(0.5 * r["c"] * math.sqrt(r["p"]))
            )
            assert 0.0 <= r["min_true_error"] <= 0.5
            assert r["min_true_error"] <= r["true_error_at_best_estimate"] + 1e-12

    def test_seed_and_rep_recorded(self):
        rows = acc_vs_sep(p_list=(10,), c_list=(1.0,), n=1000, budget=4,
                          repeats=3, seed=9)
        assert [r["rep"] for r in rows] == [0, 1, 2]
        assert all(r["seed"] == 9 for r in rows)

    def test_nongaussian_shape(self):
        rows = acc_vs_sep(p_list=(50,), c_list=(2.0,), n=2000, budget=8,
                          repeats=1, seed=5, shape="uniform")
        assert rows[0]["min_true_error"] <= 0.1


class TestProjVsSep:
    def test_schema_and_bound(self):
        rows = proj_vs_sep(p=50, c_list=(1.5,), n=2000, target_error=0.2,
                           repeats=3, seed=6, max_budget=50)
        assert set(rows[0]) == set(PROJ_VS_SEP_FIELDS)
        for r in rows:
            assert 1 <= r["projections"] <= 50
            assert r["bound_projections"] >= 1.0

    def test_budget_cap_reported(self):
        rows = proj_vs_sep(p=50, c_list=(0.1,), n=2000, target_error=0.01,
                           repeats=2, seed=6, max_budget=5)
        assert all(r["projections"] == 5 and r["achieved"] == 0 for r in rows)


class TestErrVsProj:
    def test_prefix_min_non_increasing(self):
        rows = err_vs_proj(p=30, c=2.0, n=2000, budget=10, repeats=2, seed=7)
        assert set(rows[0]) == set(ERR_VS_PROJ_FIELDS)
        for rep in (0, 1):
            series = [r["best_true_error"] for r in rows if r["rep"] == rep]
            assert len(series) == 10
            assert all(a >= b - 1e-15 for a, b in zip(series, series[1:]))


class TestFixedBudgetTablesAgree:
    @pytest.mark.parametrize("learner", LEARNERS)
    def test_acc_rows_match_err_rows_at_the_budget(self, learner):
        # One (p, c) cell of acc_vs_sep and err_vs_proj use the same cell
        # indices, hence the same data and directions, so each acc row is
        # the err row at m = budget, earliest-on-ties choice included.
        for p, c in ((10, 1.0), (30, 0.5), (5, 2.0)):
            kwargs = dict(n=600, budget=7, repeats=3, seed=11, learner=learner)
            acc = acc_vs_sep(p_list=(p,), c_list=(c,), **kwargs)
            err = err_vs_proj(p, c, **kwargs)
            at_budget = [r for r in err if r["m"] == kwargs["budget"]]
            assert [r["rep"] for r in at_budget] == [r["rep"] for r in acc]
            for a, e in zip(acc, at_budget):
                assert a["min_true_error"] == e["best_true_error"]
                assert (a["true_error_at_best_estimate"]
                        == e["true_error_at_best_estimate"])


class TestRankExperiments:
    def test_rank_acc_schema(self):
        rows = rank_acc(p=60, c=0.5, zeta_list=(0.1, 0.34), n=1500, budget=10,
                        repeats=2, seed=8)
        assert set(rows[0]) == set(RANK_ACC_FIELDS)
        rs = {r["zeta"]: r["r"] for r in rows}
        assert rs[0.1] == 18 and rs[0.34] == 60

    def test_rank_proj_schema_and_bound_column(self):
        rows = rank_proj(p=60, c=1.0, zeta_list=(0.1,), n=1500,
                         target_error=0.1, repeats=2, seed=8, max_budget=200)
        assert set(rows[0]) == set(RANK_PROJ_FIELDS)
        assert all(r["bound_projections"] > 0 for r in rows)


class TestHarness:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "gamma-cdf", "acc-vs-sep", "proj-vs-sep", "err-vs-proj",
            "rank-acc", "rank-proj",
        }

    def test_write_csv_roundtrip(self, tmp_path):
        rows = [{"a": 1, "b": 2.5}, {"a": 2, "b": -1.0}]
        path = os.path.join(tmp_path, "t.csv")
        write_csv(path, ("a", "b"), rows)
        text = Path(path).read_text()
        assert text.splitlines()[0] == "a,b"
        assert len(text.splitlines()) == 3

    @pytest.mark.parametrize("name", sorted(TINY_ARGS))
    def test_rerun_gives_identical_rows(self, name):
        runner, _ = EXPERIMENTS[name]
        kwargs = TINY_ARGS[name]
        assert runner(seed=4, **kwargs) == runner(seed=4, **kwargs)
