"""Tests of the benchmark's own logic.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
They feed hand-made inputs to the benchmark's helpers and checkers; none
of them times anything.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spantrace import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_declared_names_follow_the_grammar():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(run.valid_metric_name(name) for name in names)


@pytest.mark.parametrize("name", ["", "a b", "a/b", ".a", "_a", "é", "a" * 65])
def test_bad_names_are_rejected(name):
    assert not run.valid_metric_name(name)


def test_emitted_metrics_match_the_declaration():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared_e2e == {k: unit for k, (unit, _) in run.END_TO_END.items()}
    layers, report_only = wl.layer_metrics(Tracer(), wl.WORKLOADS["small-em"], 1.0, 1.0)
    declared_layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_layers == {k: unit for k, (_, unit) in layers.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(wl.WORKLOADS)
    assert all(run.valid_metric_name(k) for k in report_only)


def test_count_metrics_are_not_speedups():
    for m in BENCHMARK["per_layer"]:
        if m["name"].endswith(("_calls", "calls_per_fit", "_mean", ".calls")):
            assert m["unit"] == "count", m


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert wl.percentile(range(99), 0.9) is None
    assert wl.percentile(range(100), 0.9) == 89        # 90..99 lie beyond
    assert wl.percentile(range(200), 0.9) == 179


def test_median_is_nearest_rank():
    assert wl.percentile([3, 1, 2] * 10, 0.5) == 2
    assert wl.percentile(range(19), 0.5) is None         # 9 beyond
    assert wl.percentile(range(20), 0.5) == 9


# ---------------------------------------------------------------------------
# inputs from the seed
# ---------------------------------------------------------------------------

SMALL = dataclasses.replace(wl.WORKLOADS["wide-mom"], n=300, p=7)


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    a = SMALL.make_dataset(5, 0, str(tmp_path / "a"))
    b = SMALL.make_dataset(5, 0, str(tmp_path / "b"))
    c = SMALL.make_dataset(6, 0, str(tmp_path / "c"))
    d = SMALL.make_dataset(5, 1, str(tmp_path / "d"))
    assert a.points.tobytes() == b.points.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert a.points.tobytes() != c.points.tobytes()
    assert a.points.tobytes() != d.points.tobytes()
    h = wl.WORKLOADS["harness-rank"]
    for i in range(10):
        assert SMALL.config(5, i) == SMALL.config(5, i)
        assert h.args(5, i) == h.args(5, i)
    seeds = {wl.op_seed(5, "wide-mom", i) for i in range(100)}
    assert len(seeds) == 100 and all(0 <= s < 2**63 for s in seeds)
    assert wl.op_seed(5, "wide-mom", 0) != wl.op_seed(6, "wide-mom", 0)
    assert wl.op_seed(5, "wide-mom", 0) != wl.op_seed(5, "small-em", 0)


def test_wide_mom_op_mix():
    w = wl.WORKLOADS["wide-mom"]
    targets = [w.config(1, i).target_error for i in range(10)]
    assert targets == [0.25] * 4 + [0.002] + [0.25] * 4 + [0.002]
    assert w.config(1, 0).budget == 21


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scanned(tmp_path_factory):
    w = dataclasses.replace(SMALL, n=2000, p=10, c=2.0, targets=(0.1,))
    data = w.make_dataset(3, 0, str(tmp_path_factory.mktemp("d") / "x"))
    cfg = w.config(3, 0)
    outcome = wl.clusterer.cluster_gmm(data, cfg)
    return outcome, cfg, w.p


BOUNDARY_FIELDS = ("direction", "thresholds", "orientation")
OUTCOME_FIELDS = ("projections_used", "estimated_error", "achieved",
                  "gamma_hat", "c_hat")


def corrupt(outcome, **changes):
    """A duck-typed copy of an outcome with some fields replaced."""
    b = {f: changes.get(f, getattr(outcome.boundary, f)) for f in BOUNDARY_FIELDS}
    o = {f: changes.get(f, getattr(outcome, f)) for f in OUTCOME_FIELDS}
    return types.SimpleNamespace(boundary=types.SimpleNamespace(**b), **o)


def test_checker_accepts_a_real_outcome(scanned):
    outcome, cfg, p = scanned
    assert wl.check_outcome(outcome, cfg, p) == []
    assert wl.check_outcome(corrupt(outcome), cfg, p) == []


CORRUPTIONS = {
    "no projections": lambda o: {"projections_used": 0},
    "over budget": lambda o: {"projections_used": 10_000},
    "error above 0.5": lambda o: {"estimated_error": 0.7},
    "error nan": lambda o: {"estimated_error": math.nan},
    "achieved flipped": lambda o: {"achieved": not o.achieved},
    "direction not unit": lambda o: {"direction": 2.0 * o.boundary.direction},
    "direction nan": lambda o: {"direction": np.append(o.boundary.direction[1:], np.nan)},
    "direction short": lambda o: {"direction": o.boundary.direction[:-1]},
    "thresholds unsorted": lambda o: {"thresholds": np.array([1.0, 0.0])},
    "threshold inf": lambda o: {"thresholds": np.array([np.inf])},
    "three thresholds": lambda o: {"thresholds": np.array([0.0, 1.0, 2.0])},
    "orientation 2": lambda o: {"orientation": 2},
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_checker_rejects_a_corrupted_outcome(scanned, name):
    outcome, cfg, p = scanned
    bad = corrupt(outcome, **CORRUPTIONS[name](outcome))
    assert wl.check_outcome(bad, cfg, p)


GOOD_ROW = {"seed": 1, "rep": 0, "p": 200, "c": 0.5, "zeta": 0.1, "r": 60,
            "n": 5000, "target_error": 0.04, "projections": 5, "achieved": 1,
            "bound_projections": math.inf}


@pytest.mark.parametrize("changes", [
    {"c": math.nan},
    {"bound_projections": -math.inf},
    {"projections": 101},
    {"projections": 0},
    {"achieved": 0},          # gave up before the budget ran out
    {"achieved": 2},
])
def test_harness_checker_rejects_bad_rows(changes):
    w = wl.WORKLOADS["harness-rank"]
    assert wl.check_harness_rows([GOOD_ROW], w) == []
    assert wl.check_harness_rows([{**GOOD_ROW, **changes}], w)
    assert wl.check_harness_rows([GOOD_ROW, GOOD_ROW], w)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_self_time_and_uninstall():
    ns = types.SimpleNamespace()
    ns.leaf = lambda x: x + 1
    ns.outer = lambda x: ns.leaf(x) * 2

    def gen(k):
        for i in range(k):
            yield ns.leaf(i)

    ns.gen = gen
    originals = (ns.leaf, ns.outer, ns.gen)
    tracer = Tracer()
    tracer.wrap(ns, "leaf", "leaf", observe=lambda r: r)
    tracer.wrap(ns, "outer", "outer")
    tracer.wrap(ns, "gen", "gen", generator=True)
    assert ns.outer(1) == 4
    assert list(ns.gen(3)) == [1, 2, 3]
    tracer.uninstall()
    assert (ns.leaf, ns.outer, ns.gen) == originals

    totals = tracer.totals()
    assert totals["leaf"]["calls"] == 4 and totals["outer"]["calls"] == 1
    assert totals["gen"]["calls"] == 4                  # 3 items + exhaustion
    assert tracer.observed["leaf"] == [2, 1, 2, 3]
    outer = next(s for s in tracer.spans if s.name == "outer")
    leaf = tracer.spans[tracer.spans.index(outer) + 1]
    assert leaf.parent == tracer.spans.index(outer)
    assert 0.0 <= outer.self_s <= outer.duration
    assert math.isclose(outer.child_s, leaf.duration)


def test_tracer_records_raised_calls():
    ns = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = Tracer()
    tracer.wrap(ns, "boom", "boom")
    with pytest.raises(ZeroDivisionError):
        ns.boom()
    assert tracer.totals()["boom"]["raised"] == 1


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def test_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = BENCHMARK["command"] + ["--workload", "small-em", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
