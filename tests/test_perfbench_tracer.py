"""The benchmark's span tracer still finds every function it wraps by name,
and every span its per-layer metrics read still records calls.

``perfbench/workloads.install_tracer`` wraps package functions by their
attribute names, so renaming or removing one of them breaks
``perfbench/run.py --trace 1``.  A function that is renamed away from the
path the scan takes breaks it silently instead: its span records no
calls and the layer metric built on it reads 0.  These tests install the
tracer on a fresh ``spantrace.Tracer`` and always uninstall it again.
"""

import os
import sys
from pathlib import Path
from types import SimpleNamespace

from projclust import clusterer, datagen, experiments
from projclust.clusterer import ClusterConfig
from projclust.mathkit import RngStream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Spans that layer metrics read but that no scan reaches: the scan fits
# moments through learner1d's private unit-coordinate helpers.
KNOWN_DEAD = {"learner1d.central_moments", "learner1d.fit_mom"}


def _import_perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spantrace
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return spantrace, workloads


def test_install_tracer_wraps_and_restores_every_named_function():
    spantrace, workloads = _import_perfbench()
    tracer = spantrace.Tracer()
    try:
        workloads.install_tracer(tracer)
        installed = list(tracer._installed)
        assert installed
        for owner, attr, fn in installed:
            assert getattr(owner, attr).__wrapped__ is fn
    finally:
        tracer.uninstall()
    for owner, attr, fn in reversed(installed):
        assert getattr(owner, attr) is fn


class _RecordedReads(dict):
    """Span totals that remember every span name looked up in them."""

    def __init__(self, totals):
        super().__init__(totals)
        self.names = set()

    def get(self, name, default=None):
        self.names.add(name)
        return super().get(name, default)


def test_every_span_a_layer_metric_reads_records_calls(tmp_path):
    spantrace, workloads = _import_perfbench()
    tracer = spantrace.Tracer()
    try:
        workloads.install_tracer(tracer)
        # The calls each workload makes: a dataset written and read back,
        # one default-learner scan on it, and one harness cell.
        spec = datagen.make_spherical_spec(20, 1.0)
        path = os.path.join(tmp_path, "d")
        datagen.write_dataset(datagen.sample_dataset(spec, 2000, RngStream(1, 0)), path)
        data = datagen.read_dataset(path)
        clusterer.cluster_gmm(data, ClusterConfig(1e-6, 6, seed=1, learner="mom+em"))
        # A cell that meets its target, which is when the harness calls
        # the pushforward (projected_mixture); this one does at direction 2.
        experiments.rank_proj(zeta_list=(0.035,), repeats=1, max_budget=5, seed=5)
    finally:
        tracer.uninstall()

    totals = _RecordedReads(tracer.totals())
    tracer.totals = lambda: totals
    workloads.layer_metrics(tracer, SimpleNamespace(n=2000, p=20), 1.0, 1.0)
    assert {"projection.projected_mixture", "datagen.sample_dataset",
            "bounds.expected_projections_nonspherical",
            "learner1d.bayes_thresholds"} <= totals.names
    silent = {name for name in totals.names
              if dict.get(totals, name, {"calls": 0})["calls"] == 0}
    assert silent == KNOWN_DEAD
