"""The benchmark's span tracer still finds every function it wraps by name.

``perfbench/workloads.install_tracer`` wraps package functions by their
attribute names, so renaming or removing one of them breaks
``perfbench/run.py --trace 1``.  This test installs the tracer on a fresh
``spantrace.Tracer`` and always uninstalls it again.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
