"""The benchmark tracer (e2ebench/tracer.py) finds every library name it wraps.

Traced benchmark runs (run.py --trace 1) resolve function and method names
in the qschur modules; a name that leaves the library must leave the tracer
too, or traced runs break while untraced ones pass.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import qschur

TRACER = Path(__file__).resolve().parent.parent / "e2ebench" / "tracer.py"


def test_tracer_installs_and_uninstalls():
    for mod in pkgutil.iter_modules(qschur.__path__):
        importlib.import_module("qschur." + mod.name)
    spec = importlib.util.spec_from_file_location("e2ebench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    solve = qschur.qmatrix.solve
    t = tracer.Tracer()
    try:
        t.install()
        assert qschur.qmatrix.solve is not solve
    finally:
        t.uninstall()
    assert qschur.qmatrix.solve is solve
