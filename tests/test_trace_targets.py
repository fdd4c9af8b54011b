"""The benchmark's tracer finds every library attribute it wraps.

``perfbench/spans.py`` wraps module attributes by name; a renamed or
removed one would otherwise surface only when the benchmark runs traced.
"""

import importlib.util
import sys
from pathlib import Path

import gibbsmpo  # noqa: F401  (loads every submodule the tracer wraps)


def load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_target():
    spans = load_spans()
    targets = [(sys.modules[f"gibbsmpo.{mod}"], attr)
               for mod, attr, _, _ in spans.TARGETS if "." not in attr]
    originals = [getattr(module, attr) for module, attr in targets]
    with spans.Tracer("t").installed():
        for (module, attr), original in zip(targets, originals):
            assert getattr(module, attr).__wrapped__ is original, attr
    for (module, attr), original in zip(targets, originals):
        assert getattr(module, attr) is original, attr
