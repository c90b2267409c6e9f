"""The benchmark's layer table names functions the package still defines."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_target_resolves_as_the_tracer_installs_it():
    # Tracer.install reads owner.__dict__[attr] on the defining module or
    # class, so a deleted target fails here, not only in a --trace 1 run
    for metric, targets in load_tracing().LAYERS.items():
        for modname, path in targets:
            owner = importlib.import_module(f"microdiff.{modname}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__.get(attr)
            assert callable(raw) or isinstance(raw, classmethod), (metric, modname, path)
