"""The benchmark's layer tracer (`bench/layertrace.py`) looks up every
function in its `LAYERS` table on the polystate module of that name when
`bench/run.py --trace 1` starts; a name that no longer resolves breaks the
traced run. This checks the table against the package without installing
the tracer."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_resolves():
    layers = load_layertrace().LAYERS
    missing = [f"{layer}.{fn}" for layer, fns in layers.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"polystate.{layer}"), fn, None))]
    assert layers and not missing
