"""The holorm names the benchmark tracer wraps must keep resolving."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    # perfbench/tracing.py looks each (module, attribute) up when it installs
    # its spans; a name missing here breaks every traced benchmark run
    tracing = _tracing()
    missing = [f"{m}.{a}" for m, a in tracing.TRACED.values()
               if not hasattr(importlib.import_module(m), a)]
    assert not missing
    importlib.import_module(tracing.SAMPLING_MODULE)
