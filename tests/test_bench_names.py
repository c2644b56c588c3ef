"""The names the benchmark's tracer reaches in the package still exist.

bench/spans.py wraps package functions by (module, attribute); a rename or a
deletion there would otherwise surface only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_on_the_package():
    spans = _load_spans()
    names = [(mod, attr) for mod, attr, _ in spans.SPANS + spans.COUNTED_FUNCTIONS]
    names += [("matrices", "conjugate"), ("bruteforce", "_TABLE_CACHE")]
    for mod, attr in names:
        module = importlib.import_module(f"cleanmatrix.{mod}")
        assert hasattr(module, attr), f"bench/spans.py reaches cleanmatrix.{mod}.{attr}"
