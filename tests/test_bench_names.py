"""The names the benchmark's tracer reaches in the package still exist.

bench/spans.py wraps package functions by (module, attribute), and counts
ring calls on the classes it finds in the namespace of cleanmatrix.rings; a
rename, a deletion or a class moved out of that module would otherwise
surface only in a traced benchmark run, as counters that read 0."""

import importlib
import importlib.util
from pathlib import Path

from cleanmatrix import rings
from cleanmatrix.literals import parse_ring

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_on_the_package():
    spans = _load("spans")
    names = [(mod, attr) for mod, attr, _ in spans.SPANS + spans.COUNTED_FUNCTIONS]
    names += [("matrices", "conjugate"), ("bruteforce", "_TABLE_CACHE")]
    for mod, attr in names:
        module = importlib.import_module(f"cleanmatrix.{mod}")
        assert hasattr(module, attr), f"bench/spans.py reaches cleanmatrix.{mod}.{attr}"


def test_counted_ring_methods_live_in_the_rings_namespace():
    # every class that defines a counted method, on the MRO of each ring a
    # workload builds and of its residue field, is one the tracer finds
    spans, inputs = _load("spans"), _load("inputs")
    counted = [v for v in vars(rings).values() if isinstance(v, type)]
    specs = {lits.spec for w in inputs.WORKLOADS.values() for lits in w.rings}
    checked = set()
    for spec in sorted(specs):
        R = parse_ring(spec)
        owners = [R] if R.family == "Integers" else [R, R.residue_view().field]
        for ring in owners:
            for cls in type(ring).__mro__:
                if any(meth in vars(cls) for meth in spans.RING_METHODS):
                    assert cls in counted, f"{spec}: {cls.__name__} is not in rings"
                    checked.add(cls.__name__)
    assert {"FiniteRing", "IntegerRing", "LocalizedIntegersRing", "LocalRing"} <= checked
