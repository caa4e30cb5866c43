"""Every entry point the benchmark's tracer wraps (`perfbench/tracer.py`,
`TARGETS`) still exists under its name, in the module that defines it, so
renaming or moving a traced function fails here and not only in the
benchmark's own tests."""

import importlib.util
from pathlib import Path

from unrealizer import clia, gfa, newton

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_attribute_resolves_in_its_module():
    targets = _targets()
    assert targets
    for layer, owner, attr in targets:
        if isinstance(owner, type):
            fn = owner.__dict__.get(attr)
            home = owner.__module__
        else:
            fn = getattr(owner, attr, None)
            home = owner.__name__
        assert callable(fn), (layer, attr)
        assert fn.__module__ == home, (layer, attr, fn.__module__)


def test_clia_binds_the_traced_solvers_by_name():
    # the tracer wraps every binding of a function object, so `clia`'s
    # own names must be the functions `newton` and `gfa` define
    assert clia.npa_solve is newton.npa_solve
    assert clia.stratify is gfa.stratify
