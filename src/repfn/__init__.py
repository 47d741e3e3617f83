"""Additive representation functions over decidable integer sets.

r1 counts ordered member pairs summing to n, r2 the pairs with a <= b,
and r3 the pairs with a < b.  The package computes them pointwise and in
bulk, reports monotonicity failures and densities, and produces verified
counterexample witnesses and bounds.

Importing the package runs none of its library modules.  Each is bound
here as a lazy module (`importlib.util.LazyLoader`), which runs the first
time one of its attributes is read, and each name of `__all__` is read
from its module on access (PEP 562).  So a process imports numpy only once
it reads `core`, `monotonicity`, `witnesses`, `pool` or `verify`.  Being
bound from the start, every library module is in `sys.modules` before it
runs, so code that patches functions in the loaded modules reaches all of
them.  `cli` and `__main__` are entry points and import as usual.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "RepKind": "core",
    "RepTable": "core",
    "batch_table": "core",
    "closed_form": "core",
    "r1_array_via_complement": "core",
    "r1_at": "core",
    "r1_via_complement": "core",
    "r2_at": "core",
    "r3_at": "core",
    "sparse_r1": "core",
    "render_diagram": "diagram",
    "BudgetExceededError": "errors",
    "EmptySetError": "errors",
    "InsufficientComplementError": "errors",
    "RepfnError": "errors",
    "SelfCheckError": "errors",
    "SetSpecError": "errors",
    "ViolationReport": "monotonicity",
    "find_violations": "monotonicity",
    "DensityEstimate": "sets",
    "natural_density_estimate": "sets",
    "FiniteSet": "sets",
    "IntegerSet": "sets",
    "PeriodicSet": "sets",
    "PowersOfTwo": "sets",
    "complement": "sets",
    "complement_prefix": "sets",
    "contains": "sets",
    "eventual_form": "sets",
    "min_element": "sets",
    "parse_set_spec": "sets",
    "shift_down": "sets",
    "DecreaseCase": "witnesses",
    "DecreaseWitness": "witnesses",
    "WindowRefutation": "witnesses",
    "almost_monotone_set": "witnesses",
    "check_block_values": "witnesses",
    "first_r2_decrease_bruteforce": "witnesses",
    "predict_r2_decrease": "witnesses",
    "refute_strict_increase": "witnesses",
    "violation_bound": "witnesses",
}
__all__ = list(_EXPORTS)


def _lazy_module(name: str):
    """`import repfn.<name>`, except that the module runs when one of its
    attributes is first read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


constants, core, diagram, errors, monotonicity, pool, sets, verify, witnesses = map(
    _lazy_module, ("constants", "core", "diagram", "errors", "monotonicity", "pool", "sets", "verify", "witnesses")
)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
