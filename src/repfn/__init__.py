"""Additive representation functions over decidable integer sets.

r1 counts ordered member pairs summing to n, r2 the pairs with a <= b,
and r3 the pairs with a < b.  The package computes them pointwise and in
bulk, reports monotonicity failures and densities, and produces verified
counterexample witnesses and bounds.
"""

from .core import (
    RepKind,
    RepTable,
    batch_table,
    closed_form,
    r1_array_via_complement,
    r1_at,
    r1_via_complement,
    r2_at,
    r3_at,
    sparse_r1,
)
from .diagram import render_diagram
from .errors import (
    BudgetExceededError,
    EmptySetError,
    InsufficientComplementError,
    RepfnError,
    SelfCheckError,
    SetSpecError,
)
from .monotonicity import (
    DensityEstimate,
    ViolationReport,
    find_violations,
    natural_density_estimate,
)
from .sets import (
    Complement,
    FiniteSet,
    IntegerSet,
    PeriodicSet,
    PowersOfTwo,
    Shifted,
    complement,
    complement_prefix,
    contains,
    eventual_form,
    min_element,
    parse_set_spec,
    shift_down,
)
from .witnesses import (
    DecreaseCase,
    DecreaseWitness,
    WindowRefutation,
    almost_monotone_set,
    check_block_values,
    first_r2_decrease_bruteforce,
    predict_r2_decrease,
    refute_strict_increase,
    violation_bound,
)

__version__ = "0.1.0"
