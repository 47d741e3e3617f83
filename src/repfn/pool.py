"""Seeded pools of set descriptors for the verification suites and tests.

Pool construction is deterministic for a fixed seed, so any reported
failure can be replayed from the seed alone.
"""

from __future__ import annotations

import random

from .constants import DEFAULT_SEED
from .sets import (
    FiniteSet,
    IntegerSet,
    PeriodicSet,
    PowersOfTwo,
    complement,
    complement_prefix,
    parse_set_spec,
    shift_down,
)
from .witnesses import decrease_case_resolvable


def random_periodic(rng: random.Random, require_zero_in_period: bool = False) -> PeriodicSet:
    pre_len = rng.randint(0, 8)
    per_len = rng.randint(1, 12)
    pre = "".join(rng.choice("01") for _ in range(pre_len))
    per = "".join(rng.choice("01") for _ in range(per_len))
    if require_zero_in_period and "0" not in per:
        pos = rng.randrange(per_len)
        per = per[:pos] + "0" + per[pos + 1 :]
    return PeriodicSet(pre, per)


def random_cofinite(rng: random.Random, max_size: int = 5) -> IntegerSet:
    """Complement of a small random finite set of values up to 48."""
    size = rng.randint(1, max_size)
    values = sorted(rng.sample(range(49), size))
    return complement(FiniteSet(tuple(values)))


def periodic_pool(count: int, seed: int = DEFAULT_SEED) -> list[PeriodicSet]:
    rng = random.Random(seed)
    return [random_periodic(rng) for _ in range(count)]


def mixed_pool(count: int, seed: int = DEFAULT_SEED) -> list[IntegerSet]:
    """A varied pool: a few fixed landmarks, then random descriptors."""
    rng = random.Random(seed)
    landmarks: list[IntegerSet] = [
        FiniteSet(),
        complement(FiniteSet()),
        PowersOfTwo(),
        complement(PowersOfTwo()),
    ]
    out = landmarks[:count]
    while len(out) < count:
        roll = rng.random()
        if roll < 0.45:
            out.append(random_periodic(rng))
        elif roll < 0.8:
            out.append(random_cofinite(rng))
        else:
            s = random_periodic(rng)
            m = s.next_value(0)
            out.append(s if m is None else shift_down(s, rng.randint(0, m)))
    return out


# One handcrafted set per predictor case, including two clean gap instances
# where no further value is missing below c1 + c2 + 2.
_DECREASE_EXEMPLARS = (
    "complement(finite:1,3,5)",  # c1 odd
    "complement(finite:2,5,9)",  # c1 even, c2 odd
    "complement(finite:2,4,5)",  # c3 adjacent to c2
    "complement(finite:2,4,8)",  # gap, clean
    "complement(finite:2,4,7)",  # gap with c3 inside [c2 + 2, c1 + c2 + 1]
    "complement(finite:2,8,12)",  # gap, clean
    "complement(finite:0,3,8)",  # 0 missing, resolved after a shift
)


def decrease_pool(count: int, seed: int = DEFAULT_SEED) -> list[IntegerSet]:
    """Sets missing at least three values, restricted to those whose
    decrease case is resolvable."""
    rng = random.Random(seed)
    out = [parse_set_spec(s) for s in _DECREASE_EXEMPLARS]
    while len(out) < count:
        s: IntegerSet
        if rng.random() < 0.7:
            s = random_periodic(rng, require_zero_in_period=True)
        else:
            s = random_cofinite(rng, max_size=8)
        if len(complement_prefix(s, 3)) < 3 or not decrease_case_resolvable(s):
            continue
        out.append(s)
    return out[:count]
