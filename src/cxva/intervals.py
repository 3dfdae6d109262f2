"""The one format, membership test and message of every number range that
the library classes and the scenario table check.

An interval is (lo, hi, brackets), e.g. (0.0, 1.0, "[)") for [0, 1). Each
library module declares its fields' intervals once and checks them with
``bounded``; ``cxva.scenario``'s SCHEMA reads the same objects. Every value
``bounded`` accepts is finite: NaN lies in no interval, and a closed end at
infinity, as in an integer's [1, inf], holds no infinity.
"""

import math

import numpy as np

FINITE = (-math.inf, math.inf, "()")
# every rate and spread, a curve's included: (-100 %, 100 %] a year
RATE = (-1.0, 1.0, "(]")
FRACTION = (0.0, 1.0, "[]")
POSITIVE = (0.0, math.inf, "()")
NON_NEGATIVE = (0.0, math.inf, "[)")
COUNT = (1, math.inf, "[]")  # an integer count of at least one
# ``bounded``'s ``what`` for a count: the value must be an integer too
INTEGER = "an integer"


def bounded(value, bounds: tuple, name: str, error: type, what: str = "a finite number"):
    """``value`` if it lies in ``bounds`` (an array: if its least and greatest
    entries do), else ``error`` naming ``name``, the interval and the value.
    With ``what=INTEGER`` the value must also be an int or a numpy integer,
    not a bool."""
    if isinstance(value, np.ndarray):
        for end in (value.min(), value.max()) if value.size else ():
            bounded(end.item(), bounds, name, error, what)
        return value
    lo, hi, (left, right) = bounds
    if ((what != INTEGER or isinstance(value, (int, np.integer)) and not isinstance(value, bool))
            and (lo < value or left == "[" and -math.inf < value == lo)
            and (value < hi or right == "]" and math.inf > value == hi)):
        return value
    raise error(f"{name} must be {what} in {left}{lo:g}, {hi:g}{right}, got {value!r}")


def chosen(value, choices: tuple, name: str, error: type):
    """``value`` if ``choices`` lists it, else ``error`` naming ``name`` and them."""
    if value not in choices:
        raise error(f"{name} must be one of {', '.join(map(str, choices))}, got {value!r:.60}")
    return value
