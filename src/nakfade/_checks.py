"""The argument rule of the library and the CLI: an integer is a Python or numpy
integer, a real is a finite Python or numpy real, and a bool is neither."""

import math
import numbers


def _fault(kind: str, value, ok: bool, least, most, above) -> str | None:
    """None if value is ok as a kind and within the limits, else what it must be."""
    if ok and (least is None or value >= least) and (above is None or value > above) and (most is None or value <= most):
        return None
    limits = " and ".join(f"{op} {bound}" for op, bound in ((">=", least), (">", above), ("<=", most)) if bound is not None)
    return f"must be {kind}{' ' if limits else ''}{limits}, got {value!r}"


# A Python int or float is checked by its exact type before the numbers ABCs,
# which cost about 1.6 us a call; a bool's type is bool, so it takes the ABC path.
def integer(value, least=None, most=None) -> str | None:
    """What is wrong with value as an integer in [least, most], or None."""
    ok = type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))
    return _fault("an integer", value, ok, least, most, None)


def real(value, least=None, most=None, above=None) -> str | None:
    """What is wrong with value as a finite real in [least, most] and above `above`, or None."""
    try:
        ok = (type(value) in (float, int) or (isinstance(value, numbers.Real) and not isinstance(value, bool))) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        ok = False
    return _fault("a finite real", value, ok, least, most, above)


def require(name: str, value, check, **limits):
    """value as an int (check is integer) or a float (check is real), or a ValueError naming name."""
    if problem := check(value, **limits):
        raise ValueError(f"{name} {problem}")
    return int(value) if check is integer else float(value)
