"""Argument checks shared by the modules of the package."""
import math


def integer(value, name: str, low: int) -> int:
    """``value`` as an int >= ``low``, compared before converting: 2.5 is rejected, 3.0 is 3."""
    if not (value >= low and value % 1 == 0):  # a NaN or an infinity fails too
        raise ValueError(f"{name} must be an integer >= {low}, got {value}")
    return int(value)


def real(value, name: str, bound: str = ""):
    """``value`` unchanged once it is finite and ``bound``, "positive" or ">= 0", holds."""
    # every comparison with a NaN is false, so a NaN fails each form
    low_ok = value > 0 if bound == "positive" else value >= 0 if bound else value > -math.inf
    if not (low_ok and value < math.inf):
        raise ValueError(f"{name} must be finite{' and ' + bound if bound else ''}, got {value}")
    return value
