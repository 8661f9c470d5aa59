"""Argument checks shared by the modules of the package."""


def integer(value, name: str, low: int) -> int:
    """``value`` as an int >= ``low``, compared before converting: 2.5 is rejected, 3.0 is 3."""
    if not (value >= low and value % 1 == 0):  # a NaN or an infinity fails too
        raise ValueError(f"{name} must be an integer >= {low}, got {value}")
    return int(value)
