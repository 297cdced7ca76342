"""The one type rule for values read from JSON input: chip files, workload
files and run configs.

Ids, counts and edge endpoints must be integral numbers (``4`` or
``4.0``); times, rates and calibration values must be numbers. A bool is
never a number and a string never stands for one. Range and finiteness
checks belong to the objects built from the values.
"""

from __future__ import annotations

import math
from numbers import Integral

_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
          list: "a list", dict: "an object"}


def typed(value, kind: type, name: str):
    """``value`` as a JSON ``kind``, else ``TypeError`` naming ``name``.

    bool takes only true and false, int an integral number (4 or 4.0; from
    Python callers also any ``numbers.Integral`` but bool, such as a numpy
    integer), float any number, an integer too large for a float becoming
    infinite; the other kinds take only their own type.
    """
    if kind is int and (
        (isinstance(value, Integral) and not isinstance(value, bool))
        or (isinstance(value, float) and value.is_integer())
    ):
        value = int(value)
    elif kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:  # beyond any float: infinite, as JSON reads 1e400
            value = math.inf if value > 0 else -math.inf
    if type(value) is not kind:
        raise TypeError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return value
