"""Datetime construction helpers: ``to_datetime`` and ``date_range``."""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import dtypes
from .index import default_index
from .series import Series


def to_datetime(values, errors: str = "raise") -> Series:
    """Convert strings / datetime-likes to a ``datetime64[D]`` Series.

    ``errors='coerce'`` turns unparseable entries into ``NaT`` instead of
    raising, like pandas.
    """
    if errors not in ("raise", "coerce"):
        raise ValueError(f"invalid errors={errors!r}")
    if isinstance(values, Series):
        arr = values.values
        index = values.index
        name = values.name
    else:
        arr = dtypes.as_array(values)
        index = default_index(len(arr))
        name = None
    if arr.dtype.kind == "M":
        return Series(arr.astype("datetime64[D]"), index=index, name=name)
    out = np.empty(len(arr), dtype="datetime64[D]")
    for i, value in enumerate(arr):
        if dtypes.isna_cell(value):
            out[i] = np.datetime64("NaT")
            continue
        try:
            out[i] = np.datetime64(str(value).strip()[:10])
        except ValueError:
            if errors == "raise":
                raise ValueError(f"cannot parse {value!r} as a date") from None
            out[i] = np.datetime64("NaT")
    return Series(out, index=index, name=name)


def date_range(start: str, end: Optional[str] = None,
               periods: Optional[int] = None, freq: str = "D") -> Series:
    """A sequence of dates: give ``end`` or ``periods`` (exactly one)."""
    if (end is None) == (periods is None):
        raise ValueError("specify exactly one of end / periods")
    step = _freq_days(freq)
    first = np.datetime64(start)
    if end is not None:
        last = np.datetime64(end)
        if last < first:
            raise ValueError("end precedes start")
        values = np.arange(first, last + np.timedelta64(1, "D"),
                           np.timedelta64(step, "D"))
    else:
        if periods <= 0:
            raise ValueError("periods must be positive")
        values = first + np.arange(periods) * np.timedelta64(step, "D")
    return Series(values.astype("datetime64[D]"))


def _freq_days(freq: str) -> int:
    if freq == "D":
        return 1
    if freq == "W":
        return 7
    if freq.endswith("D") and freq[:-1].isdigit():
        return int(freq[:-1])
    raise ValueError(f"unsupported frequency {freq!r} (use D, W, or <n>D)")
