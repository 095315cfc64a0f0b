"""One schema for numeric config knobs.

A dataclass declares each knob's domain once, with :func:`knob`; a class
taking knobs as constructor arguments declares them in its ``KNOBS`` map.
:func:`check` and :func:`check_args` validate against those declarations
and raise the caller's typed error as ``<Class>.<field> must be <domain>,
got <value>``. NaN fails every domain, inf passes only a domain closed at
inf, ``None`` only an optional one. Rules relating several fields stay
with their classes.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import typing as _t

from .errors import ReproError

__all__ = [
    "Domain", "FINITE", "POSITIVE", "NON_NEGATIVE", "UNIT", "FRACTION",
    "PERCENTILE", "INTEGER", "at_least", "knob", "declared", "check",
    "check_args", "require",
]


@dataclasses.dataclass(frozen=True)
class Domain:
    """The interval from ``lo`` to ``hi``, each end open or closed;
    integers only when ``integer`` (``bool`` is never a number here), and
    ``None`` too when ``optional``."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = True
    hi_open: bool = True
    integer: bool = False
    optional: bool = False

    @property
    def or_none(self) -> "Domain":
        return dataclasses.replace(self, optional=True)

    def admits(self, value: object) -> bool:
        if value is None:
            return self.optional
        # An exact int (float) skips the numbers ABC check, ~0.5 us each.
        kind = numbers.Integral if self.integer else numbers.Real
        if type(value) is not (int if self.integer else float) and (
            isinstance(value, bool) or not isinstance(value, kind)
        ):
            return False
        above = self.lo < value if self.lo_open else self.lo <= value
        below = value < self.hi if self.hi_open else value <= self.hi
        return above and below

    def __str__(self) -> str:
        if self.integer:
            return "an integer" + (f" >= {self.lo:g}" if self.lo > -math.inf else "")
        if self.hi == math.inf and self.hi_open:
            if self.lo == -math.inf:
                return "finite"
            return f"finite and {'>' if self.lo_open else '>='} {self.lo:g}"
        return (
            f"in {'(' if self.lo_open else '['}{self.lo:g}, "
            f"{self.hi:g}{')' if self.hi_open else ']'}"
        )


FINITE = Domain()
POSITIVE = Domain(lo=0.0)
NON_NEGATIVE = Domain(lo=0.0, lo_open=False)
#: Shares: [0, 1], and (0, 1] where an empty share means nothing.
UNIT = Domain(0.0, 1.0, lo_open=False, hi_open=False)
FRACTION = Domain(0.0, 1.0, hi_open=False)
PERCENTILE = Domain(0.0, 100.0, lo_open=False, hi_open=False)
#: Seeds: any integer (derived seeds hash the root's decimal text).
INTEGER = Domain(integer=True)


def at_least(n: int) -> Domain:
    """Integers ``>= n``."""
    return Domain(lo=n, lo_open=False, integer=True)


def knob(
    domain: Domain, default: _t.Any = dataclasses.MISSING, *, each: bool = False
) -> _t.Any:
    """A dataclass field in ``domain`` (with ``each``: a tuple whose every
    element is)."""
    return dataclasses.field(
        default=default, metadata={"domain": domain, "each": each}
    )


@functools.cache
def declared(cls: type) -> dict[str, tuple[Domain, bool]]:
    """``{field: (domain, each)}`` for every :func:`knob` of ``cls``."""
    return {
        f.name: (f.metadata["domain"], f.metadata["each"])
        for f in dataclasses.fields(cls)
        if "domain" in f.metadata
    }


def require(
    error: type[ReproError], label: str, value: object, domain: Domain
) -> None:
    """Raise ``error`` naming ``label`` unless ``domain`` admits ``value``."""
    if not domain.admits(value):
        shown = value if isinstance(value, numbers.Real) else repr(value)
        raise error(f"{label} must be {domain}, got {shown}")


def check(
    obj: object, error: type[ReproError], names: _t.Iterable[str] | None = None
) -> None:
    """Check the declared knobs of dataclass ``obj`` (only ``names``, the
    fields a kind consumes, when given)."""
    owner = type(obj).__name__
    knobs = declared(type(obj))
    for name in knobs if names is None else names:
        domain, each = knobs[name]
        value = getattr(obj, name)
        if not each:
            require(error, f"{owner}.{name}", value, domain)
            continue
        for i, item in enumerate(value):
            require(error, f"{owner}.{name}[{i}]", item, domain)


def check_args(
    error: type[ReproError], owner: type, args: _t.Mapping[str, object]
) -> None:
    """Check every argument ``owner.KNOBS`` declares, read from ``args``
    (the constructor's ``locals()``)."""
    for name, domain in owner.KNOBS.items():
        require(error, f"{owner.__name__}.{name}", args[name], domain)
