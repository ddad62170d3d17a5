"""Residual report containers shared by all verification routines, the one
error a failed sampled check raises, and `Record`, the base of every value
class of the package (expression nodes included)."""

from __future__ import annotations

import numpy as np

_set = object.__setattr__  # assigns a field past a frozen class's refusal


def _refuse(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


class _Declared(type):
    """Turns a class's annotated attributes into its fields; see `Record`."""

    def __new__(mcls, name, bases, ns, frozen=False):
        own = ns.get("__annotations__", {})
        base = bases[0] if bases else None  # one base: a subclass extends its fields
        ns["_fields"] = getattr(base, "_fields", {}) | own
        ns["_defaults"] = getattr(base, "_defaults", {}) | {k: ns.pop(k) for k in own if k in ns}
        ns["__slots__"] = (*own, *ns.get("__slots__", ()))
        if frozen:
            ns["__setattr__"] = ns["__delattr__"] = _refuse
            ns["__hash__"] = lambda self: hash(self._values())
        return super().__new__(mcls, name, bases, ns)


class Record(metaclass=_Declared):
    """Base of the package's value classes, declared the way a dataclass is.

    A subclass declares its fields as annotated class attributes, in order,
    with optional defaults.  `_fields` maps each name to its annotation, a
    string under `from __future__ import annotations`, which every module of
    the package uses; the fields are the instance's `__slots__`, and a class
    may list further slots of its own.  The base supplies `__init__`
    (positional or keyword arguments, defaults filled in, a dict default
    copied per instance, then `__post_init__`), field-wise `==` and `repr`,
    and `replace`.  A class declared with `frozen=True` also hashes
    field-wise and refuses assignment; its subclasses inherit both.
    """

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):  # keywords or defaults: match them to the fields
            given = dict(zip(names, args)) | kwargs
            fits = len(given) == len(args) + len(kwargs)  # nothing doubled or past the fields
            args = []
            for k in names:
                if k in given:
                    args.append(given.pop(k))
                elif k in self._defaults:
                    d = self._defaults[k]
                    args.append(d.copy() if isinstance(d, dict) else d)
            if not fits or given or len(args) < len(names):  # also unknown or missing
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, k) for k in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        args = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__qualname__}({args})"

    def replace(self, **changes):
        """A new instance with `changes` applied to the fields, built through `__init__`."""
        return type(self)(**{k: getattr(self, k) for k in self._fields} | changes)


class CheckStats(Record, frozen=True):
    """Max / mean / RMS of one residual channel over valid samples."""

    max: float
    mean: float
    rms: float
    n_samples: int
    n_errors: int

    def to_dict(self):
        return {k: getattr(self, k) for k in self._fields}


def stats_from_values(values: np.ndarray, invalid: np.ndarray | None = None) -> CheckStats:
    """Summarize |residual| values; non-finite entries count as errors."""
    values = np.abs(np.asarray(values, dtype=float))
    bad = ~np.isfinite(values)
    if invalid is not None:
        bad |= invalid
    good = values[~bad]
    n = values.shape[0]
    if good.size == 0:
        return CheckStats(float("nan"), float("nan"), float("nan"), n, int(bad.sum()))
    return CheckStats(
        max=float(good.max()),
        mean=float(good.mean()),
        rms=float(np.sqrt(np.mean(good**2))),
        n_samples=n,
        n_errors=int(bad.sum()),
    )


class ResidualReport(Record):
    """Named residual channels plus the sampling provenance that produced them."""

    label: str
    checks: dict[str, CheckStats]
    provenance: dict
    notes: dict = {}  # Record copies it per instance

    def stat(self, name: str) -> CheckStats:
        return self.checks[name]

    def max(self, name: str) -> float:
        return self.checks[name].max

    def passes(self, gates: dict[str, float]) -> bool:
        """True when every named channel is below its gate (NaN fails)."""
        for name, tol in gates.items():
            m = self.checks[name].max
            if not (m < tol):
                return False
        return True

    def to_dict(self):
        d = {
            "label": self.label,
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
            "provenance": self.provenance,
        }
        if self.notes:
            d["notes"] = self.notes
        return d


class ConstructionError(ValueError):
    """A construction or hypothesis failed its sampled check; carries its report, if any."""

    def __init__(self, message: str, report: ResidualReport | None = None):
        super().__init__(message)
        self.report = report
