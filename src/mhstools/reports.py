"""Residual report containers shared by all verification routines, and the
one error a failed sampled check raises."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CheckStats:
    """Max / mean / RMS of one residual channel over valid samples."""

    max: float
    mean: float
    rms: float
    n_samples: int
    n_errors: int

    def to_dict(self):
        return {
            "max": self.max,
            "mean": self.mean,
            "rms": self.rms,
            "n_samples": self.n_samples,
            "n_errors": self.n_errors,
        }


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


@dataclass
class ResidualReport:
    """Named residual channels plus the sampling provenance that produced them."""

    label: str
    checks: dict[str, CheckStats]
    provenance: dict
    notes: dict = field(default_factory=dict)

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
