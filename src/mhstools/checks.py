"""Generic residual evaluators over sample sets."""

from __future__ import annotations

import numpy as np

from .domains import SampleSet
from .fields import (
    Curl,
    Cross,
    Divergence,
    Gradient,
    ScalarField,
    VectorField,
    evaluate,
)
from .reports import CheckStats, ResidualReport, stats_from_values


def scalar_abs_stats(f: ScalarField, samples: SampleSet,
                     memo: dict | None = None) -> tuple[CheckStats, dict]:
    """|f| statistics over the samples; per-sample failures excluded."""
    v, ctx = evaluate(f, samples.points, memo)
    return stats_from_values(v, ctx.invalid), ctx.errors


def vector_norm_stats(w: VectorField, samples: SampleSet,
                      memo: dict | None = None) -> tuple[CheckStats, dict]:
    """Euclidean norm statistics of a vector field over the samples."""
    v, ctx = evaluate(w, samples.points, memo)
    norm = np.sqrt(v[:, 0] ** 2 + v[:, 1] ** 2 + v[:, 2] ** 2)
    return stats_from_values(norm, ctx.invalid), ctx.errors


def residual_report(label: str, samples: SampleSet, channels: dict,
                    memo: dict | None = None) -> ResidualReport:
    """Evaluate named scalar/vector residual expressions into one report.

    The channels share one evaluation memo, so a subtree they have in common
    is walked once.  By default the memo is the report's own and is dropped
    when the report is built; a caller that checks several related fields
    (an orbit) passes its own.
    """
    checks: dict[str, CheckStats] = {}
    errors: dict[str, int] = {}
    if memo is None:
        memo = {}
    for name, expr in channels.items():
        if isinstance(expr, VectorField):
            st, errs = vector_norm_stats(expr, samples, memo)
        else:
            st, errs = scalar_abs_stats(expr, samples, memo)
        checks[name] = st
        for k, v in errs.items():
            errors[k] = errors.get(k, 0) + v
    rep = ResidualReport(label=label, checks=checks, provenance=samples.provenance())
    if errors:
        rep.notes["error_nodes"] = errors
    return rep


def force_balance_residual(
    w: VectorField, chi: ScalarField, samples: SampleSet
) -> ResidualReport:
    """Residuals of the equilibrium system: |w x curl w - grad chi|, |div w|."""
    res = Cross(w, Curl(w)) - Gradient(chi)
    return residual_report(
        "force_balance",
        samples,
        {"force_balance": res, "divergence": Divergence(w)},
    )
