"""The library names and call shapes that `bench/` relies on.

The benchmark may not change together with the library, so a change that
breaks one of these breaks the benchmark's traced or in-process runs.
"""

import numpy as np

from mhstools import beltrami, checks, clebsch, lieops
from mhstools import fields as F
from mhstools.characteristics import CharacteristicsProblem, InitialCurve, solve_characteristics
from mhstools.domains import Domain, sample
from mhstools.symmetry import KillingParams, killing_scan


def test_field_bases_own_values():
    # bench/tracer.py wraps each base's own `values` through its __dict__
    assert "values" in F.ScalarField.__dict__
    assert "values" in F.VectorField.__dict__


def test_jets_take_a_one_argument_context():
    # bench/probes.py
    pts = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9], [1.0, 1.1, 1.2],
                    [1.3, 1.4, 1.5]])
    ctx = F.EvalContext(5)
    jets = F.curl(clebsch.catalog("w4_1").w).jets(pts, order=1, ctx=ctx)
    assert len(jets) == 3 and jets[0].order == 1


def test_report_calls_one_stats_function_per_channel(monkeypatch):
    # bench/tracer.py patches both names on the checks module
    calls = []
    for name in ("scalar_abs_stats", "vector_norm_stats"):
        real = getattr(checks, name)

        def traced(expr, samples, *args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(expr, samples, *args, **kwargs)

        monkeypatch.setattr(checks, name, traced)
    rec = beltrami.catalog("zsq_x3")
    rep = rec.residual_report(sample(rec.domain, 50))
    assert calls == ["vector_norm_stats", "scalar_abs_stats"]
    assert list(rep.checks) == ["beltrami", "divergence"]


def test_inproc_call_shapes():
    # bench/inproc.py
    rec = beltrami.catalog("zsq_x3")
    ss = sample(rec.domain, 50)
    assert rec.residual_report(ss).checks
    assert killing_scan(rec.field, rec.domain, samples=ss).null_dim >= 0
    orbit = lieops.lie_generate(rec, KillingParams((0, 0, 0), (0, 0, 1)), 2, samples=ss)
    assert len(orbit.members) == 3


def test_characteristics_rows_read_as_columns():
    # bench/inproc.py and bench/tracer.py read rows of the solve's record
    # array; the library reads its columns, which must hold the same numbers
    prob = CharacteristicsProblem(
        advecting=F.vector(0.0, 0.0, 1.0), source=-1.0,
        initial=InitialCurve(surface=F.z, data=0.0 * F.y),
        domain=Domain.box((-1, -1, -1), (1, 1, 1)),
    )
    out = solve_characteristics(prob, np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5],
                                                [0.0, 0.0, 5.0]]))
    assert isinstance(out, np.recarray) and len(out) == 3
    assert sum(1 for r in out if r.ok) == 2
    np.testing.assert_array_equal(out.ok, [r.ok for r in out])
    np.testing.assert_array_equal(out.value, [r.value for r in out])
    np.testing.assert_array_equal(out.error_estimate, [r.error_estimate for r in out])
    ok = out[out.ok]
    assert max(r.error_estimate for r in ok) == ok.error_estimate.max()
    np.testing.assert_allclose([r.value for r in ok], [-0.5, 0.5], atol=1e-12)
    assert out[0].message == ""
    assert out[2].message == "characteristic left the domain"
    assert np.isnan(out[2].value) and np.isnan(out[2].error_estimate)
