"""One evaluation memo per report: the same numbers from fewer tree walks."""

import numpy as np
import pytest

from mhstools import beltrami, checks, clebsch, lieops, registry, symmetry
from mhstools import fields as F
from mhstools.beltrami import HarmonicPair, from_harmonic_pair
from mhstools.checks import residual_report
from mhstools.domains import Domain, SampleSet, sample
from mhstools.fields import Curl, Divergence, cos, exp, log, sin, sqrt, vector, x, y, z
from mhstools.lieops import commutator_defect, lie_generate
from mhstools.symmetry import KillingParams, killing_scan

OFFSET_BOX = Domain.box((-1.0, 0.5, 0.5), (1.0, 1.5, 1.5))
# w4_2 fails on about a quarter of this box: 252 of its first 1000 Halton points
PARTLY_INVALID_BOX = Domain.box((-1.0, -0.5, 0.5), (1.0, 1.5, 1.5))


def _fresh(f, pts, memo=None):
    """`evaluate` with the memo dropped: every channel and column walks alone."""
    return F.evaluate(f, pts)


def _subject(name):
    """(residual-report callable, field, domain) of a catalog entry or a built record."""
    if name == "family":
        rng = np.random.default_rng(121)
        a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        g, d = rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5)
        sol = clebsch.make_clebsch_family(a, b, g, d, OFFSET_BOX)
        return sol.residual_report, sol.w, sol.domain
    if name == "harmonic_pair":
        rec = from_harmonic_pair(HarmonicPair(exp(x) * sin(y), -exp(x) * cos(y)), exp(z))
        return rec.residual_report, rec.field, rec.domain
    if name == "w4_2_partly_invalid":
        sol = clebsch.catalog("w4_2")
        return sol.residual_report, sol.w, PARTLY_INVALID_BOX
    e = registry.get(name)
    obj = e.record if e.record is not None else e.solution
    return obj.residual_report, e.field, e.domain


@pytest.mark.parametrize("name", registry.names() + ["family", "harmonic_pair",
                                                     "w4_2_partly_invalid"])
def test_memo_changes_no_number(name, monkeypatch):
    report, field, domain = _subject(name)
    ss = sample(domain, 500)
    rep = report(ss).to_dict()
    scan = killing_scan(field, domain, samples=ss)
    monkeypatch.setattr(checks, "evaluate", _fresh)
    monkeypatch.setattr(symmetry, "evaluate", _fresh)
    assert rep == report(ss).to_dict()
    alone = killing_scan(field, domain, samples=ss)
    assert scan.singular_values == alone.singular_values
    assert scan.null_basis == alone.null_basis
    assert scan.to_dict() == alone.to_dict()


def test_shared_node_keeps_error_counts(monkeypatch):
    # log(x) fails on rows 1, 2 and 4; every channel reaches the one vector node,
    # "doubled" twice at order 0, "curl" and "div" at order 1.  A walk that
    # flagged is never kept, so in either channel order every request for the
    # log(x) node is a fresh walk that raises its own flags.
    v = vector(log(x), y, 1.0)
    pts = np.array([[1.0, 0.5, 0.0], [-1.0, 0.2, 0.1], [0.0, 0.3, 0.2],
                    [2.0, -0.4, 0.3], [-0.5, 0.1, 0.4], [0.3, 0.9, 0.5]])
    ss = SampleSet(points=pts, generator="halton", seed=0,
                   domain=Domain.box((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0)))
    order0_first = {"field": v, "doubled": v + v, "curl": Curl(v), "div": Divergence(v)}
    orders = [order0_first, dict(reversed(order0_first.items()))]
    reports = [residual_report("shared", ss, channels) for channels in orders]
    for rep in reports:
        assert {k: s.n_errors for k, s in rep.checks.items()} == {
            "field": 3, "doubled": 3, "curl": 3, "div": 3}
        assert rep.notes["error_nodes"] == {"log(x)": 15}
    monkeypatch.setattr(checks, "evaluate", _fresh)
    for rep, channels in zip(reports, orders):
        assert rep.to_dict() == residual_report("shared", ss, channels).to_dict()



@pytest.mark.parametrize("field", [vector(sqrt(x), y, 1.0), vector(x ** 1.5, y, 1.0),
                                   Curl(vector(sqrt(x), x ** 1.5, y))])
def test_truncated_hit_keeps_order_dependent_flags(field):
    # at x == 0, sqrt(x) is flagged from order 1 on and x^1.5 from order 2 on
    # (both at x < 0 at every order): an entry made at order 2 serves orders 1
    # and 0 with the flags of a fresh walk at those orders
    pts = np.array([[0.0, 0.5, 0.0], [-1.0, 0.2, 0.1], [0.3, 0.9, 0.5]])
    memo, fresh_errors = {}, []
    for order in (2, 1, 0):
        fresh, shared = F.EvalContext(len(pts)), F.EvalContext(len(pts))
        shared.memo = memo
        with np.errstate(all="ignore"):
            field.jets(pts, order, fresh)
            field.jets(pts, order, shared)
        assert np.array_equal(shared.invalid, fresh.invalid)
        assert shared.errors == fresh.errors
        fresh_errors.append(fresh.errors)
    assert fresh_errors[0] != fresh_errors[2]


def test_flagged_walk_is_not_kept():
    # log(x) fails at x <= 0: the memo keeps the clean operand, and neither the
    # flagged operand nor the sum over it, so a second walk flags afresh
    bad, good = vector(log(x), y, 1.0), vector(y, z, 1.0)
    pts = np.array([[0.0, 0.5, 0.2], [-1.0, 0.2, 0.1], [-0.5, 0.9, 0.5]])
    memo = {}
    for _ in range(2):
        _, ctx = F.evaluate(bad + good, pts, memo)
        assert ctx.errors == {"log(x)": 3}
        kept = [entry[0] for entry in memo.values()]
        assert len(kept) == 1 and kept[0] is good


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.fixture
def node_evaluations(monkeypatch):
    """Every computed node jet, as (node, order); memo hits are not counted."""
    calls = []

    def counting(fn):
        def wrapped(self, pts, order=2, ctx=None):
            calls.append((self, order))
            return fn(self, pts, order, ctx)
        return wrapped

    for base, name in ((F.ScalarField, "jet"), (F.VectorField, "_jets")):
        for cls in _subclasses(base):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, counting(vars(cls)[name]))
    return calls


def test_report_evaluation_budget(node_evaluations):
    sol = clebsch.catalog("w4_3")
    ss = sample(sol.domain, 200)
    node_evaluations.clear()  # building the entry runs a report too
    sol.residual_report(ss)
    assert len(node_evaluations) <= 130  # 275 without the memo


def test_partly_invalid_report_evaluation_budget(node_evaluations):
    sol = clebsch.catalog("w4_2")
    ss = sample(PARTLY_INVALID_BOX, 1000)
    node_evaluations.clear()
    rep = sol.residual_report(ss)
    assert rep.checks["force_balance"].n_errors == 252
    # flagged walks are not kept and walk afresh on every request, yet no
    # more than without the memo: 201 evaluations, 259 without the memo
    assert len(node_evaluations) <= 259


def test_scan_evaluation_budget(node_evaluations):
    sol = clebsch.catalog("w4_3")
    ss = sample(sol.domain, 200)
    node_evaluations.clear()
    killing_scan(sol.w, sol.domain, samples=ss)
    assert len(node_evaluations) <= 60  # 195 without the memo
    # the columns ask w for order 1 and the scan's own values are a truncation
    assert sum(node is sol.w for node, _ in node_evaluations) == 1


# a generic generator that keeps h(z): a translation in x, y and a z-rotation
H_Z_GENERATOR = KillingParams((0.3, -0.2, 0.0), (0.0, 0.0, 0.7))


def test_orbit_walks_each_member_once(node_evaluations):
    rec = beltrami.catalog("zsq_x3")
    ss = sample(rec.domain, 1000)
    node_evaluations.clear()
    orbit = lie_generate(rec, KillingParams((0, 0, 0), (0, 0, 1)), 4, samples=ss)
    assert len(orbit.members) == 5
    # member i is computed once, at order 5 - i: the base field once, at order 5
    for m in orbit.members:
        assert [o for node, o in node_evaluations if node is m.field] == [5 - m.index]


@pytest.mark.parametrize("name", ["zsq_x3", "exp_x3", "example3"])
def test_orbit_memo_changes_no_number(name, monkeypatch):
    rec = beltrami.catalog(name)
    ss = sample(rec.domain, 300)
    orbit = lie_generate(rec, H_Z_GENERATOR, 4, samples=ss)
    assert len(orbit.members) == 5
    member1 = orbit.members[1].field
    defect = commutator_defect(member1, H_Z_GENERATOR, ss)
    monkeypatch.setattr(checks, "evaluate", _fresh)
    monkeypatch.setattr(lieops, "evaluate", _fresh)
    assert orbit.to_dict() == lie_generate(rec, H_Z_GENERATOR, 4, samples=ss).to_dict()
    assert defect.to_dict() == commutator_defect(member1, H_Z_GENERATOR, ss).to_dict()
