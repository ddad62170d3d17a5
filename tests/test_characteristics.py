"""Transport solver against the closed-form potentials it must reproduce."""

import math

import numpy as np
import pytest

from mhstools.characteristics import (
    _E3,
    _E5,
    _ROWS,
    CharacteristicsProblem,
    InitialCurve,
    _dp_step,
    solve_characteristics,
)
from mhstools.domains import Domain, sample
from mhstools.fields import VectorField, log, sin, vector, x, y, z
from mhstools.symmetry import S, T, alpha_from_characteristics

# characteristics of  -y psi_y + psi_z = -1  (the constraint with phi = z)
PROB_TEMPLATE = dict(
    advecting=vector(0.0, -y, 1.0),
    source=-1.0,
    domain=Domain.box((-2, 0.02, -3), (2, 8, 3)),
)
TARGET_BOX = Domain.box((-0.1, 0.5, 0.5), (0.1, 1.5, 1.5))


def root_problem(m):
    # psi = 0.5 - z, with an m-fold root of the initial surface on z = 0.5
    return CharacteristicsProblem(
        advecting=vector(0.0, 0.0, 1.0),
        source=-1.0,
        initial=InitialCurve(surface=(z - 0.5) ** m, data=0.0 * y),
        domain=Domain.box((-2, -2, -2), (2, 2, 3)),
    )


def assert_honest(results, expect):
    # every estimate bounds the error achieved against the closed form
    vals = np.array([r.value for r in results])
    est = np.array([r.error_estimate for r in results])
    assert (est >= np.abs(vals - expect)).all()
    assert est.max() < 1e-8


def test_dop853_tableau_is_transcribed():
    # nodes of stages 2..12 and of the end point in closed form (Hairer,
    # Norsett & Wanner, Solving ODEs I, II.10); each sum is checked to 1e-15
    # of the sum of magnitudes, the rounding of its 17-digit literals
    r6 = math.sqrt(6.0)
    nodes = ((6 - r6) / 67.5, (6 - r6) / 45, (6 - r6) / 30, (6 + r6) / 30,
             1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0, 1.0)
    assert [len(row) for row in _ROWS] == list(range(1, 13))
    for row, node in zip(_ROWS, nodes):
        assert abs(math.fsum(row) - node) <= 1e-15 * math.fsum(map(abs, row))
    # the last row holds the weights of the 8th-order solution
    assert abs(math.fsum(_ROWS[-1]) - 1.0) <= 1e-15
    for e in (_E5, _E3):
        assert len(e) == 12
        assert abs(math.fsum(e)) <= 1e-15 * math.fsum(map(abs, e))


def test_dop853_step_is_eighth_order():
    # one step of dx/dt = x from x = 1 against e^h: the local error is
    # O(h^9), so each halving of h cuts it by about 2^9
    a = vector(x, 0.0, 0.0)
    p = np.array([[1.0, 0.0, 0.0]])
    errors = []
    for h in (0.8, 0.4, 0.2):
        q, _, e = _dp_step(a, p, a.values(p), np.array([h]))
        errors.append(abs(q[0, 0] - np.exp(h)))
        assert np.linalg.norm(e) >= errors[-1]
    assert errors[0] / errors[1] >= 2**8
    assert errors[1] / errors[2] >= 2**8


def test_reproduces_log_potential():
    # initial psi(y, 0) = 2 log y transports to psi = z + 2 log y
    prob = CharacteristicsProblem(
        initial=InitialCurve(surface=z, data=2 * log(y)), **PROB_TEMPLATE
    )
    targets = sample(TARGET_BOX, 200)
    results = solve_characteristics(prob, targets)
    assert all(r.ok for r in results)
    vals = np.array([r.value for r in results])
    expect = targets.points[:, 2] + 2 * np.log(targets.points[:, 1])
    assert np.abs(vals - expect).max() < 1e-6
    assert_honest(results, expect)


def test_reproduces_linear_potential():
    # zero initial data gives psi = -z, the simplest catalog entry's potential
    prob = CharacteristicsProblem(
        initial=InitialCurve(surface=z, data=0.0 * y), **PROB_TEMPLATE
    )
    targets = sample(TARGET_BOX, 200)
    results = solve_characteristics(prob, targets)
    vals = np.array([r.value for r in results])
    np.testing.assert_allclose(vals, -targets.points[:, 2], atol=1e-6)
    assert_honest(results, -targets.points[:, 2])


def test_reproduces_product_log_potential():
    # constraint with phi = (z^2 - y^2)/2: -2 y psi_y + z psi_z = -1,
    # solved by psi = log(y z); initial data on z = 1 is log y
    prob = CharacteristicsProblem(
        advecting=vector(0.0, -2 * y, z),
        source=-1.0,
        initial=InitialCurve(surface=z - 1.0, data=log(y)),
        domain=Domain.box((-2, 0.02, 0.02), (2, 8, 8)),
    )
    targets = sample(Domain.box((-0.1, 0.5, 0.5), (0.1, 1.5, 1.5)), 200)
    results = solve_characteristics(prob, targets)
    assert all(r.ok for r in results)
    vals = np.array([r.value for r in results])
    expect = np.log(targets.points[:, 1] * targets.points[:, 2])
    assert np.abs(vals - expect).max() < 1e-6
    assert_honest(results, expect)


def test_zero_length_integration_exact():
    prob = CharacteristicsProblem(
        initial=InitialCurve(surface=z, data=2 * log(y)), **PROB_TEMPLATE
    )
    r = solve_characteristics(prob, np.array([[0.0, 0.7, 0.0]]))[0]
    assert r.ok
    assert r.value == 2 * np.log(0.7)
    assert r.error_estimate == 0.0


def test_targets_below_initial_surface():
    # points with z < 0 must flow the other way along the characteristic
    prob = CharacteristicsProblem(
        initial=InitialCurve(surface=z, data=2 * log(y)), **PROB_TEMPLATE
    )
    pts = np.array([[0.0, 1.0, -0.5], [0.0, 2.0, -1.0]])
    results = solve_characteristics(prob, pts)
    assert all(r.ok for r in results)
    vals = np.array([r.value for r in results])
    expect = pts[:, 2] + 2 * np.log(pts[:, 1])
    assert np.abs(vals - expect).max() < 1e-6


def test_budget_exhaustion_flags_point():
    # an advecting field parallel to the surface never reaches it
    prob = CharacteristicsProblem(
        advecting=vector(1.0, 0.0, 0.0),
        source=0.0,
        initial=InitialCurve(surface=z - 5.0, data=0.0 * y),
        domain=None,
    )
    r = solve_characteristics(prob, np.array([[0.0, 0.0, 0.0]]), max_time=2.0)[0]
    assert not r.ok
    assert "budget" in r.message
    assert np.isnan(r.value)


def test_domain_escape_flags_point():
    prob = CharacteristicsProblem(
        advecting=vector(0.0, 0.0, 1.0),
        source=0.0,
        initial=InitialCurve(surface=z - 5.0, data=0.0 * y),
        domain=Domain.box((-1, -1, -1), (1, 1, 1)),
    )
    r = solve_characteristics(prob, np.array([[0.0, 0.0, 0.0]]), max_time=10.0)[0]
    assert not r.ok
    assert "domain" in r.message


def test_crossing_beyond_the_domain_is_not_a_hit():
    # one step can reach past the domain: the plane z = 1.5 lies outside the box
    prob = CharacteristicsProblem(
        advecting=vector(0.0, 0.0, 1.0),
        source=-1.0,
        initial=InitialCurve(surface=z - 1.5, data=0.0 * y),
        domain=Domain.box((-1, -1, -1), (1, 1, 1)),
    )
    r = solve_characteristics(prob, np.array([[0.0, 0.0, 0.0]]), max_time=10.0)[0]
    assert not r.ok
    assert "domain" in r.message


def count_vector_values(monkeypatch):
    calls = [0]
    values = VectorField.values

    def counted(self, pts):
        calls[0] += 1
        return values(self, pts)

    monkeypatch.setattr(VectorField, "values", counted)
    return calls


def test_transport_costs_few_field_evaluations(monkeypatch):
    # a deterministic cost guard: 197 calls trace these 50 targets with one
    # crossing search after stepping, where a search after each step that
    # crossed took 327, Dormand-Prince 5(4) steps 1,719 and a fixed step of
    # 1e-3 with a rerun at half step 18,624
    calls = count_vector_values(monkeypatch)
    prob = CharacteristicsProblem(
        initial=InitialCurve(surface=z, data=2 * log(y)), **PROB_TEMPLATE
    )
    results = solve_characteristics(prob, sample(TARGET_BOX, 50))
    assert all(r.ok for r in results)
    assert calls[0] < 250


def test_five_fold_root_costs_one_crossing_search(monkeypatch):
    # the bracket takes about 80 rounds to close at a five-fold root, so one
    # search over every lane costs 1,155 calls where a search after each
    # step that crossed took 5,307
    calls = count_vector_values(monkeypatch)
    targets = sample(Domain.box((-1, -1, -0.5), (1, 1, 1.5)), 200, generator="random", seed=3)
    results = solve_characteristics(root_problem(5), targets)
    assert all(r.ok for r in results)
    assert calls[0] < 1500


@pytest.mark.parametrize(
    "name,p,g,bound",
    [("abc_minimal", sin(S) + T, 0.0 * T, 50), ("cylindrical", 0.0 * S + 1.0, -sin(T), 40)],
    ids=["abc_minimal", "cylindrical"],
)
def test_alpha_solves_cost_few_field_evaluations(monkeypatch, name, p, g, bound):
    # these flows are shorter than one unit of flow time, so a first step of
    # 0.5 traces them in 42 and 30 calls, where a first step of 0.05, grown
    # by the controller about 2.3-fold per step, took 78 and 66
    calls = count_vector_values(monkeypatch)
    alpha_from_characteristics(name, p=p, g=g, n_targets=50)
    assert calls[0] < bound


def test_degenerate_crossing_is_exact():
    # the surface's gradient vanishes on the crossing, so a single Newton (or
    # Henon) step from the bracketing step is only first-order accurate there,
    # and Newton's last update understates the distance to the root m-fold;
    # the estimate must still bound the error on every target
    targets = sample(Domain.box((-1, -1, -0.5), (1, 1, 1.5)), 200, generator="random", seed=3)
    expect = 0.5 - targets.points[:, 2]
    for m in (3, 5):
        results = solve_characteristics(root_problem(m), targets)
        assert all(r.ok for r in results)
        vals = np.array([r.value for r in results])
        assert np.abs(vals - expect).max() < 1e-12
        assert_honest(results, expect)


def test_multiple_root_start_is_not_on_the_surface():
    # |s| = 5e-14 at 2.2e-3 from the plane of s = (z - 0.5)^5: below the
    # absolute tolerance, but far from the surface relative to |grad s|.
    # Bisection keeps the bracket halving at the five-fold root, so the
    # crossing is resolved to about 1e-15 in flow time.
    targets = np.array([[0.1, -0.2, 0.5 + 2.2e-3], [0.1, -0.2, 0.5]])
    results = solve_characteristics(root_problem(5), targets)
    assert all(r.ok for r in results)
    vals = np.array([r.value for r in results])
    assert abs(vals[0] - (0.5 - targets[0, 2])) < 1e-12
    assert vals[1] == 0.0  # exactly on the surface: s = |grad s| = 0


def test_nearer_crossing_outside_the_domain_resumes_the_twin():
    # s = (z + 0.2)(z - 0.9): flowing backwards each target's second step
    # brackets z = -0.2 from inside the box, but the hit lies below it; that
    # hit is rejected and the forward twin, stopped while it was pending,
    # goes on to z = 0.9 inside the box.  (With the floor at z = -0.1 the
    # backward step end leaves the box before it brackets the root.)
    prob = CharacteristicsProblem(
        advecting=vector(0.0, 0.0, 1.0),
        source=-1.0,
        initial=InitialCurve(surface=(z + 0.2) * (z - 0.9), data=0.0 * y),
        domain=Domain.box((-1, -1, -0.19), (1, 1, 2)),
    )
    results = solve_characteristics(prob, np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.05]]))
    assert all(r.ok for r in results)
    np.testing.assert_allclose([r.value for r in results], [0.9, 0.85], atol=1e-12)


def test_lanes_are_independent_of_their_batch():
    # each target traced alone gives the same bits as in a batch, which lets
    # every crossing of a solve be searched in one batch
    targets = sample(Domain.box((-1, -1, -0.5), (1, 1, 1.5)), 12, generator="random", seed=3)
    for m in (1, 5):
        prob = root_problem(m)
        batch = solve_characteristics(prob, targets)
        alone = [solve_characteristics(prob, pt)[0] for pt in targets.points]
        assert [(r.value.hex(), r.error_estimate.hex()) for r in batch] == [
            (r.value.hex(), r.error_estimate.hex()) for r in alone
        ]


def test_mixed_outcomes_in_one_batch():
    # each lane keeps its own outcome: crossings in both directions, a start
    # outside the domain, failing evaluations and an exhausted budget
    prob = CharacteristicsProblem(
        advecting=vector(0.0, 0.0, 1.0 + 0.0 * log(y + 1.0)),
        source=-1.0,
        initial=InitialCurve(surface=z + 0.0 * log(x + 1.0), data=1.0 * y),
        domain=Domain.box((-2, -2, -3), (2, 2, 5)),
    )
    pts = np.array([
        [0.0, 0.3, 0.5],  # crosses flowing backwards
        [0.0, 0.3, -0.5],  # crosses flowing forwards
        [0.0, 0.0, 5.5],  # starts outside the domain
        [0.0, -1.5, 0.5],  # log(y + 1) fails in the first trial step
        [-1.5, 0.3, 0.5],  # log(x + 1) fails on the initial surface at the start
        [0.0, 0.3, 2.5],  # needs more than max_time
    ])
    results = solve_characteristics(prob, pts, max_time=1.0)
    assert [r.ok for r in results] == [True, True, False, False, False, False]
    np.testing.assert_allclose([r.value for r in results[:2]], [-0.2, 0.8], atol=1e-12)
    assert "domain" in results[2].message
    assert "evaluation failed" in results[3].message
    assert "evaluation failed" in results[4].message
    assert "budget" in results[5].message
    assert all(np.isnan(r.value) for r in results[2:])
