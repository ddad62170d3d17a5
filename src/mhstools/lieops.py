"""Symmetry operations of the curl-eigenfield equation.

For a rigid generator xi = a + b x r the Lie derivative commutes with the
curl; if moreover the eigenfield coefficient h is constant along xi, Lie
transport maps solenoidal curl eigenfields to curl eigenfields with the same
coefficient.  Repeated transport therefore generates an orbit of solutions;
members are kept as structural expression nodes, so every member is
evaluated exactly to roundoff: each extra level asks the base field for one
more derivative order of its Taylor jets.  The depth cap bounds the cost (the
jets grow with the order), not the accuracy, so every member has one gate.

An orbit shares one evaluation memo across its members.  The deepest
member's curl is walked first, which computes every member's jets, and the
base field's at order d + 1, once; each member's report and norm then read
lower orders off those jets by truncation, which is bit-identical to a fresh
walk.  An orbit of depth d therefore costs one tree walk at order d + 1.
"""

from __future__ import annotations

from .beltrami import BeltramiRecord, beltrami_residual
from .checks import residual_report, scalar_abs_stats, vector_norm_stats
from .domains import SampleSet, sample
from .fields import Curl, Divergence, Dot, Gradient, ScalarField, VectorField, evaluate
from .reports import ConstructionError, Record, ResidualReport
from .symmetry import KillingParams, lie_euclidean

MAX_ORBIT_DEPTH = 4
TERMINAL_NULL_REL = 1e-12
H_SYMMETRY_TOL = 1e-9
# residual gate of every orbit member: derivatives are exact at every depth
MEMBER_GATE = 1e-8


def commutator_defect(
    w: VectorField, k: KillingParams, samples: SampleSet
) -> ResidualReport:
    """|Lie_k(curl w) - curl(Lie_k w)| statistics (zero for rigid generators).

    The defect takes second derivatives of w, and more when w is itself
    built from derivative nodes; all are exact, so it reads roundoff.
    """
    # the defect asks w for order 2; the divergence then reads order 1 off it
    memo: dict = {}
    defect = lie_euclidean(Curl(w), k) - Curl(lie_euclidean(w, k))
    rep = residual_report("commutator", samples, {"commutator": defect}, memo)
    div_st, _ = scalar_abs_stats(Divergence(w), samples, memo)
    rep.notes["divergence_max"] = div_st.max
    return rep


def h_symmetry_check(
    h: ScalarField, k: KillingParams, samples: SampleSet
) -> ResidualReport:
    """|(a + b x r) . grad h| statistics: the transport hypothesis."""
    drift = Dot(k.field(), Gradient(h))
    return residual_report("h_symmetry", samples, {"h_symmetry": drift})


class OrbitMember(Record):
    field: VectorField
    index: int
    report: ResidualReport
    max_magnitude: float
    terminal_null: bool
    gate: float
    passed: bool

    def to_dict(self):
        return {
            "index": self.index,
            "beltrami_max": self.report.max("beltrami"),
            "divergence_max": self.report.max("divergence"),
            "max_magnitude": self.max_magnitude,
            "terminal_null": self.terminal_null,
            "gate": self.gate,
            "passed": self.passed,
        }


class LieOrbit(Record):
    base: BeltramiRecord
    generator: KillingParams
    members: list[OrbitMember]
    truncated: bool = False
    notes: dict = {}  # Record copies it per instance

    def to_dict(self):
        return {
            "base": self.base.name or "anonymous",
            "generator": self.generator.to_dict(),
            "members": [m.to_dict() for m in self.members],
            "truncated": self.truncated,
            **({"notes": self.notes} if self.notes else {}),
        }


def lie_generate(
    base: BeltramiRecord,
    k: KillingParams,
    n: int,
    samples: SampleSet | None = None,
) -> LieOrbit:
    """Orbit of repeated Lie transport along a coefficient-preserving generator.

    Members 0..n are verified against the shared coefficient; a member whose
    magnitude falls below the terminal-null threshold (relative to the base
    field) ends the orbit, as does a residual above the member gate.  Without
    `samples`, the members are checked on 400 Halton points of the base domain.
    """
    if not 0 <= n <= MAX_ORBIT_DEPTH:
        raise ValueError(f"orbit depth must be between 0 and {MAX_ORBIT_DEPTH}")
    if samples is None:
        samples = sample(base.domain, 400)

    hk = h_symmetry_check(base.h, k, samples)
    if not hk.passes({"h_symmetry": H_SYMMETRY_TOL}):
        raise ConstructionError(
            f"generator does not preserve the coefficient: "
            f"|xi . grad h| max = {hk.max('h_symmetry'):.3e}",
            hk,
        )

    chain = [base.field]
    for _ in range(n):
        chain.append(lie_euclidean(chain[-1], k))
    memo: dict = {}
    # walk the deepest member's curl first: it asks every member, and the base
    # field at order n + 1, for its jets once, and the checks below read them
    evaluate(Curl(chain[-1]), samples.points, memo)

    members: list[OrbitMember] = []
    truncated = False
    for i, current in enumerate(chain):
        rep = beltrami_residual(current, base.h, samples, label=f"orbit_member_{i}",
                                memo=memo)
        mag, _ = vector_norm_stats(current, samples, memo)
        base_max = members[0].max_magnitude if members else mag.max
        null = bool(mag.max < TERMINAL_NULL_REL * max(base_max, 1e-300))
        passed = null or rep.passes({"beltrami": MEMBER_GATE, "divergence": MEMBER_GATE})
        members.append(
            OrbitMember(
                field=current,
                index=i,
                report=rep,
                max_magnitude=mag.max,
                terminal_null=null,
                gate=MEMBER_GATE,
                passed=passed,
            )
        )
        if null:
            break
        if not passed:
            truncated = True
            break

    orbit = LieOrbit(base=base, generator=k, members=members, truncated=truncated)
    if truncated:
        orbit.notes["reason"] = "residual exceeded the member gate"
    return orbit
