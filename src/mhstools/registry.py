"""Unified name registry over the built-in field catalogs."""

from __future__ import annotations

from . import beltrami, clebsch
from .beltrami import BeltramiRecord
from .clebsch import ClebschSolution
from .domains import Domain
from .fields import ScalarField, VectorField
from .reports import Record


class FieldEntry(Record, frozen=True):
    name: str
    kind: str  # "beltrami" | "pressure"
    field: VectorField
    domain: Domain
    h: ScalarField | None = None
    chi: ScalarField | None = None
    record: BeltramiRecord | None = None
    solution: ClebschSolution | None = None
    provenance: str = ""

    def to_dict(self):
        d = {
            "name": self.name,
            "kind": self.kind,
            "domain": self.domain.to_dict(),
            "provenance": self.provenance,
        }
        if self.record is not None:
            d["components"] = self.record.to_dict()["components"]
            d["h"] = self.h.render()
        if self.solution is not None:
            d.update(self.solution.to_dict())
            d["name"] = self.name
        return d


def names() -> list[str]:
    return list(beltrami.CATALOG_NAMES) + list(clebsch.CATALOG_NAMES)


def get(name: str) -> FieldEntry:
    if name in beltrami.CATALOG_NAMES:
        rec = beltrami.catalog(name)
        return FieldEntry(
            name=name,
            kind="beltrami",
            field=rec.field,
            domain=rec.domain,
            h=rec.h,
            record=rec,
            provenance=rec.provenance,
        )
    if name in clebsch.CATALOG_NAMES:
        sol = clebsch.catalog(name)
        prov = f"potentials phi = {sol.phi.render()}, psi = {sol.psi.render()}"
        return FieldEntry(
            name=name,
            kind="pressure",
            field=sol.w,
            domain=sol.domain,
            chi=sol.chi,
            solution=sol,
            provenance=prov,
        )
    raise ValueError(f"unknown field {name!r}; available: {', '.join(names())}")
