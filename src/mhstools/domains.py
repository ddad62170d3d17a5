"""Sampling regions: boxes, balls and shells.

Sample sets are reproducible from (generator tag, seed, count, domain); the
low-discrepancy generator is the Halton sequence in bases 2, 3 and 5 (radical
inverses computed here, bit-identical to scipy's unscrambled `qmc.Halton`),
rotated by a seeded Cranley-Patterson shift, the random one a seeded PCG64
stream, both filtered by rejection against the region.
"""

from __future__ import annotations

import numpy as np

from .reports import Record

DEFAULT_SAMPLES = 1000  # points a check draws when its caller passes no sample set
SHAPES = ("box", "ball", "spherical_shell", "cylindrical_shell")


class Domain(Record, frozen=True):
    """Axis-aligned box, ball, or shell."""

    shape: str
    lo: tuple = (0.0, 0.0, 0.0)
    hi: tuple = (0.0, 0.0, 0.0)
    center: tuple = (0.0, 0.0, 0.0)
    r_inner: float = 0.0
    r_outer: float = 0.0
    z_min: float = 0.0
    z_max: float = 0.0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if not np.isfinite([*self.lo, *self.hi, *self.center, self.r_inner, self.r_outer,
                            self.z_min, self.z_max]).all():
            raise ValueError("domain parameters must be finite")

    # constructors ----------------------------------------------------------

    @staticmethod
    def box(lo, hi) -> "Domain":
        lo, hi = tuple(map(float, lo)), tuple(map(float, hi))
        if not all(a < b for a, b in zip(lo, hi)):
            raise ValueError("box needs lo < hi componentwise")
        return Domain("box", lo=lo, hi=hi)

    @staticmethod
    def ball(center, radius) -> "Domain":
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        return Domain("ball", center=tuple(map(float, center)), r_outer=float(radius))

    @staticmethod
    def spherical_shell(center, r_inner, r_outer) -> "Domain":
        if not 0 <= r_inner < r_outer:
            raise ValueError("need 0 <= r_inner < r_outer")
        return Domain(
            "spherical_shell",
            center=tuple(map(float, center)),
            r_inner=float(r_inner),
            r_outer=float(r_outer),
        )

    @staticmethod
    def cylindrical_shell(r_inner, r_outer, z_min, z_max) -> "Domain":
        if not (0 <= r_inner < r_outer and z_min < z_max):
            raise ValueError("bad cylindrical shell parameters")
        return Domain(
            "cylindrical_shell",
            r_inner=float(r_inner),
            r_outer=float(r_outer),
            z_min=float(z_min),
            z_max=float(z_max),
        )

    # geometry ---------------------------------------------------------------

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.shape == "box":
            return np.asarray(self.lo), np.asarray(self.hi)
        if self.shape in ("ball", "spherical_shell"):
            c = np.asarray(self.center)
            return c - self.r_outer, c + self.r_outer
        r = self.r_outer
        return (
            np.array([-r, -r, self.z_min]),
            np.array([r, r, self.z_max]),
        )

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if self.shape == "box":
            lo, hi = np.asarray(self.lo), np.asarray(self.hi)
            ok = np.all((pts >= lo) & (pts <= hi), axis=1)
        elif self.shape in ("ball", "spherical_shell"):
            # np.linalg.norm(pts - center, axis=1) with the squares taken in place:
            # norm's own would be a second (N, 3) temporary, enough to set the peak
            # memory of a 1e5-point Monte Carlo draw
            d = pts - np.asarray(self.center)
            np.multiply(d, d, out=d)
            d = np.sqrt(np.add.reduce(d, axis=1))
            ok = (d >= self.r_inner) & (d <= self.r_outer)
        else:
            r = np.hypot(pts[:, 0], pts[:, 1])
            ok = (
                (r >= self.r_inner)
                & (r <= self.r_outer)
                & (pts[:, 2] >= self.z_min)
                & (pts[:, 2] <= self.z_max)
            )
        return ok

    def volume(self) -> float:
        """Volume of the region."""
        if self.shape == "box":
            lo, hi = self.bounding_box()
            return float(np.prod(hi - lo))
        if self.shape == "ball":
            return 4.0 / 3.0 * np.pi * self.r_outer**3
        if self.shape == "spherical_shell":
            return 4.0 / 3.0 * np.pi * (self.r_outer**3 - self.r_inner**3)
        return np.pi * (self.r_outer**2 - self.r_inner**2) * (self.z_max - self.z_min)

    def to_dict(self):
        d = {"shape": self.shape}
        if self.shape == "box":
            d["lo"], d["hi"] = list(self.lo), list(self.hi)
        elif self.shape == "ball":
            d["center"], d["radius"] = list(self.center), self.r_outer
        elif self.shape == "spherical_shell":
            d["center"] = list(self.center)
            d["r_inner"], d["r_outer"] = self.r_inner, self.r_outer
        elif self.shape == "cylindrical_shell":
            d["r_inner"], d["r_outer"] = self.r_inner, self.r_outer
            d["z_min"], d["z_max"] = self.z_min, self.z_max
        return d


class SampleSet(Record, frozen=True):
    """An ordered, reproducible batch of sample points inside a domain."""

    points: np.ndarray
    generator: str
    seed: int
    domain: Domain

    def __post_init__(self):
        self.points.setflags(write=False)

    def __eq__(self, other):  # the points bit for bit (dtype, shape, bytes), the rest field-wise
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.points, other.points
        return ((a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                and self._values()[1:] == other._values()[1:])

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def provenance(self) -> dict:
        return {
            "generator": self.generator,
            "seed": self.seed,
            "count": self.count,
            "domain": self.domain.to_dict(),
        }


def _halton(start: int, m: int) -> np.ndarray:
    """Points start, ..., start + m - 1 of the unscrambled Halton sequence, (m, 3).

    Each coordinate is the radical inverse of the index in its base, summed
    digit by digit in the order scipy's `qmc.Halton(d=3, scramble=False)`
    uses, so the points are bit-identical to it.  Lanes whose digits have run
    out keep adding +0.0, which leaves them unchanged.
    """
    out = np.zeros((m, 3))
    for k, b in enumerate((2, 3, 5)):
        q = np.arange(start, start + m)
        b2r = 1.0 / b
        while q.any():
            out[:, k] += (q % b) * b2r
            b2r /= b
            q //= b
    return out


def sample(domain: Domain, n: int, generator: str = "halton", seed: int = 0) -> SampleSet:
    """Draw n points from the domain by rejection from its bounding box.

    "halton" draws successive Halton points (from index 0, continuing across
    the rejection rounds) rotated by the Cranley-Patterson shift
    u -> (u + shift) mod 1 with shift = default_rng(seed).random(3); seed 0
    takes no shift, i.e. the plain sequence.  "random" draws from a PCG64
    stream seeded with `seed`.
    """
    if n <= 0:
        raise ValueError("need a positive sample count")
    lo, hi = domain.bounding_box()
    span = hi - lo
    if generator == "halton":
        shift = np.random.default_rng(seed).random(3) if seed else np.zeros(3)
        drawn = 0

        def draw(m):
            nonlocal drawn
            u = (_halton(drawn, m) + shift) % 1.0
            drawn += m
            return lo + u * span

    elif generator == "random":
        rng = np.random.default_rng(seed)

        def draw(m):
            return lo + rng.random((m, 3)) * span

    else:
        raise ValueError(f"unknown generator {generator!r}")

    chunks: list[np.ndarray] = []
    got = 0
    attempts = 0
    while got < n:
        m = max(2 * (n - got), 256)
        cand = draw(m)
        keep = cand[domain.contains(cand)]
        chunks.append(keep)
        got += keep.shape[0]
        attempts += 1
        if attempts > 200:
            raise ValueError("rejection sampling failed; empty region?")
    pts = np.concatenate(chunks, axis=0)[:n]
    return SampleSet(points=pts, generator=generator, seed=seed, domain=domain)


def fibonacci_sphere(n: int, radius: float = 1.0) -> np.ndarray:
    """Deterministic quasi-uniform points on a sphere about the origin."""
    i = np.arange(n, dtype=float)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    zc = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(1.0 - zc**2)
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), zc], axis=1)
    return radius * pts
