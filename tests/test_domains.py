"""Domains and reproducible sampling."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mhstools
from mhstools.domains import Domain, SampleSet, _halton, fibonacci_sphere, sample


class TestDomains:
    def test_box_membership_and_volume(self):
        d = Domain.box((-1, -1, 0), (1, 1, 2))
        assert d.volume() == pytest.approx(8.0)
        assert d.contains(np.array([[0, 0, 1.0]]))[0]
        assert not d.contains(np.array([[0, 0, 2.5]]))[0]

    def test_ball_and_shells(self):
        b = Domain.ball((0, 0, 0), 1.0)
        assert b.volume() == pytest.approx(4 * np.pi / 3)
        s = Domain.spherical_shell((0, 0, 0), 0.5, 1.0)
        assert s.contains(np.array([[0.7, 0, 0]]))[0]
        assert not s.contains(np.array([[0.2, 0, 0]]))[0]
        c = Domain.cylindrical_shell(0.5, 1.5, -1.0, 1.0)
        assert c.contains(np.array([[1.0, 0, 0.5]]))[0]
        assert not c.contains(np.array([[0.1, 0, 0.5]]))[0]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Domain.box((1, 0, 0), (0, 1, 1))
        with pytest.raises(ValueError):
            Domain.ball((0, 0, 0), -1.0)
        with pytest.raises(ValueError):
            Domain.cylindrical_shell(1.5, 0.5, 0, 1)
        inf, nan = float("inf"), float("nan")
        for build, *args in [
            (Domain.box, (0, 0, 0), (inf, 1, 1)),
            (Domain.box, (-inf, 0, 0), (1, 1, 1)),
            (Domain.box, (0, nan, 0), (1, 1, 1)),
            (Domain.ball, (0, 0, 0), inf),
            (Domain.ball, (0, 0, 0), nan),
            (Domain.ball, (nan, 0, 0), 1.0),
            (Domain.spherical_shell, (0, 0, 0), 0.5, inf),
            (Domain.spherical_shell, (0, 0, inf), 0.5, 1.0),
            (Domain.cylindrical_shell, 0.5, 1.5, -inf, 1.0),
            (Domain.cylindrical_shell, 0.5, nan, 0, 1),
        ]:
            with pytest.raises(ValueError):
                build(*args)

    def test_unknown_shape_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown shape 'torus'"):
            Domain("torus")

    def test_to_dict_round_trip_fields(self):
        d = Domain.cylindrical_shell(0.5, 1.5, -1.0, 1.0)
        dd = d.to_dict()
        assert dd["shape"] == "cylindrical_shell"
        assert dd["r_inner"] == 0.5 and dd["z_max"] == 1.0


class TestSampling:
    @pytest.mark.parametrize("generator", ["halton", "random"])
    @pytest.mark.parametrize(
        "domain",
        [
            Domain.ball((0, 0, 0), 1.0),
            Domain.box((-1, 0.5, 0.5), (1, 1.5, 1.5)),
            Domain.cylindrical_shell(0.5, 1.5, -1.0, 1.0),
            Domain.spherical_shell((0, 0, 0), 0.4, 1.0),
        ],
    )
    def test_samples_inside_domain(self, domain, generator):
        ss = sample(domain, 500, generator=generator, seed=3)
        assert ss.count == 500
        assert domain.contains(ss.points).all()

    def test_reproducible_from_seed(self):
        d = Domain.ball((0, 0, 0), 1.0)
        a = sample(d, 200, generator="random", seed=7)
        b = sample(d, 200, generator="random", seed=7)
        np.testing.assert_array_equal(a.points, b.points)
        c = sample(d, 200, generator="random", seed=8)
        assert not np.array_equal(a.points, c.points)

    def test_halton_deterministic(self):
        d = Domain.ball((0, 0, 0), 1.0)
        a = sample(d, 200, generator="halton")
        b = sample(d, 200, generator="halton")
        np.testing.assert_array_equal(a.points, b.points)

    def test_halton_seed_shifts_the_sequence(self):
        d = Domain.spherical_shell((0, 0, 0), 0.6, 1.0)
        lo, hi = d.bounding_box()
        plain = lo + _halton(0, 4000) * (hi - lo)
        plain = plain[d.contains(plain)][:300]
        a0 = sample(d, 300, generator="halton", seed=0)
        # seed 0 is the unshifted sequence, accepted points in order
        np.testing.assert_array_equal(a0.points, plain)
        a7 = sample(d, 300, generator="halton", seed=7)
        assert not np.array_equal(a0.points, a7.points)
        again = sample(d, 300, generator="halton", seed=7)
        np.testing.assert_array_equal(a7.points, again.points)
        for ss in (a7, sample(d, 300, generator="halton", seed=2**31 - 1)):
            assert d.contains(ss.points).all()

    def test_provenance(self):
        d = Domain.ball((0, 0, 0), 1.0)
        ss = sample(d, 50, generator="random", seed=5)
        prov = ss.provenance()
        assert prov == {
            "generator": "random",
            "seed": 5,
            "count": 50,
            "domain": d.to_dict(),
        }

    def test_points_are_read_only(self):
        ss = sample(Domain.ball((0, 0, 0), 1.0), 10)
        with pytest.raises(ValueError):
            ss.points[0, 0] = 99.0

    @pytest.mark.parametrize("generator", ["halton", "random"])
    def test_separate_equal_draws_compare_equal(self, generator):
        d = Domain.ball((0, 0, 0), 1.0)
        a = sample(d, 200, generator=generator, seed=7)
        b = sample(d, 200, generator=generator, seed=7)
        assert a.points is not b.points
        assert a == b and not a != b
        assert a != sample(d, 200, generator=generator, seed=8)

    def test_sets_differing_in_one_field_compare_unequal(self):
        d = Domain.box((-1, -1, -1), (1, 1, 1))
        ss = sample(d, 20, generator="random", seed=3)

        def with_points(pts):
            return SampleSet(points=pts, generator=ss.generator, seed=ss.seed, domain=d)

        moved = ss.points.copy()
        moved[5, 1] = np.nextafter(moved[5, 1], 2.0)
        signed = np.zeros((2, 3))
        signed[0, 0] = -0.0
        others = [
            with_points(moved),
            with_points(ss.points[:19].copy()),
            with_points(ss.points.reshape(60, 1).copy()),
            with_points(ss.points.astype(np.float32)),
            ss.replace(generator="halton"),
            ss.replace(seed=4),
            ss.replace(domain=Domain.box((-1, -1, -1), (1, 1, 2))),
        ]
        assert ss == with_points(ss.points.copy())
        for other in others:
            assert ss != other and other != ss
        # bit for bit: -0.0 and 0.0 differ
        assert with_points(signed) != with_points(np.zeros((2, 3)))
        assert ss != "ss" and ss != None  # noqa: E711

    def test_sample_set_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(sample(Domain.ball((0, 0, 0), 1.0), 10))


def test_halton_matches_scipy_bit_for_bit():
    qmc = pytest.importorskip("scipy.stats.qmc")
    engine = qmc.Halton(d=3, scramble=False)
    start = 0
    for m in (1, 255, 256, 1000, 5000, 7, 100_000):
        expected = engine.random(m)
        assert _halton(start, m).tobytes() == expected.tobytes()
        start += m
    assert start > 10**5


def _loaded_by_cli_import(package: str) -> str:
    """The modules of `package` that `import mhstools.cli` loads in a fresh interpreter."""
    src = str(Path(mhstools.__file__).resolve().parents[1])
    code = ("import sys, mhstools.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}).stdout.strip()


def test_cli_import_does_not_load_scipy():
    assert _loaded_by_cli_import("scipy") == "[]"


def test_cli_import_does_not_load_dataclasses():
    # the package declares its value classes on reports.Record, with no code generation
    assert _loaded_by_cli_import("dataclasses") == "[]"


def test_fibonacci_sphere_on_radius():
    pts = fibonacci_sphere(100, radius=0.4)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 0.4, atol=1e-12)
