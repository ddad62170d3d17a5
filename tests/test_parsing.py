"""Inline expression grammar."""

import numpy as np
import pytest

from mhstools.fields import substitute, z
from mhstools.parsing import parse_scalar, parse_univariate


def test_arithmetic_and_caret_power():
    f = parse_scalar("(x^2 + y^2)/2 - 3*z")
    assert f((2.0, 4.0, 1.0)) == pytest.approx(7.0)


def test_functions():
    f = parse_scalar("exp(x)*sin(y) + sqrt(z) - log(2*z) + atan2(y, x)")
    p = (0.5, 0.2, 1.5)
    expect = (
        np.exp(0.5) * np.sin(0.2)
        + np.sqrt(1.5)
        - np.log(3.0)
        + np.arctan2(0.2, 0.5)
    )
    assert f(p) == pytest.approx(expect)


def test_radius_alias():
    f = parse_scalar("r^2")
    assert f((3.0, 4.0, 7.0)) == pytest.approx(25.0)


def test_unary_minus_and_python_power():
    f = parse_scalar("-x**3")
    assert f((2.0, 0.0, 0.0)) == pytest.approx(-8.0)


def test_univariate_placeholder():
    u = parse_univariate("2*T + T^2")
    f = substitute(u, {"T": z})
    assert f((0.0, 0.0, 3.0)) == pytest.approx(15.0)


def test_round_trip_through_render():
    src = "exp(x)*cos(y + z^2)"
    f = parse_scalar(src)
    g = parse_scalar(f.render().replace("^", "**"))
    p = (0.3, -0.4, 0.8)
    assert f(p) == pytest.approx(g(p))


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "import os",
        "__import__('os')",
        "x +",
        "foo(x)",
        "w + 1",
        "x @ y",
        "atan2(x)",
        "'str'",
        "x ^ y",  # exponent must be numeric
        "[1, 2]",
    ],
)
def test_rejects_malformed_or_disallowed(bad):
    with pytest.raises(ValueError) as ei:
        parse_scalar(bad)
    assert type(ei.value) is ValueError


def test_unbound_placeholder_cannot_evaluate():
    u = parse_univariate("T + 1")
    from mhstools.fields import EvaluationError

    with pytest.raises(EvaluationError):
        u((0.0, 0.0, 0.0))
