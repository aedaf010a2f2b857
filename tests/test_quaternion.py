import math

import numpy as np
import pytest

from qvlab.quaternion import Quaternion, quaternion_sqrt

RNG = np.random.default_rng(7)

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)
ONE = Quaternion(1, 0, 0, 0)


def random_quaternion():
    w, x, y, z = RNG.normal(size=4)
    return Quaternion(w, x, y, z)


def test_multiplication_table():
    assert (I * I).isclose(Quaternion(-1, 0, 0, 0))
    assert (J * J).isclose(Quaternion(-1, 0, 0, 0))
    assert (K * K).isclose(Quaternion(-1, 0, 0, 0))
    assert (I * J).isclose(K)
    assert (J * I).isclose(Quaternion(0, 0, 0, -1))
    assert (J * K).isclose(I)
    assert (K * I).isclose(J)


def test_norm_is_multiplicative():
    for _ in range(100):
        a, b = random_quaternion(), random_quaternion()
        assert (a * b).norm() == pytest.approx(a.norm() * b.norm(), rel=1e-12)


def test_conjugate_gives_squared_norm():
    q = random_quaternion()
    prod = q * q.conjugate()
    assert prod.w == pytest.approx(q.norm() ** 2, rel=1e-12)
    assert prod.vector_norm() == pytest.approx(0.0, abs=1e-12)


def test_sqrt_of_zero_and_positive_real():
    assert quaternion_sqrt(Quaternion(0, 0, 0, 0)).isclose(Quaternion(0, 0, 0, 0))
    r = quaternion_sqrt(Quaternion(9, 0, 0, 0))
    assert r.isclose(Quaternion(3, 0, 0, 0))


def test_sqrt_of_negative_real_picks_i():
    """-1 has a 2-sphere of square roots; the convention here is i."""
    r = quaternion_sqrt(Quaternion(-1, 0, 0, 0))
    assert r.isclose(I)
    r = quaternion_sqrt(Quaternion(-16, 0, 0, 0))
    assert r.isclose(Quaternion(0, 4, 0, 0))


def test_sqrt_known_value():
    # sqrt(2i) = 1 + i
    r = quaternion_sqrt(Quaternion(0, 2, 0, 0))
    assert r.isclose(Quaternion(1, 1, 0, 0))


def test_sqrt_multiplies_back():
    for _ in range(500):
        q = random_quaternion()
        r = quaternion_sqrt(q)
        assert (r * r).isclose(q, tol=1e-10), (q, r)


def test_sqrt_multiplies_back_near_negative_axis():
    for eps in (1e-3, 1e-6, 1e-9, 1e-12):
        q = Quaternion(-1.0, eps, 0, 0)
        r = quaternion_sqrt(q)
        assert (r * r).isclose(q, tol=1e-9)


@pytest.mark.parametrize("q", [Quaternion(1e300, 1e300, 0, 0), Quaternion(-1e-200, 0, 0, 0),
                               Quaternion(1e-300, 1e-300, 0, 0), Quaternion(0, 1e-170, 1e-170, 0)])
def test_sqrt_where_the_squares_overflow_or_underflow(q):
    """The squares of these components leave the double range; their root
    still multiplies back, and is not the zero quaternion."""
    r = quaternion_sqrt(q)
    assert r != Quaternion()
    assert (r * r - q).norm() <= 1e-12 * q.norm()


def test_sqrt_principal_half_angle():
    q = Quaternion(math.cos(0.8), math.sin(0.8), 0, 0)
    r = quaternion_sqrt(q)
    assert r.w == pytest.approx(math.cos(0.4), rel=1e-12)
    assert r.x == pytest.approx(math.sin(0.4), rel=1e-12)
