"""Minimal quaternion arithmetic, enough to settle square-root existence."""
from __future__ import annotations

import math
from dataclasses import dataclass

QUATERNION_TOL = 1e-12


@dataclass(frozen=True)
class Quaternion:
    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.hypot(self.w, self.x, self.y, self.z)

    def vector_norm(self) -> float:
        return math.hypot(self.x, self.y, self.z)

    def isclose(self, other: "Quaternion", tol: float = QUATERNION_TOL) -> bool:
        return (self - other).norm() <= tol


def quaternion_sqrt(q: Quaternion) -> Quaternion:
    """A quaternion r with r * r == q; always exists.

    Negative reals have a whole sphere of square roots (any unit imaginary
    direction works); this routine picks sqrt(|q|) * i by convention.  All
    other inputs get the root in the plane spanned by 1 and the imaginary
    part of q, with nonnegative real part.
    """
    mag = q.norm()
    vec = q.vector_norm()
    if mag == 0.0:
        return Quaternion()
    if vec == 0.0:
        if q.w > 0:
            return Quaternion(w=math.sqrt(q.w))
        return Quaternion(x=math.sqrt(-q.w))
    # r = a + (b/vec) * imag(q) with a^2 - b^2 = q.w and 2ab = vec.
    # Only one of the two square roots is well conditioned when |vec| << |w|;
    # take that one and recover the other from the product identity.
    if q.w >= 0.0:
        a = math.sqrt((mag + q.w) / 2.0)
        b = vec / (2.0 * a)
    else:
        b = math.sqrt((mag - q.w) / 2.0)
        a = vec / (2.0 * b)
    scale = b / vec
    return Quaternion(a, q.x * scale, q.y * scale, q.z * scale)
