"""Univariate polynomials in q with integer coefficients, exact arithmetic.

The public constructor coerces every coefficient to an int (ValueError
unless it is a whole number) and trims trailing zeros.  Arithmetic
results skip that coercion: their coefficients are sums and products of
ints already, so they are built by ``QPoly._make`` from a finished
tuple, trimmed only where a zero can lead (a sum of two polynomials of
equal length).  A product of non-zero integer polynomials has a non-zero
leading coefficient, and so does a sum of unequal lengths.
"""

from __future__ import annotations


def _integral(c) -> int:
    """c as an int; ValueError unless it is a whole number."""
    i = int(c)
    if i != c:
        raise ValueError("non-integral coefficient %r" % (c,))
    return i


class QPoly:
    """Immutable integer polynomial; coefficients ascending, normalized."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _integral(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _make(cls, coeffs: tuple) -> "QPoly":
        """A QPoly on ints already trimmed: no coercion, no check."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    def __setattr__(self, *a):
        raise AttributeError("QPoly is immutable")

    @staticmethod
    def zero() -> "QPoly":
        return QPoly(())

    @staticmethod
    def one() -> "QPoly":
        return QPoly((1,))

    @staticmethod
    def q_power(k: int) -> "QPoly":
        return QPoly((0,) * k + (1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial")
        return len(self.coeffs) - 1

    def leading_coefficient(self) -> int:
        if not self.coeffs:
            raise ValueError("leading coefficient of the zero polynomial")
        return self.coeffs[-1]

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        if len(a) == len(b):  # the leading terms may cancel
            while out and out[-1] == 0:
                out.pop()
        return QPoly._make(tuple(out))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + -other

    def __neg__(self) -> "QPoly":
        return QPoly._make(tuple([-c for c in self.coeffs]))

    def __mul__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly._make(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return QPoly._make(tuple(out))

    def shifted(self, k: int) -> "QPoly":
        """q^k times this polynomial, k >= 0."""
        if not k or not self.coeffs:
            return self
        return QPoly._make((0,) * k + self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def pretty(self) -> str:
        """Human form, highest degree first: '2q^4 - 2q^3', 'q', '1', '0'."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "q" if mag == 1 else "%dq" % mag
            else:
                body = "q^%d" % k if mag == 1 else "%dq^%d" % (mag, k)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "QPoly(%r)" % (list(self.coeffs),)

    def to_jsonable(self) -> dict:
        return {"coeffs": list(self.coeffs)}
