"""Exact scalar arithmetic over Q and Q(i).

The real scalars are plain ``fractions.Fraction`` values (re-exported as
``Rational``): always normalized, denominator positive, zero stored as 0/1.
``GaussianRational`` adds the imaginary unit on top, giving the field Q(i)
where complexified frequencies a + bi live.  Everything here is an immutable
value; results are exact or an exception is raised, never a rounded number.

``Record`` is the base of the package's immutable value types, here and in
the other modules: a ``__slots__`` class whose slots are its fields, in
order, with ``==``, ``hash`` and ``repr`` over them and no assignment or
deletion once built.  Each record's own ``__init__`` converts and checks
its arguments.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Union

Rational = Fraction

RationalLike = Union[int, Fraction]

_F0 = Fraction(0)


def rat_to_json(q: Fraction) -> dict:
    """JSON form with string fields so arbitrary precision survives transport."""
    return {"num": str(q.numerator), "den": str(q.denominator)}


def power(base, exponent: int, one, mul=operator.mul):
    """base**exponent for exponent >= 0 by square-and-multiply, one the unit.

    Serves every ``**`` on exact values: Gaussian rationals, the parser's
    expressions, whose products the parser checks against its size limits
    through ``mul``, and ``factor``'s polynomials modulo p; about
    log2(exponent) squarings instead of exponent products.
    """
    result = one
    while exponent:
        if exponent & 1:
            result = mul(result, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return result


class Record:
    """An immutable value whose fields are its ``__slots__``, in order.

    Two records are equal when they are of the same class and their fields
    are equal; the hash is that of the field tuple, and the repr names each
    field.  A subclass sets its fields in ``__init__`` through
    ``object.__setattr__``; any later assignment or deletion raises
    AttributeError.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as assignment is refused
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GaussianRational(Record):
    """A complex number re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction = _F0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @staticmethod
    def _raw(re: Fraction, im: Fraction) -> "GaussianRational":
        # arithmetic fast path: parts are known to be Fractions already
        z = object.__new__(GaussianRational)
        object.__setattr__(z, "re", re)
        object.__setattr__(z, "im", im)
        return z

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return GaussianRational._raw(self.re * other.re, _F0)
        return GaussianRational._raw(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, ONE)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.re, -self.im)

    def norm(self) -> Fraction:
        """re^2 + im^2, the multiplicative norm of Q(i)."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals its Fraction, so it hashes as one
        return hash((self.re, self.im)) if self.im else hash(self.re)

    # -- conversions --------------------------------------------------------

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        re = f"{self.re.numerator}/{self.re.denominator}"
        sign = "-" if self.im < 0 else "+"
        im = abs(self.im)
        return f"{re}{sign}{im.numerator}/{im.denominator}i"

    def pretty(self) -> str:
        """Compact human form: '3', '2i', '-1-26i', '3/2+i'."""
        if self.is_real():
            return str(self.re)
        im = abs(self.im)
        im_part = "i" if im == 1 else f"{im}i"
        sign = "-" if self.im < 0 else "+"
        if not self.re:
            return im_part if self.im > 0 else f"-{im_part}"
        return f"{self.re}{sign}{im_part}"

    def to_json(self) -> dict:
        return {"re": rat_to_json(self.re), "im": rat_to_json(self.im)}


ZERO = GaussianRational(Fraction(0))
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))


def gauss(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Shorthand constructor accepting ints and Fractions."""
    return GaussianRational(Fraction(re), Fraction(im))


def scalar_to_json(z: GaussianRational) -> dict:
    """Rational JSON form when the value is real, Gaussian form otherwise."""
    if z.is_real():
        return rat_to_json(z.re)
    return z.to_json()
