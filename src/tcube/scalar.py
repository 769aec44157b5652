"""Exact arithmetic over the Gaussian rationals Q(i).

Every quantity in this package is a complex number a + b*i with rational a, b.
GaussRat keeps both components as Fraction, so canonical form (lowest terms,
positive denominator) is maintained automatically and equality is structural.
No floating point is accepted anywhere.
"""

from __future__ import annotations

from fractions import Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussRat:
    """An element of Q(i), immutable and hashable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring structure -----------------------------------------------------

    def _coerce(x):
        if isinstance(x, GaussRat):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussRat(x)
        return None

    def __add__(self, other):
        o = GaussRat._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussRat._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = GaussRat._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        o = GaussRat._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussRat._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRat((self.re * o.re + self.im * o.im) / n,
                        (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = GaussRat._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("0 raised to a negative power")
            return (ONE / self) ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- conjugation and norm -----------------------------------------------

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        """x * conj(x) as a rational; positive unless x = 0."""
        return self.re * self.re + self.im * self.im

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other):
        o = GaussRat._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        """A real value hashes as its Fraction, so that it hashes as the int
        or Fraction it equals."""
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"


def as_gauss(x) -> GaussRat:
    """Coerce int/Fraction/GaussRat to GaussRat; reject anything else."""
    g = GaussRat._coerce(x)
    if g is None:
        raise TypeError(f"cannot interpret {type(x).__name__} as an element of Q(i)")
    return g


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)
