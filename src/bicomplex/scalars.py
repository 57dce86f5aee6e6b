"""Exact Gaussian-rational scalars.

Every computation in this package runs over the field Q(i) of complex
numbers with rational real and imaginary parts.  It is the smallest exact
field closed under complex conjugation, which is all the real structure
of a double complex ever needs.  No rounding occurs anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


class _Value:
    """A read-only value with the named fields `_fields`, each a slot of
    the subclass, set by its normalising __init__ with object.__setattr__.
    Equality compares the fields in order within one class, the repr reads
    Class(field=value, ...), pickle and deepcopy rebuild the value through
    __init__, and the value is unhashable unless its class says otherwise."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self._fields] == [getattr(other, f) for f in self._fields]

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)


class GaussianRational(_Value):
    """A number re + im*i with exact rational re and im.

    A read-only value: two scalars are equal when their (re, im) are, and
    hash as (re, im)."""

    __slots__ = _fields = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __str__(self) -> str:
        return format_scalar(self)

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        return parse_scalar(text)


def gauss(re=0, im=0) -> GaussianRational:
    """Build a scalar from ints or Fractions."""
    return GaussianRational(_as_fraction(re), _as_fraction(im))


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(_as_fraction(x), Fraction(0))
    return NotImplemented


ZERO = gauss(0)
ONE = gauss(1)
I = gauss(0, 1)

# One signed token: a rational a or a/b, an imaginary multiple thereof, or a
# bare i.  Scalars are one or two such tokens, e.g. "-2/3", "i", "1/2-1/3i".
_TOKEN = r"[+-]?(?:\d+(?:/\d+)?i?|i)"
_SCALAR_RE = re.compile(rf"({_TOKEN})({_TOKEN})?$")


def parse_scalar(text: str) -> GaussianRational:
    """Parse 'a/b', 'c/d i', 'a/b+c/d*i' and friends; '*' and spaces are noise."""
    compact = text.replace(" ", "").replace("\t", "").replace("*", "")
    m = _SCALAR_RE.match(compact)
    if m is None:
        raise ValueError(f"malformed scalar {text!r}")
    re_part = None
    im_part = None
    for token in m.groups():
        if token is None:
            continue
        sign = -1 if token.startswith("-") else 1
        token = token.lstrip("+-")
        if token.endswith("i"):
            if im_part is not None:
                raise ValueError(f"two imaginary parts in scalar {text!r}")
            token = token[:-1]
            im_part = sign * (Fraction(token) if token else Fraction(1))
        else:
            if re_part is not None:
                raise ValueError(f"two real parts in scalar {text!r}")
            re_part = sign * Fraction(token)
    return GaussianRational(re_part or Fraction(0), im_part or Fraction(0))


def format_scalar(x: GaussianRational) -> str:
    """Canonical text form, e.g. '0', '-2/3', 'i', '1/2-1/3*i'.  parse_scalar inverts it."""
    if not x.im:
        return str(x.re)
    if x.im == 1:
        im = "i"
    elif x.im == -1:
        im = "-i"
    else:
        im = f"{x.im}*i"
    if not x.re:
        return im
    sep = "+" if x.im > 0 else ""
    return f"{x.re}{sep}{im}"
