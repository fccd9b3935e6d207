"""Exact arithmetic in real quadratic extensions of the rationals.

Numbers are stored as a + b*sqrt(d) with rational a, b and a squarefree
integer radicand d >= 0.  Radicands are canonicalized (square parts pulled
into b, rationals forced to d == 0), so equality is componentwise and
values from different extensions can at least be compared for equality.
The constructor canonicalizes; results of arithmetic on canonical operands
keep the operands' squarefree radicand and only fold b == 0 to d == 0.
Mixing two genuinely different irrational radicands in one sum raises.

Everything the builders need stays inside one extension: for a rational
stretch factor lam >= 2 the cylinder data lives in Q(sqrt(lam^2-4)), and
eigendirections of integer matrices live in Q(sqrt(trace^2-4)).

One rule says which values are exact: a number is exact when it is a
rational or a QuadExt, and a computation is exact exactly when its inputs
are and lie in one quadratic field; a float anywhere, or a second field,
makes it float.  `field_of` decides it for every layer, `_number` coerces
a value under it and `_equal` compares two values under it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite as _isfinite, isqrt as _isqrt
from numbers import Rational


_TRIAL_LIMIT = 1 << 20  # largest trial divisor
# below _PSI13, a strong probable prime to the bases _SPRP_BASES is prime
# (J. Sorenson and J. Webster, Math. Comp. 86, 2017)
_PSI13 = 3317044064679887385961981
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_strong_probable_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 41 to every base in _SPRP_BASES."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _SPRP_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s*s*m with m squarefree; returns (s, m). n must be >= 0.

    Trial division runs while p**3 <= the cofactor r, for p up to 2**20.
    Every prime factor of what is left is at least p, so a cofactor below
    p**3, or below 2**60 once every p up to 2**20 is tried, has at most two
    of them: it is squarefree unless it is the square of a prime.  A larger
    cofactor is squarefree when it is a prime below _PSI13, which the
    strong probable prime test decides there; any other cofactor that is
    not a square could hide a squared prime: ValueError.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1):
        return 1, n
    s, r, p = 1, n, 2
    while p * p * p <= r and p <= _TRIAL_LIMIT:
        e = 0
        while r % p == 0:
            r //= p
            e += 1
        s *= p ** (e // 2)
        p += 1 if p == 2 else 2
    t = _isqrt(r)
    if t * t == r:
        s *= t
    elif r >= _TRIAL_LIMIT ** 3 and not (r < _PSI13 and _is_strong_probable_prime(r)):
        raise ValueError(f"radicand {n} is too large to split off its square part")
    return s, n // (s * s)


def _sign(p, q, d: int) -> int:
    """Exact sign of p + q*sqrt(d) for rationals p, q and d >= 0."""
    if q == 0 or d == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if (p > 0) == (q > 0):
        return 1 if p > 0 else -1
    # opposite signs: compare p^2 with q^2 d
    lhs, rhs = p * p, q * q * d
    return (lhs > rhs) - (lhs < rhs) if p > 0 else (rhs > lhs) - (rhs < lhs)


class QuadExt:
    """Immutable element a + b*sqrt(d) of a real quadratic field."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int = 0):
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if b == 0:
            d = 0
        elif d == 0:
            b = Fraction(0)
        else:
            s, m = _squarefree_split(d)
            if m in (0, 1):
                a, b, d = a + b * s * (m == 1), Fraction(0), 0
            else:
                b, d = b * s, m
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *_):
        raise AttributeError("QuadExt is immutable")

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def of(x) -> "QuadExt":
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, Rational):
            return _field(Fraction(x), _ZERO, 0)
        raise TypeError(f"cannot coerce {type(x).__name__} to QuadExt")

    def _join(self, other) -> tuple["QuadExt", "QuadExt", int]:
        o = QuadExt.of(other)
        if self.d == o.d:
            return self, o, self.d
        if self.d == 0:
            return self, o, o.d
        if o.d == 0:
            return self, o, self.d
        raise ValueError(f"incompatible radicands {self.d} and {o.d}")

    # -- arithmetic -------------------------------------------------------
    # exact with rationals and same-field elements; an operand that is a
    # float degrades the result to float

    def __add__(self, other):
        if isinstance(other, float):
            return float(self) + other
        x, y, d = self._join(other)
        return _field(x.a + y.a, x.b + y.b, d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, float):
            return float(self) - other
        x, y, d = self._join(other)
        return _field(x.a - y.a, x.b - y.b, d)

    def __rsub__(self, other):
        if isinstance(other, float):
            return other - float(self)
        return QuadExt.of(other) - self

    def __neg__(self):
        return _field(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if isinstance(other, float):
            return float(self) * other
        x, y, d = self._join(other)
        return _field(x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, float):
            return float(self) / other
        x, y, d = self._join(other)
        nrm = y.a * y.a - y.b * y.b * d
        if nrm == 0:
            raise ZeroDivisionError("division by zero field element")
        a = (x.a * y.a - x.b * y.b * d) / nrm
        return _field(a, (x.b * y.a - x.a * y.b) / nrm, d)

    def __rtruediv__(self, other):
        if isinstance(other, float):
            return other / float(self)
        return QuadExt.of(other) / self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, n: int):
        if n < 0:
            return QuadExt(1) / self ** (-n)
        out = QuadExt(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- order ------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b = self.a, self.b
        # times a.denominator * b.denominator > 0: integer coefficients
        return _sign(a.numerator * b.denominator, b.numerator * a.denominator, self.d)

    def _cmp(self, other) -> int:
        if isinstance(other, float):
            a, b = float(self), other
            return (a > b) - (a < b)
        if isinstance(other, QuadExt) or not isinstance(other, Rational):
            return (self - other).sign()
        # sign of (a - p/q) + b*sqrt(d), times the positive a, b and q denominators
        a, b = self.a, self.b
        p, q = int(other.numerator), int(other.denominator)
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        return _sign((an * q - p * ad) * bd, bn * ad * q, self.d)

    def __eq__(self, other):
        if isinstance(other, float):
            return float(self) == other
        try:
            x, y, _ = self._join(other)
        except TypeError:
            return NotImplemented
        except ValueError:
            return False  # distinct squarefree radicands never coincide
        return x.a == y.a and x.b == y.b

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- views ------------------------------------------------------------

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def __float__(self):
        if self.b == 0:
            return float(self.a)
        # naive float(a) + float(b)*sqrt(d) cancels catastrophically when a
        # and b are huge with opposite signs (e.g. high powers of quadratic
        # units); go through a 2^-120 rational approximation of sqrt(d)
        scale = 1 << 120
        root = Fraction(_isqrt(self.d * scale * scale), scale)
        value = self.a + self.b * root
        try:
            return float(value)
        except OverflowError:
            return float("inf") if value > 0 else float("-inf")

    def __repr__(self):
        if self.b == 0:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a}, {self.b}, {self.d})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*r{self.d}"
        return f"{self.a}{'+' if self.b > 0 else ''}{self.b}*r{self.d}"


_ZERO = Fraction(0)


def _field(a: Fraction, b: Fraction, d: int) -> QuadExt:
    """a + b*sqrt(d) from arithmetic on canonical operands: d is already
    squarefree (or 0 with b == 0), so only b == 0 folds to d == 0."""
    x = object.__new__(QuadExt)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d if b else 0)
    return x


_set_a, _set_b, _set_d = QuadExt.a.__set__, QuadExt.b.__set__, QuadExt.d.__set__


def _number(x):
    """x as a Fraction or QuadExt when it is exact, as a float otherwise;
    a NaN or infinite float is refused."""
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    x = float(x)
    if not _isfinite(x):
        raise ValueError(f"{x} is not a finite number")
    return x


def field_of(values, d: int = 0):
    """The radicand of the one quadratic field that holds Q(sqrt d), d 0 or
    squarefree, and every value (0 for the rationals); None as soon as a
    value is a float (neither rational nor QuadExt) or needs a second field."""
    for v in values:
        e = v.d if isinstance(v, QuadExt) else 0 if isinstance(v, Rational) else None
        if e is None or (e and d and e != d):  # a float, or a second field
            return None
        d = d or e
    return d


def _equal(a, b, tol) -> bool:
    """a == b when both are exact; |a - b| <= tol once either is a float."""
    if isinstance(a, float) or isinstance(b, float):
        return abs(float(a) - float(b)) <= tol
    return a == b


def quad_sqrt(x) -> QuadExt:
    """Exact square root of a nonnegative rational, as a QuadExt."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of negative rational")
    if x == 0:
        return QuadExt(0)
    # sqrt(p/q) = sqrt(p*q)/q
    n = x.numerator * x.denominator
    s, m = _squarefree_split(n)
    coeff = Fraction(s, x.denominator)
    if m == 1:
        return QuadExt(coeff)
    return QuadExt(0, coeff, m)


def root_plus(lam) -> QuadExt:
    """Larger root r of r + 1/r = lam, i.e. (lam + sqrt(lam^2-4))/2; lam >= 2 rational."""
    lam = Fraction(lam)
    if lam < 2:
        raise ValueError("root_plus needs lam >= 2")
    disc = lam * lam - 4
    return (QuadExt(lam) + quad_sqrt(disc)) / 2
