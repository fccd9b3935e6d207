"""Multitwist matrices in PSL(2,R) and their projective dynamics.

The two multitwists act with derivatives

    A = [[1, lam], [0, 1]]      (horizontal family)
    B = [[1, 0], [-lam, 1]]     (vertical family)

and words in A, B evaluate to 2x2 determinant-1 matrices up to sign.  For
lam >= 2 the group they generate is free; its elements have the integer
shape [[1 + k11*lam^2, k12*lam], [k21*lam, 1 + k22*lam^2]] and, when
k12 != 0, the ratio |(1 + k11*lam^2)/(k12*lam)| avoids the open interval
(1/t, t) with t = (lam + sqrt(lam^2 - 4))/2.

Directions are tested against the limit set by interval coding on the
projective line in the slope coordinate u = x/y: the generators own the
closed intervals

    A: [lam/2, inf]   A^-1: [-inf, -lam/2]   B: [-2/lam, 0]   B^-1: [0, 2/lam]

and repeatedly applying the inverse of the owning generator either drives
the point into a gap (not in the limit set), reaches an excluded
eigendirection, or survives, in which case the direction is declared
renormalizable at the probed depth.

Every computation here is exact exactly when its inputs are exact and share
one quadratic field (`quadfield.field_of`): rational or quadratic-field lam
and entries give exact matrices, directions and verdicts, and a float
anywhere, or a second field, makes the result float.  Exact values are
compared with ==, and once a float is involved with a tolerance
(`quadfield._equal`): 1e-12 for the determinant check of MobiusClass.make
and for is_identity, which classify asks first, and 1e-9 for every other
float verdict, so classify(MobiusClass(1.0, 5e-10, 0.0, 1.0)) is
"parabolic".
So the fixed directions of an exact hyperbolic matrix are floats when they
leave its entries' field (sqrt 42 for aB at lam = 2 sqrt 6).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .quadfield import QuadExt, _equal, _number, field_of, quad_sqrt, root_plus

# word letters: +1 = A, -1 = A^-1, +2 = B, -2 = B^-1
LETTER_NAMES = {1: "A", -1: "A'", 2: "B", -2: "B'"}
_CHAR_TO_LETTER = {"a": 1, "A": -1, "b": 2, "B": -2}
_LETTER_TO_CHAR = {v: k for k, v in _CHAR_TO_LETTER.items()}

# (b, c) of each letter's matrix [[1, b], [c, 1]] in units of lam; the
# indexes 0, 1, -1 pick 0, lam, -lam out of (0, lam, -lam)
_SHEARS = {1: (1, 0), -1: (-1, 0), 2: (0, -1), -2: (0, 1)}

ALL_DIRECTIONS = object()  # sentinel: every direction is an eigendirection of +-Id

_MATRIX_TOL = 1e-12  # float determinant and identity test
_FLOAT_TOL = 1e-9  # float verdicts: |trace| vs 2, integer form, close_to, coding ties


class TwistWord(NamedTuple):
    """A freely reduced word in the two multitwists."""

    letters: tuple
    positive_semigroup: bool = False

    @staticmethod
    def make(letters) -> "TwistWord":
        if isinstance(letters, str):
            try:
                letters = tuple(_CHAR_TO_LETTER[ch] for ch in letters)
            except KeyError as exc:
                raise ValueError(f"word letters must be among a A b B, got {exc}") from exc
        letters = tuple(int(x) for x in letters)
        for x in letters:
            if x not in LETTER_NAMES:
                raise ValueError(f"invalid letter {x}")
        for x, y in zip(letters, letters[1:]):
            if x == -y:
                raise ValueError(f"word is not freely reduced at {LETTER_NAMES[x]}{LETTER_NAMES[y]}")
        positive = bool(letters) and all(x in (1, -2) for x in letters)
        return TwistWord(letters, positive)

    def __str__(self):
        return "".join(_LETTER_TO_CHAR[x] for x in self.letters)


def reduce_letters(letters) -> tuple:
    """Free reduction of a letter sequence."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class MobiusClass(NamedTuple):
    """2x2 determinant-1 matrix modulo sign.

    Entries are stored sign-normalized: the first nonzero of (a, b, c, d)
    is positive, so equality of classes is equality of entries.  Traces are
    those of this canonical representative (well defined up to sign only).
    """

    a: object
    b: object
    c: object
    d: object

    @staticmethod
    def make(a, b, c, d) -> "MobiusClass":
        """The class of entries from outside, checked for determinant 1."""
        det = a * d - b * c
        if not _equal(det, 1, _MATRIX_TOL):
            raise ValueError(f"determinant must be 1, got {det}")
        return _normalized(a, b, c, d)

    @staticmethod
    def identity(exact: bool = True) -> "MobiusClass":
        one = Fraction(1) if exact else 1.0
        zero = Fraction(0) if exact else 0.0
        return _normalized(one, zero, zero, one)

    def __mul__(self, other: "MobiusClass") -> "MobiusClass":
        return _normalized(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusClass":
        return _normalized(self.d, -self.b, -self.c, self.a)

    def trace(self):
        return self.a + self.d

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def is_identity(self) -> bool:
        return all(_equal(x, y, _MATRIX_TOL) for x, y in zip(self.entries(), (1, 0, 0, 1)))


def _normalized(a, b, c, d) -> MobiusClass:
    """The class of a determinant-1 matrix, first nonzero entry positive.
    Products, inverses and generators are unimodular by construction, so
    only make() checks the determinant (in floats, a product can fail that
    check only through cancellation)."""
    for x in (a, b, c, d):
        if x != 0:
            if x < 0:
                return MobiusClass(-a, -b, -c, -d)
            break
    return MobiusClass(a, b, c, d)


def generator(letter: int, lam) -> MobiusClass:
    """Derivative matrix of one multitwist letter."""
    lam = _number(lam)
    if letter not in _SHEARS:
        raise ValueError(f"invalid letter {letter}")
    one = lam / lam if lam != 0 else 1  # matches the numeric type of lam
    units = (lam - lam, lam, -lam)
    b, c = _SHEARS[letter]
    return _normalized(one, units[b], units[c], one)


def rho(word: TwistWord, lam) -> MobiusClass:
    """Evaluate the representation on a word, left to right."""
    lam = _number(lam)
    if lam <= 0:
        raise ValueError("lam must be positive")
    out = MobiusClass.identity(exact=not isinstance(lam, float))
    for letter in word.letters:
        out = out * generator(letter, lam)
    return out


def classify(m: MobiusClass) -> str:
    """identity / elliptic / parabolic / hyperbolic by |trace| against 2."""
    if m.is_identity():
        return "identity"
    at = abs(m.trace())
    if _equal(at, 2, _FLOAT_TOL):
        return "parabolic"
    return "elliptic" if at < 2 else "hyperbolic"


class BrennerReport(NamedTuple):
    """Integer-shape recovery for elements of the lam-multitwist group."""

    in_form: bool
    ks: tuple
    sign: int
    interval_ok: bool
    vacuous: bool
    ratio: object


def brenner_check(m: MobiusClass, lam) -> BrennerReport:
    """Recover the integer parameters (k11, k12, k21, k22) and test the
    trace-field interval exclusion with t = (lam + sqrt(lam^2 - 4))/2.
    lam must be a rational >= 2 (a QuadExt with no sqrt part counts)."""
    if field_of((lam,)) != 0 or lam < 2:
        raise ValueError("brenner_check needs rational lam >= 2")
    lam = QuadExt.of(lam).a
    lam2 = lam * lam

    def try_sign(sign):
        a, b, c, d = (sign * x for x in m.entries())
        ks = []
        for r in ((a - 1) / lam2, b / lam, c / lam, (d - 1) / lam2):
            if isinstance(r, QuadExt):
                r = r.as_fraction()
            n = round(r)
            if not _equal(r, n, _FLOAT_TOL):
                return None
            ks.append(n)
        return tuple(ks)

    ks = try_sign(1)
    sign = 1
    if ks is None:
        ks = try_sign(-1)
        sign = -1
    if ks is None:
        return BrennerReport(False, (), 0, False, False, None)
    k11, k12, _, _ = ks
    if k12 == 0:
        return BrennerReport(True, ks, sign, True, True, None)
    t = root_plus(lam)
    num = 1 + k11 * lam2
    ratio = abs(Fraction(num, 1) / (Fraction(k12) * lam))
    inside = (1 / t) < ratio < t
    return BrennerReport(True, ks, sign, not inside, False, ratio)


class ProjectiveDirection(NamedTuple):
    """A slope (x : y) up to scale; canonical form (1, y/x) or (0, 1)."""

    x: object
    y: object

    @staticmethod
    def make(x, y) -> "ProjectiveDirection":
        if x == 0 and y == 0:
            raise ValueError("direction (0,0) is not projective")
        x, y = _number(x), _number(y)
        if field_of((x, y)) is None:
            x, y = float(x), float(y)
            n = (x * x + y * y) ** 0.5
            x, y = x / n, y / n
            if x < 0 or (x == 0 and y < 0):
                x, y = -x, -y
            return ProjectiveDirection(x, y)
        if x != 0:
            return ProjectiveDirection(x / x, y / x)
        return ProjectiveDirection(x - x, y / y)

    def slope_u(self):
        """u = x/y; None is infinity (the horizontal direction)."""
        if self.y == 0:
            return None
        return self.x / self.y

    def is_exact(self) -> bool:
        return field_of(self) is not None

    def close_to(self, other: "ProjectiveDirection") -> bool:
        values = (*self, *other)
        x, y, u, v = values if field_of(values) is not None else map(float, values)
        return _equal(x * v - y * u, 0, _FLOAT_TOL)

    def vector(self) -> tuple:
        return (self.x, self.y)


def _fixed_direction(a, b, c, d, mu, diagonal) -> ProjectiveDirection:
    """Direction fixed by [[a, b], [c, d]] with eigenvalue mu; the given
    diagonal direction when b == c == 0."""
    if b != 0:
        return ProjectiveDirection.make(b, mu - a)
    if c != 0:
        return ProjectiveDirection.make(mu - d, c)
    return ProjectiveDirection.make(*diagonal)


def eigendirections(m: MobiusClass):
    """Fixed directions on the projective line: 2 / 1 / 0 for hyperbolic /
    parabolic / elliptic, expanding first; identity gives ALL_DIRECTIONS."""
    cls = classify(m)
    if cls == "identity":
        return ALL_DIRECTIONS
    if cls == "elliptic":
        return []
    a, b, c, d = m.entries()
    tr = m.trace()
    if cls == "parabolic":
        return [_fixed_direction(a, b, c, d, tr / 2, (1, 0))]
    disc = tr * tr - 4
    # expanding eigenvalue first; a diagonal matrix expands along the axis
    # of its entry of modulus > 1 and contracts along the other
    axes = ((1, 0), (0, 1)) if abs(float(a)) > 1 else ((0, 1), (1, 0))

    def directions(tr, root, a, b, c, d):
        mus = sorted(((tr + root) / 2, (tr - root) / 2), key=lambda mu: -abs(float(mu)))
        return [_fixed_direction(a, b, c, d, mu, axis) for mu, axis in zip(mus, axes)]

    try:  # exact when the root of a rational discriminant lies in the entries' field
        root = quad_sqrt(QuadExt.of(disc).a) if field_of((disc,)) == 0 else None
    except ValueError:  # a radicand too large to split off its square part
        root = None
    if root is not None and field_of(m.entries(), root.d) is not None:
        return directions(tr, root, a, b, c, d)
    return directions(float(tr), float(disc) ** 0.5, *(float(x) for x in (a, b, c, d)))


class RenormVerdict(NamedTuple):
    verdict: str  # yes | no | undetermined
    reason: str
    steps: int


def _excluded_slopes(lam):
    """Slopes (as u values) whose group orbits are never renormalizable:
    fixed directions of A, of B^-1, and of the product B*A."""
    lam = _number(lam)
    targets = [None, lam - lam]  # u = inf (A) and u = 0 (B^-1)
    eig = eigendirections(generator(2, lam) * generator(1, lam))
    if eig is not ALL_DIRECTIONS:
        targets.extend(e.slope_u() for e in eig)
    return targets


def renormalizable(d: ProjectiveDirection, lam, depth: int = 60) -> RenormVerdict:
    """Depth-bounded limit-set coding of a direction.

    "no" when the coding exits the generator intervals (lam > 2) or hits an
    excluded eigendirection; "yes" when it survives depth steps; floating
    ties too close to an interval boundary leave "undetermined".
    """
    lam = _number(lam)
    if lam < 2:
        raise ValueError("renormalizable directions need lam >= 2")
    if depth < 1:
        raise ValueError("depth must be positive")
    exact = field_of((*d, lam)) is not None
    u = d.slope_u()
    if not exact:
        lam = float(lam)
        u = u if u is None else float(u)
    half = lam / 2
    small = 2 / lam
    excluded = _excluded_slopes(lam)
    # each letter's shear entries (b, c); its inverse moves the slope u to
    # (u - b) / (1 - c*u), which is infinity where the denominator is 0
    shears = {letter: (b * lam, c * lam) for letter, (b, c) in _SHEARS.items()}
    # interval owners, each as (letter, membership test)
    zones = [
        (1, lambda v: v is None or v >= half),
        (-1, lambda v: v is None or v <= -half),
        (2, lambda v: v is not None and -small <= v <= 0),
        (-2, lambda v: v is not None and 0 <= v <= small),
    ]

    def hits_excluded(v):
        return any(v is t if v is None or t is None else _equal(v, t, _FLOAT_TOL)
                   for t in excluded)

    def near_boundary(v):
        if v is None:
            return False
        vf = float(v)
        return min(abs(abs(vf) - float(half)), abs(abs(vf) - float(small))) <= _FLOAT_TOL

    prev = 0
    ambiguous = False
    for step in range(depth):
        if hits_excluded(u):
            return RenormVerdict("no", "excluded eigendirection reached", step)
        if not exact and near_boundary(u):
            ambiguous = True
        owners = [letter for letter, test in zones if test(u) and letter != -prev]
        if not owners:
            if not exact and ambiguous:
                return RenormVerdict("undetermined", "boundary-ambiguous exit", step)
            return RenormVerdict("no", "coding exits the limit-set intervals", step)
        letter = owners[0]
        b, c = shears[letter]
        den = 1 - c * u
        u = None if den == 0 else (u - b) / den
        prev = letter
    if ambiguous and not exact:
        return RenormVerdict("undetermined", "depth exhausted near interval boundary", depth)
    return RenormVerdict("yes", "coding survives the probed depth", depth)
