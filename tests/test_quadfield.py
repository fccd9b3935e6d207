"""Exact quadratic arithmetic."""

import os
import subprocess
import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

import multitwist
from multitwist.formats import parse_number
from multitwist.quadfield import QuadExt, _sign, _squarefree_split, quad_sqrt, root_plus


def test_root_plus_satisfies_trace_identity():
    for lam in (2, Fraction(5, 2), 3, 7, Fraction(9, 4)):
        r = root_plus(lam)
        assert r + 1 / r == Fraction(lam)


def test_squarefree_split_matches_brute_force():
    for n in range(20000):
        s = max(k for k in range(1, isqrt(n) + 2) if n % (k * k) == 0) if n else 1
        assert _squarefree_split(n) == (s, n // (s * s)), n


def test_squarefree_split_large_prime_factors():
    q = 10**9 + 7
    assert _squarefree_split(5 * q * q) == (q, 5)
    assert _squarefree_split(q * (q + 2)) == (1, q * (q + 2))  # two large factors
    # 2 * 5**2 * 58699937 * 340715873: trial division up to its square root hung
    assert _squarefree_split(q * q + 1) == (5, 2 * 58699937 * 340715873)


def test_squarefree_split_stops_trial_division_at_two_to_the_twenty():
    p = 1048583  # the least prime above 2**20
    assert _squarefree_split(p * p) == (p, 1)  # a square cofactor splits at once
    assert _squarefree_split(3 * 3 * p) == (3, p)
    with pytest.raises(ValueError, match=f"radicand {p ** 3} is too large"):
        _squarefree_split(p ** 3)


def test_squarefree_split_accepts_a_large_prime_cofactor():
    # 2**61 - 1 is prime: above 2**60 the split asks a strong probable
    # prime test, which decides primality below psi13
    assert _squarefree_split(2**61 - 1) == (1, 2**61 - 1)
    assert _squarefree_split(9 * (2**61 - 1)) == (3, 2**61 - 1)
    assert QuadExt(0, 1, 2**61 - 1).d == 2**61 - 1
    assert parse_number("0+1r2305843009213693951") == QuadExt(0, 1, 2**61 - 1)
    assert _squarefree_split(3317044064679887385961813) == (1, 3317044064679887385961813)


@pytest.mark.parametrize("n", [
    (2**31 - 1) * (10**9 + 7),  # composite above 2**60: it fails the test
    3317044064679887385961981,  # psi13 = 1287836182261 * 2575672364521 passes every base
    2**89 - 1,  # prime, but at or above psi13 the test no longer decides
], ids=["composite", "psi13", "prime-beyond-psi13"])
def test_squarefree_split_refuses_what_the_prime_test_cannot_settle(n):
    with pytest.raises(ValueError, match=f"radicand {n} is too large to split off its square part"):
        _squarefree_split(n)


def test_large_radicand_is_refused_in_a_fresh_interpreter():
    """Trial division once ran for as long as p**3 <= the cofactor, so this
    token hung the parser; the timeout makes that a failure."""
    src = os.path.dirname(os.path.dirname(multitwist.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("from multitwist.formats import parse_number\n"
            "parse_number('1+1r' + str(10**40 + 7), 3)\n")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=10)
    assert res.returncode == 1
    assert "FormatError: line 3: bad number '1+1r1000" in res.stderr
    assert "is too large to split off its square part" in res.stderr


def test_root_plus_at_two_is_one():
    assert root_plus(2) == 1


def test_root_plus_rejects_small_lambda():
    with pytest.raises(ValueError):
        root_plus(Fraction(3, 2))


def test_sqrt_canonicalizes_square_parts():
    assert quad_sqrt(20) == QuadExt(0, 2, 5)
    assert quad_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert quad_sqrt(0) == 0
    assert quad_sqrt(Fraction(1, 2)) * quad_sqrt(Fraction(1, 2)) == Fraction(1, 2)


def test_distinct_radicands_never_equal():
    assert QuadExt(0, 1, 5) != QuadExt(0, 1, 13)
    assert QuadExt(1, 1, 5) != QuadExt(1, 1, 13)
    assert QuadExt(3) == 3 == QuadExt(3, 0, 13)


def test_division_and_powers():
    r = root_plus(3)
    assert (r ** 5) * (r ** -5) == 1
    assert (r - 1 / r) * (r - 1 / r) == 5  # sqrt(lam^2-4)^2


def test_mixed_float_degrades():
    r = root_plus(3)
    assert isinstance(r + 0.5, float)
    assert abs((r * 2.0) - 2 * float(r)) < 1e-12
    assert r > 2.6 and r < 2.62


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(a=rationals, b=rationals, c=rationals, d=rationals)
def test_field_arithmetic_matches_floats(a, b, c, d):
    x = QuadExt(a, b, 5)
    y = QuadExt(c, d, 5)
    assert abs(float(x + y) - (float(x) + float(y))) < 1e-9
    assert abs(float(x * y) - float(x) * float(y)) < 1e-6
    if y != 0:
        assert abs(float(x / y) - float(x) / float(y)) < 1e-6


@given(a=rationals, b=rationals)
def test_sign_matches_float_sign(a, b):
    x = QuadExt(a, b, 7)
    f = float(a) + float(b) * 7 ** 0.5
    if abs(f) > 1e-9:
        assert x.sign() == (1 if f > 0 else -1)
    else:
        assert (x.sign() == 0) == (x == 0)


radicands = st.sampled_from([0, 2, 3, 5, 12, 13, 45])
small = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 360))
plain = st.one_of(st.integers(-60, 60), small)


def _assert_canonical(x):
    assert isinstance(x, QuadExt)
    again = QuadExt(x.a, x.b, x.d)
    assert (again.a, again.b, again.d) == (x.a, x.b, x.d)
    assert hash(again) == hash(x)
    assert (x.b == 0) == (x.d == 0)
    assert _squarefree_split(x.d)[0] == 1


@given(a=small, b=small, c=small, e=small, d=radicands, q=plain)
def test_arithmetic_results_are_canonical(a, b, c, e, d, q):
    x, y = QuadExt(a, b, d), QuadExt(c, e, d)
    results = [x + y, x - y, x * y, -x, x + q, q - x, x * q, x - x, x * 0]
    if y != 0:
        results += [x / y, q / y]
    if q != 0:
        results.append(x / q)
    if x != 0:
        results.append(x ** -3)
    for res in results:
        _assert_canonical(res)
    assert (x + y) - y == x and (x * x) * y == x * (x * y)


@given(a=small, b=small, d=radicands, q=plain)
def test_order_against_rationals_matches_difference_sign(a, b, d, q):
    x = QuadExt(a, b, d)
    _assert_order_matches(x, (q, x.a, int(x.a), 0))


def test_order_on_near_ties():
    r = root_plus(3)
    for k in range(-40, 41):
        x = r ** k  # a and b*sqrt(5) nearly cancel for k < 0
        _assert_order_matches(x, (Fraction(float(x)), Fraction(float(x)) * (1 + Fraction(1, 10**12))))


def _assert_order_matches(x, others):
    for q in others:
        s = (x - QuadExt(q)).sign()
        assert (x < q, x <= q, x > q, x >= q, x == q) == (s < 0, s <= 0, s > 0, s >= 0, s == 0)
    assert x.sign() == _sign(x.a, x.b, x.d) == (0 < x) - (x < 0)  # integer = rational scaling


def _assign_a_field():
    QuadExt(1, 1, 2).a = 0


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: _squarefree_split(-1), ValueError, "negative radicand", id="radicand"),
    pytest.param(_assign_a_field, AttributeError, "QuadExt is immutable", id="immutable"),
    pytest.param(lambda: QuadExt(1, 1, 2) / QuadExt(0), ZeroDivisionError,
                 "division by zero field element", id="divide-by-zero"),
    pytest.param(lambda: quad_sqrt(-1), ValueError, "square root of negative rational",
                 id="sqrt-negative"),
])
def test_refusals_name_what_is_wrong(call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert fragment in str(err.value)


def test_float_beyond_float_range_is_infinite():
    big = 10 ** 400
    assert float(QuadExt(big, 1, 2)) == float("inf")
    assert float(QuadExt(-big, 1, 2)) == float("-inf")
