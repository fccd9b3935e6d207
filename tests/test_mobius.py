"""Multitwist matrices: representation, classification, projective coding."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from multitwist.mobius import (
    _FLOAT_TOL,
    ALL_DIRECTIONS,
    MobiusClass,
    ProjectiveDirection,
    RenormVerdict,
    TwistWord,
    _excluded_slopes,
    brenner_check,
    classify,
    eigendirections,
    generator,
    reduce_letters,
    renormalizable,
    rho,
)
from multitwist.quadfield import QuadExt, _equal, _number


def random_reduced_word(rng, alphabet, max_len):
    letters = []
    while len(letters) < max_len:
        choices = [x for x in alphabet if not letters or x != -letters[-1]]
        letters.append(rng.choice(choices))
        if rng.random() < 1 / max_len:
            break
    return TwistWord.make(tuple(letters))


class TestWords:
    def test_parse_and_str(self):
        w = TwistWord.make("aBa")
        assert w.letters == (1, -2, 1)
        assert str(w) == "aBa"
        assert w.positive_semigroup

    def test_not_reduced_rejected(self):
        with pytest.raises(ValueError, match="reduced"):
            TwistWord.make("aA")

    def test_reduce_letters(self):
        assert reduce_letters((1, -1, 2)) == (2,)
        assert reduce_letters((1, 2, -2, -1)) == ()


class TestRho:
    def test_empty_word_is_identity(self):
        assert rho(TwistWord.make(""), 2).is_identity()

    def test_product_ab(self):
        m = rho(TwistWord.make("ab"), 2)
        # class representative of [[-3, 2], [-2, 1]]
        assert m.entries() == (Fraction(3), Fraction(-2), Fraction(2), Fraction(-1))
        assert abs(m.trace()) == 2

    def test_product_aB_lambda3(self):
        m = rho(TwistWord.make("aB"), 3)
        assert m.entries() == (Fraction(10), Fraction(3), Fraction(3), Fraction(1))
        assert m.trace() == 11

    def test_trace_formulas(self):
        for lam in (2, 3, Fraction(5, 2)):
            assert abs(rho(TwistWord.make("ab"), lam).trace()) == abs(2 - lam * lam)
            assert abs(rho(TwistWord.make("aB"), lam).trace()) == 2 + lam * lam

    @given(st.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_homomorphism_up_to_sign(self, seed):
        rng = random.Random(seed)
        w1 = random_reduced_word(rng, (1, -1, 2, -2), 6)
        w2 = random_reduced_word(rng, (1, -1, 2, -2), 6)
        prod = TwistWord.make(reduce_letters(w1.letters + w2.letters))
        lhs = rho(prod, 3)
        rhs = rho(w1, 3) * rho(w2, 3)
        assert lhs == rhs  # sign-normalized classes agree

    @given(st.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_determinant_one(self, seed):
        rng = random.Random(seed)
        w = random_reduced_word(rng, (1, -1, 2, -2), 8)
        a, b, c, d = rho(w, Fraction(5, 2)).entries()
        assert a * d - b * c == 1


class TestLongFloatWords:
    """Float products of unimodular factors stay unimodular: no determinant
    check runs on them, so long words with large entries evaluate."""

    @pytest.mark.parametrize("lam, exact_lam", [(2.0, 2), (2.5, Fraction(5, 2)),
                                                (3.0, 3), (5.0, 5)])
    @pytest.mark.parametrize("period", ["aB", "aaB"])
    def test_powers_are_hyperbolic_with_the_exact_trace(self, period, lam, exact_lam):
        for k in range(1, 16):
            word = TwistWord.make(period * k)
            m = rho(word, lam)
            assert classify(m) == "hyperbolic", str(word)
            exact = abs(rho(word, exact_lam).trace())
            assert abs(abs(m.trace()) - exact) <= 1e-12 * exact, str(word)


class TestClassify:
    def test_generators_parabolic(self):
        for lam in (2, 3):
            assert classify(rho(TwistWord.make("a"), lam)) == "parabolic"
            assert classify(rho(TwistWord.make("b"), lam)) == "parabolic"

    def test_ab_transition(self):
        assert classify(rho(TwistWord.make("ab"), 2)) == "parabolic"
        assert classify(rho(TwistWord.make("ab"), 3)) == "hyperbolic"

    def test_identity(self):
        assert classify(MobiusClass.identity()) == "identity"

    def test_elliptic(self):
        m = MobiusClass.make(Fraction(0), Fraction(-1), Fraction(1), Fraction(0))
        assert classify(m) == "elliptic"

    @given(st.integers(1, 300))
    @settings(max_examples=30, deadline=None)
    def test_conjugation_invariance(self, seed):
        rng = random.Random(seed)
        w = random_reduced_word(rng, (1, -1, 2, -2), 6)
        gword = random_reduced_word(rng, (1, -1, 2, -2), 5)
        m = rho(w, 3)
        g = rho(gword, 3)
        assert classify(g * m * g.inverse()) == classify(m)

    def test_positive_semigroup_hyperbolic(self):
        rng = random.Random(7)
        for _ in range(200):
            w = random_reduced_word(rng, (1, -2), 12)
            if len(set(w.letters)) < 2:
                continue
            for lam in (2, 3):
                m = rho(w, lam)
                assert classify(m) == "hyperbolic"
                assert abs(m.trace()) > 2


class TestBrenner:
    def test_identity_vacuous(self):
        rep = brenner_check(MobiusClass.identity(), 3)
        assert rep.in_form and rep.ks == (0, 0, 0, 0) and rep.vacuous

    def test_aB_lambda3(self):
        rep = brenner_check(rho(TwistWord.make("aB"), 3), 3)
        assert rep.ks == (1, 1, 1, 0)
        assert rep.interval_ok
        t = (3 + 5 ** 0.5) / 2
        assert not (1 / t < float(rep.ratio) < t)

    def test_random_words_match_form(self):
        rng = random.Random(20)
        for _ in range(200):
            w = random_reduced_word(rng, (1, -1, 2, -2), 8)
            rep = brenner_check(rho(w, 3), 3)
            assert rep.in_form, str(w)
            assert rep.interval_ok, str(w)

    def test_rejects_non_group_matrix(self):
        m = MobiusClass.make(Fraction(2), Fraction(1), Fraction(1), Fraction(1))
        assert not brenner_check(m, 3).in_form

    @pytest.mark.parametrize("word", ["aB", "ab", "aaB", "aBBa"])
    def test_irrational_lambda_is_the_documented_error(self, word):
        lam = QuadExt(1, 1, 5)
        with pytest.raises(ValueError, match="needs rational lam >= 2"):
            brenner_check(rho(TwistWord.make(word), lam), lam)

    def test_rational_quadext_lambda_reads_as_its_fraction(self):
        m = rho(TwistWord.make("aB"), 3)
        assert brenner_check(m, QuadExt(3)) == brenner_check(m, 3)


class TestEigendirections:
    def test_unipotent_fixes_horizontal(self):
        (d,) = eigendirections(generator(1, 2))
        assert d.close_to(ProjectiveDirection.make(1, 0))

    def test_ab_lambda2(self):
        (d,) = eigendirections(rho(TwistWord.make("ab"), 2))
        assert d.close_to(ProjectiveDirection.make(1, 1))

    def test_aB_lambda3_slopes(self):
        exp, con = eigendirections(rho(TwistWord.make("aB"), 3))
        # slope (sqrt(117) - 9)/6 and conjugate; expanding one in the open
        # positive quadrant
        want = (117 ** 0.5 - 9) / 6
        assert float(exp.y) / float(exp.x) == pytest.approx(want)
        assert float(exp.x) > 0 and float(exp.y) > 0
        assert float(con.y) / float(con.x) == pytest.approx((-(117 ** 0.5) - 9) / 6)

    def test_identity_sentinel(self):
        assert eigendirections(MobiusClass.identity()) is ALL_DIRECTIONS

    @pytest.mark.parametrize("a, expanding", [(Fraction(2), (1, 0)), (Fraction(1, 2), (0, 1)),
                                              (2.0, (1, 0)), (0.5, (0, 1))])
    def test_diagonal_matrix_has_both_axes(self, a, expanding):
        m = MobiusClass.make(a, 0 * a, 0 * a, 1 / a)
        contracting = (expanding[1], expanding[0])
        assert [d.vector() for d in eigendirections(m)] == [expanding, contracting]

    def test_diagonal_word_at_lambda_one_half(self):
        m = rho(TwistWord.make("abbAAB"), Fraction(1, 2))
        assert m.entries() == (Fraction(1, 2), 0, 0, 2)
        exp, con = eigendirections(m)
        assert exp.vector() == (0, 1) and con.vector() == (1, 0)

    @pytest.mark.parametrize("radicand", [2, 5, 6])
    @pytest.mark.parametrize("word", ["aB", "aaB", "aBB"])
    def test_root_in_a_second_field_gives_float_directions(self, word, radicand):
        # at lam = 2 sqrt(d) the entries lie in Q(sqrt d), and the root of
        # trace^2 - 4 in another quadratic field
        m = rho(TwistWord.make(word), QuadExt(0, 2, radicand))
        a, b, c, d = (float(x) for x in m.entries())
        dirs = eigendirections(m)
        assert len(dirs) == 2 and not any(v.is_exact() for v in dirs)
        images = [(a * v.x + b * v.y, c * v.x + d * v.y) for v in dirs]
        for v, image in zip(dirs, images):
            assert ProjectiveDirection.make(*image).close_to(v)
        # expanding first
        assert [abs(x) + abs(y) > 1 for x, y in images] == [True, False]

    def test_elliptic_has_none(self):
        m = MobiusClass.make(Fraction(0), Fraction(-1), Fraction(1), Fraction(0))
        assert eigendirections(m) == []

    @given(st.integers(1, 200))
    @settings(max_examples=25, deadline=None)
    def test_positive_words_expand_in_positive_quadrant(self, seed):
        rng = random.Random(seed)
        w = random_reduced_word(rng, (1, -2), 9)
        if len(set(w.letters)) < 2:
            return
        exp = eigendirections(rho(w, 3))[0]
        assert float(exp.x) >= 0 and float(exp.y) >= 0


class TestRenormalizable:
    def test_horizontal_is_excluded(self):
        v = renormalizable(ProjectiveDirection.make(1, 0), 3, 30)
        assert v.verdict == "no"

    def test_diagonal_excluded_at_two(self):
        v = renormalizable(ProjectiveDirection.make(1, 1), 2, 30)
        assert v.verdict == "no"

    def test_expanding_fixed_point_survives(self):
        exp = eigendirections(rho(TwistWord.make("aB"), 3))[0]
        v = renormalizable(exp, 3, 30)
        assert v.verdict == "yes"

    def test_generic_rational_exits(self):
        v = renormalizable(ProjectiveDirection.make(Fraction(11, 10), 1), 3, 50)
        assert v.verdict == "no"

    def test_rejects_lambda_below_two(self):
        with pytest.raises(ValueError):
            renormalizable(ProjectiveDirection.make(1, 1), Fraction(3, 2), 5)

    def test_monotone_no_stays_no(self):
        d = ProjectiveDirection.make(1, 0)
        for depth in (1, 5, 20):
            assert renormalizable(d, 3, depth).verdict == "no"

    def test_hyperbolic_fixed_points_at_lambda2_are_renormalizable(self):
        exp = eigendirections(rho(TwistWord.make("aB"), 2))[0]
        v = renormalizable(exp, 2, 40)
        assert v.verdict == "yes"


def _matrix_step_coding(d, lam, depth):
    """The reference coding: each step builds the inverse of the owning
    generator as a matrix and applies it to the slope u = x/y (None is
    infinity).  renormalizable moves the slope by the shear alone."""
    lam = _number(lam)
    exact = d.is_exact() and not isinstance(lam, float)
    u = d.slope_u()
    if not exact:
        lam = float(lam)
        u = u if u is None else float(u)
    half, small = lam / 2, 2 / lam
    excluded = _excluded_slopes(lam)
    zones = [
        (1, lambda v: v is None or v >= half),
        (-1, lambda v: v is None or v <= -half),
        (2, lambda v: v is not None and -small <= v <= 0),
        (-2, lambda v: v is not None and 0 <= v <= small),
    ]

    def apply_slope(m, v):
        if v is None:
            return None if m.c == 0 else m.a / m.c
        den = m.c * v + m.d
        return None if den == 0 else (m.a * v + m.b) / den

    def near_boundary(v):
        return v is not None and min(abs(abs(float(v)) - float(half)),
                                     abs(abs(float(v)) - float(small))) <= _FLOAT_TOL

    prev, ambiguous = 0, False
    for step in range(depth):
        if any(u is t if u is None or t is None else _equal(u, t, _FLOAT_TOL)
               for t in excluded):
            return RenormVerdict("no", "excluded eigendirection reached", step)
        if not exact and near_boundary(u):
            ambiguous = True
        owners = [letter for letter, test in zones if test(u) and letter != -prev]
        if not owners:
            if not exact and ambiguous:
                return RenormVerdict("undetermined", "boundary-ambiguous exit", step)
            return RenormVerdict("no", "coding exits the limit-set intervals", step)
        prev = owners[0]
        u = apply_slope(generator(-prev, lam), u)
    if ambiguous and not exact:
        return RenormVerdict("undetermined", "depth exhausted near interval boundary", depth)
    return RenormVerdict("yes", "coding survives the probed depth", depth)


_CODING_LAMS = (2, 3, Fraction(5, 2), QuadExt(1, 1, 5), 2.0, 2.5, 3.0, 5.0)


@st.composite
def _coding_cases(draw):
    """(direction, lam): exact and float slopes, slopes within 1e-9 of the
    interval ends +-lam/2 and +-2/lam, and eigendirections of words."""
    lam = draw(st.sampled_from(_CODING_LAMS))
    kind = draw(st.sampled_from(("rational", "float", "boundary", "eigen")))
    if kind == "rational":
        u = draw(st.fractions(min_value=-8, max_value=8, max_denominator=10**6))
        return ProjectiveDirection.make(u, 1), lam
    if kind == "float":
        return ProjectiveDirection.make(draw(st.floats(-8, 8)), 1.0), lam
    if kind == "boundary":
        end = draw(st.sampled_from((lam / 2, -lam / 2, 2 / lam, -2 / lam)))
        eps = draw(st.floats(-1e-9, 1e-9))
        return ProjectiveDirection.make(float(end) + eps, 1.0), lam
    letters = draw(st.lists(st.sampled_from((1, -1, 2, -2)), min_size=1, max_size=6))
    eig = eigendirections(rho(TwistWord.make(reduce_letters(letters)), lam))
    assume(eig is not ALL_DIRECTIONS and eig)
    return draw(st.sampled_from(eig)), lam


class TestCodingMovesSlopes:
    @given(_coding_cases(), st.integers(1, 60))
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_as_the_matrix_steps(self, case, depth):
        d, lam = case
        assert renormalizable(d, lam, depth) == _matrix_step_coding(d, lam, depth)

    @pytest.mark.parametrize("u", [1.5 + 1e-10, -1.5 - 5e-10, 2 / 3 - 1e-10, -2 / 3 + 1e-10])
    def test_slopes_at_an_interval_end_are_undetermined(self, u):
        d = ProjectiveDirection.make(u, 1.0)
        v = renormalizable(d, 3.0, 30)
        assert v.verdict == "undetermined"
        assert v == _matrix_step_coding(d, 3.0, 30)


class TestExactOrFloat:
    """A value is exact or float; a float anywhere compares with a tolerance."""

    def test_close_to_between_exact_and_float_uses_the_tolerance(self):
        exact = ProjectiveDirection.make(1, 2)
        near = ProjectiveDirection.make(1.0, 2.0 + 1e-12)
        far = ProjectiveDirection.make(1.0, 2.001)
        assert exact.is_exact() and not near.is_exact()
        assert exact.close_to(near) and near.close_to(exact)
        assert not exact.close_to(far) and not far.close_to(exact)

    def test_float_determinant_within_tolerance(self):
        m = MobiusClass.make(1.0, 0.0, 0.0, 1.0 + 1e-13)
        assert m.is_identity() and classify(m) == "identity"
        with pytest.raises(ValueError, match="determinant must be 1"):
            MobiusClass.make(1.0, 0.0, 0.0, 1.0 + 1e-9)

    def test_exact_determinant_has_no_tolerance(self):
        with pytest.raises(ValueError, match="determinant must be 1"):
            MobiusClass.make(Fraction(1), Fraction(0), Fraction(0), 1 + Fraction(1, 10**15))

    def test_direction_in_two_fields_is_a_float_direction(self):
        d = ProjectiveDirection.make(QuadExt(0, 1, 5), QuadExt(0, 1, 13))
        assert d == ProjectiveDirection.make(5 ** 0.5, 13 ** 0.5)
        assert not d.is_exact()
        assert not ProjectiveDirection(QuadExt(0, 1, 5), QuadExt(0, 1, 13)).is_exact()

    def test_close_to_across_two_fields_compares_in_floats(self):
        root5 = ProjectiveDirection.make(1, QuadExt(0, 1, 5))
        # a Q(sqrt 13) slope within about 1e-12 of sqrt 5
        near = ProjectiveDirection.make(1, Fraction(2236067977500, 10**12)
                                        + QuadExt(0, Fraction(1, 10**13), 13))
        far = ProjectiveDirection.make(1, QuadExt(0, 1, 13))
        assert root5.is_exact() and near.is_exact() and far.is_exact()
        assert root5.close_to(near) and near.close_to(root5)
        assert not root5.close_to(far) and not far.close_to(root5)

    def test_coding_a_direction_from_another_field_runs_in_floats(self):
        d = eigendirections(rho(TwistWord.make("aB"), 3))[0]  # in Q(sqrt 13)
        lam = QuadExt(0, 2, 5)
        assert d.is_exact()
        assert renormalizable(d, lam) == renormalizable(d, float(lam))

    def test_exact_coding_compares_across_quadratic_fields(self):
        # the excluded slopes at lam = 3 lie in Q(sqrt 5); most positive
        # words of length 6 have their eigendirections in other fields
        radicands = set()
        for letters in itertools.product((1, -2), repeat=6):
            m = rho(TwistWord.make(letters), 3)
            exp = eigendirections(m)[0]
            assert exp.is_exact()
            if isinstance(exp.y, QuadExt):
                radicands.add(exp.y.d)
            v = renormalizable(exp, 3, depth=60)
            assert v.verdict == ("yes" if classify(m) == "hyperbolic" else "no")
        assert radicands - {0, 5}


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: TwistWord.make((3,)), "invalid letter 3", id="word-letter"),
    pytest.param(lambda: generator(5, 2), "invalid letter 5", id="generator-letter"),
    pytest.param(lambda: ProjectiveDirection.make(0, 0), "direction (0,0) is not projective",
                 id="zero-direction"),
    pytest.param(lambda: renormalizable(ProjectiveDirection.make(1, 1), 3, depth=0),
                 "depth must be positive", id="depth-0"),
])
def test_refusals_name_what_is_wrong(call, fragment):
    with pytest.raises(ValueError) as err:
        call()
    assert fragment in str(err.value)


def test_rho_compares_lambda_exactly_beyond_float_range():
    lam = 10 ** 400
    assert rho(TwistWord.make("aB"), lam).trace() == 2 + lam * lam
    with pytest.raises(ValueError, match="lam must be positive"):
        rho(TwistWord.make("aB"), -lam)
