"""Exact combinatorics and polynomial-family tests."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcp import combo_poly as cp
from mlcp.errors import DomainError, SingularPointError, UnsupportedOrderError
from mlcp.params import Params


def _p0_factorial_sum(a):
    coeffs = [0] * (a + 1)
    for s in range(a // 2 + 1):
        coeffs[a - 2 * s] = Fraction(
            math.factorial(a), math.factorial(s) * math.factorial(a - 2 * s) * 2**s
        )
    return cp.Poly(coeffs)


def _q0_factorial_sum(a):
    coeffs = [0] * a
    for s in range((a - 1) // 2 + 1):
        inner = sum(
            Fraction(math.factorial(a - 1 - j) * 2**j, math.factorial(s - j))
            for j in range(s + 1)
        )
        coeffs[a - 1 - 2 * s] = inner / (math.factorial(a - 1 - 2 * s) * 2**s)
    return cp.Poly(coeffs)


def brute_force_partitions(ell, j):
    """Count partitions of {0..ell-1} into exactly j nonempty blocks."""
    if ell == 0:
        return 1 if j == 0 else 0
    count = 0

    def place(item, blocks):
        nonlocal count
        if item == ell:
            if len(blocks) == j:
                count += 1
            return
        for blk in blocks:
            blk.append(item)
            place(item + 1, blocks)
            blk.pop()
        if len(blocks) < j:
            blocks.append([item])
            place(item + 1, blocks)
            blocks.pop()

    place(0, [])
    return count


rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)
small_polys = st.lists(rationals, max_size=5).map(cp.Poly)


class TestPoly:
    def test_trailing_zero_trim(self):
        assert cp.Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert cp.Poly([0, 0]).is_zero
        assert cp.Poly().degree == -1

    def test_exact_eval(self):
        p = cp.Poly([Fraction(1, 3), 0, 1])
        assert p(Fraction(1, 2)) == Fraction(1, 3) + Fraction(1, 4)

    def test_derivative(self):
        p = cp.Poly([5, 0, 3, 2])  # 5 + 3x^2 + 2x^3
        assert p.derivative() == cp.Poly([0, 6, 6])

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert p - p == cp.Poly()

    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_product_rule(self, p, q):
        lhs = (p * q).derivative()
        assert lhs == p.derivative() * q + p * q.derivative()


class TestStirling:
    def test_single_block(self):
        for ell in range(1, 9):
            assert cp.stirling2(ell, 1) == 1

    def test_singletons(self):
        assert cp.stirling2(3, 3) == 1

    def test_four_two(self):
        assert cp.stirling2(4, 2) == 7

    def test_negative_indices(self):
        # scipy's stirling2 returns 0 there
        for ell, j in ((-1, 0), (0, -1), (3, -2)):
            with pytest.raises(DomainError):
                cp.stirling2(ell, j)

    def test_brute_force(self):
        for ell in range(7):
            for j in range(7):
                assert cp.stirling2(ell, j) == brute_force_partitions(ell, j)


class TestGenBernoulli:
    def test_constant_term(self):
        for k in (Fraction(0), Fraction(1), Fraction(5, 2)):
            assert cp.gen_bernoulli(0, k, Fraction(3, 7)) == 1

    def test_zeroth_order_family(self):
        # B_ell^(0)(x) = x^ell
        x = Fraction(2, 3)
        for ell in range(6):
            assert cp.gen_bernoulli(ell, 0, x) == x**ell

    def test_first_classical(self):
        x = Fraction(5, 4)
        assert cp.gen_bernoulli(1, 1, x) == x - Fraction(1, 2)

    def test_bernoulli_numbers(self):
        # B_ell^(1)(0) are the Bernoulli numbers
        assert cp.gen_bernoulli(2, 1, 0) == Fraction(1, 6)
        assert cp.gen_bernoulli(4, 1, 0) == Fraction(-1, 30)
        assert cp.gen_bernoulli(3, 1, 0) == 0

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            cp.gen_bernoulli(33, 1, 0)

    @pytest.mark.parametrize(
        "k", [Fraction(1, 2), Fraction(-3, 4), Fraction(7, 3), Fraction(5)], ids=str
    )
    def test_norlund_identities(self, k):
        # difference: B_l^(k)(x+1) - B_l^(k)(x) = l B_{l-1}^(k-1)(x);
        # reflection: B_l^(k)(k-x) = (-1)^l B_l^(k)(x)
        for x in (Fraction(0), Fraction(2, 7), Fraction(-5, 3)):
            for ell in range(13):
                value = cp.gen_bernoulli(ell, k, x)
                if ell:
                    step = cp.gen_bernoulli(ell, k, x + 1) - value
                    assert step == ell * cp.gen_bernoulli(ell - 1, k - 1, x)
                assert cp.gen_bernoulli(ell, k, k - x) == (-1) ** ell * value


class TestHermiteFamilies:
    def test_classical_values(self):
        assert cp.hermite(2) == cp.Poly([-1, 0, 1])
        assert cp.assoc_hermite(1, 2) == cp.Poly([-2, 0, 1])

    def test_negative_indices(self):
        # there is no table below k = 0: every negative index is refused,
        # including the ones a negative-index table would have filled
        for nu, k in product((0, 1), (-1, -2, -3, -4)):
            with pytest.raises(DomainError):
                cp.assoc_hermite(nu, k)

    def test_cold_high_degree(self):
        # the recurrence is a loop: no recursion depth limit on a cold cache
        cp.assoc_hermite.cache_clear()
        he = cp.hermite(1500)
        assert he.degree == 1500 and he.coeffs[-1] == 1
        # He_{2m}(0) = (-1)^m (2m)! / (m! 2^m)
        assert he.coeffs[0] == math.factorial(1500) // (math.factorial(750) * 2**750)

    def test_domain(self):
        with pytest.raises(DomainError):
            cp.assoc_hermite(0, -1)
        with pytest.raises(DomainError):
            cp.assoc_hermite(1, -1)
        with pytest.raises(DomainError):
            cp.assoc_hermite(2, 3)

    def test_p0_display_list(self):
        # {1, x, x^2+1, x^3+3x, x^4+6x^2+3}
        expected = [
            cp.Poly([1]),
            cp.Poly([0, 1]),
            cp.Poly([1, 0, 1]),
            cp.Poly([0, 3, 0, 1]),
            cp.Poly([3, 0, 6, 0, 1]),
        ]
        for a, e in enumerate(expected):
            assert cp.p0(a) == e

    def test_q0_display_list(self):
        # {0, 1, x, x^2+2, x^3+5x}
        expected = [
            cp.Poly(),
            cp.Poly([1]),
            cp.Poly([0, 1]),
            cp.Poly([2, 0, 1]),
            cp.Poly([0, 5, 0, 1]),
        ]
        for a, e in enumerate(expected):
            assert cp.q0(a) == e

    def test_p0_is_unsigned_hermite(self):
        for a in range(9):
            he = cp.hermite(a).coeffs
            assert cp.p0(a).coeffs == tuple(abs(c) for c in he)

    def test_p0_q0_factorial_sums(self):
        # the closed forms p_{0,a} = sum_s a!/(s! (a-2s)! 2^s) x^{a-2s} and
        # q_{0,a} = sum_s [sum_j (a-1-j)! 2^j/(s-j)!] / ((a-1-2s)! 2^s) x^{a-1-2s}
        for a in range(41):
            assert cp.p0(a) == _p0_factorial_sum(a)
            assert cp.q0(a) == _q0_factorial_sum(a)

    def test_q0_recurrence(self):
        # q_{0,k+2} = x q_{0,k+1} + (k+1) q_{0,k}
        for k in range(8):
            assert cp.q0(k + 2) == cp.X * cp.q0(k + 1) + (k + 1) * cp.q0(k)

    def test_p1_display_list(self):
        b = Fraction(3, 2)  # arbitrary rational b
        brackets = [
            cp.Poly(),
            cp.Poly([1, 0, -1]),
            cp.Poly([0, 4, 0, -2]),
            cp.Poly([5, 0, 6, 0, -3]),
            cp.Poly([0, 32, 0, 4, 0, -4]),
        ]
        for a, br in enumerate(brackets):
            expected = Fraction(-a, 2) * cp.p0(a + 1) + b * br
            assert cp.p1(a, b) == expected

    def test_q1_display_list(self):
        b = Fraction(3, 2)
        brackets = [
            cp.Poly([Fraction(2, 3), 0, Fraction(-5, 3)]),
            cp.Poly([0, Fraction(2, 3)]),
            cp.Poly([Fraction(8, 3), 0, -2]),
            cp.Poly([0, 9, 0, -3]),
            cp.Poly([16, 0, 8, 0, -4]),
        ]
        for a, br in enumerate(brackets):
            expected = Fraction(-a, 2) * cp.q0(a + 1) + b * br
            assert cp.q1(a, b) == expected

    def test_bracket_conventions(self):
        assert cp.bracket_a_q0(0) == cp.Poly([1])
        assert cp.bracket_a3_q0(0) == cp.Poly([-1, 0, 1])
        assert cp.bracket_a3_q0(1) == cp.Poly([0, -1])
        assert cp.bracket_a3_q0(2) == cp.Poly([2])
        for a in range(3, 8):
            assert cp.bracket_a_q0(a) == a * cp.q0(a - 1)
            assert cp.bracket_a3_q0(a) == a * (a - 1) * (a - 2) * cp.q0(a - 3)


class TestGfrak:
    def test_ell_zero(self):
        x = Fraction(2, 5)
        for a in range(8):
            assert cp.gfrak(0, a, x) == (1 + x) ** a

    def test_ell_one(self):
        # x d/dx (1+x)^a = a x (1+x)^{a-1}
        x = Fraction(-3, 7)
        for a in range(1, 8):
            assert cp.gfrak(1, a, x) == a * x * (1 + x) ** (a - 1)

    def test_vanishes_at_zero(self):
        for ell in range(1, 6):
            assert cp.gfrak(ell, 5, 0) == 0

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        rationals,
    )
    @settings(max_examples=80, deadline=None)
    def test_stirling_form_agrees(self, ell, a, x):
        assert cp.gfrak(ell, a, x) == cp.gfrak_stirling(ell, a, x)


class TestGammaEll:
    def setup_method(self):
        self.params = Params(1.0, 0.0, 0.5, 0.0, 3)

    def test_ell_zero_closed_form(self):
        for x in (0.1, 0.24, 0.26, 0.7):
            s = (x / 1.0) ** 0.5
            assert cp.gamma_ell(0, x, self.params) == pytest.approx(
                abs(0.5 - s) ** 3, rel=1e-12
            )

    def test_vanishes_at_origin(self):
        for ell in range(1, 5):
            assert abs(cp.gamma_ell(ell, 1e-12, self.params)) < 1e-5

    def test_stirling_agreement(self):
        for ell in range(6):
            for x in (0.7, 0.2, 0.9):
                direct = cp.gamma_ell(ell, x, self.params)
                closed = cp.gamma_ell_stirling(ell, x, self.params)
                assert direct == pytest.approx(closed, rel=1e-12, abs=1e-300)

    def test_singular_point(self):
        crit = self.params.bulk_mass
        with pytest.raises(SingularPointError):
            cp.gamma_ell(4, crit, self.params)  # ell > a
        # ell < a has the finite limit 0 at the critical point
        assert cp.gamma_ell(1, crit, self.params) == pytest.approx(0.0, abs=1e-15)


class TestPfrak:
    def test_vanishes_at_zero(self):
        for ell in range(1, 6):
            assert cp.pfrak(ell, 0, Fraction(1), Fraction(0)) == 0

    def test_ell_zero_is_one(self):
        assert cp.pfrak(0, 3, Fraction(1), Fraction(1, 2)) == 1

    def test_quartic_closed_form(self):
        for b, alpha, k in product(
            (Fraction(1), Fraction(1, 2), Fraction(2)),
            (Fraction(0), Fraction(-1, 3)),
            (Fraction(0), Fraction(1), Fraction(3), Fraction(7, 2)),
        ):
            closed = (
                k
                * (k - 2 * b)
                * (8 * b**2 + 3 * (k + 4 * alpha) ** 2 - 2 * b * (7 * k + 24 * alpha))
                / (384 * b**2)
            )
            assert cp.pfrak(2, k, b, alpha) == closed

    def test_root_at_twice_b(self):
        for b in (Fraction(1), Fraction(3, 4)):
            assert cp.pfrak(2, 2 * b, b, Fraction(1, 5)) == 0
