import copy
import pickle
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from digsys import Fp, FpPoly, GaussianInt, ParseError, Z, ZI, parse_poly
from digsys.rings import MAX_ENUMERATION, FpPolynomialRing, GaussianIntegerRing, _clear_shared

from support import (
    DataclassGaussian,
    gaussian_residues_box,
    residue_oracle,
    tuple_add,
    tuple_divmod,
    tuple_mul,
    tuple_neg,
    tuple_sub,
)

F2 = Fp(2)
F3 = Fp(3)
NEG_INF = float("-inf")


def fp(ring, *coeffs):
    return FpPoly.make(ring.p, coeffs)


class TestArithmetic:
    def test_integers(self):
        a, b = Z.coerce(2), Z.coerce(3)
        assert a + b == 5
        assert a - b == -1
        assert Z.coerce(-4) * b == -12
        assert -Z.coerce(7) == -7

    def test_gaussian_norm_identity(self):
        assert GaussianInt(1, 1) * GaussianInt(1, -1) == GaussianInt(2, 0)

    def test_characteristic_two(self):
        a = fp(F2, 1, 1)  # y + 1
        assert a + a == F2.zero

    def test_coerce(self):
        assert ZI.coerce(3) == GaussianInt(3, 0)
        assert F3.coerce(5) == fp(F3, 2)
        with pytest.raises(TypeError):
            Z.coerce("nope")


class TestExactDiv:
    """Exact quotients are the ``q`` of a zero remainder from ``divider``."""

    def test_integer(self):
        assert Z.divider(5)(-5) == (0, -1)
        assert Z.divider(2)(7)[0] != 0
        with pytest.raises(ValueError, match="zero modulus"):
            Z.divider(0)

    def test_gaussian(self):
        divide = ZI.divider(GaussianInt(1, 1))
        assert divide(GaussianInt(2, 0)) == (ZI.zero, GaussianInt(1, -1))
        assert divide(GaussianInt(1, 0))[0]

    def test_fp(self):
        assert F2.divider(fp(F2, 0, 1))(fp(F2, 0, 1, 1)) == (F2.zero, fp(F2, 1, 1))


class TestEuclidValue:
    def test_zero_is_minus_infinity(self):
        assert Z.euclid_value(0) == NEG_INF
        assert ZI.euclid_value(GaussianInt(0, 0)) == NEG_INF
        assert F2.euclid_value(F2.zero) == NEG_INF

    def test_values(self):
        assert Z.euclid_value(-5) == 5
        assert ZI.euclid_value(GaussianInt(1, 2)) == 5
        assert F2.euclid_value(fp(F2, 0, 1, 0, 1)) == 3  # y^3 + y


class TestResidues:
    def test_integers(self):
        assert Z.residues(5) == [0, 1, 2, 3, 4]
        assert Z.residues(-3) == [0, 1, 2]

    def test_gaussian_1_plus_2i(self):
        m = GaussianInt(1, 2)
        res = ZI.residues(m)
        assert len(res) == 5
        # every integer 0..4 is congruent to exactly one member
        for a in range(5):
            hits = [r for r in res if not ZI.divider(m)(GaussianInt(a, 0) - r)[0]]
            assert len(hits) == 1

    def test_gaussian_two(self):
        # 2 = (1+i)(1-i) has non-coprime coordinates; the residue system
        # must still have norm(2) = 4 members
        res = ZI.residues(GaussianInt(2, 0))
        assert len(res) == 4

    def test_fp(self):
        res = F2.residues(fp(F2, 1, 0, 1))  # y^2 + 1
        assert res == [fp(F2), fp(F2, 1), fp(F2, 0, 1), fp(F2, 1, 1)]

    def test_pairwise_incongruent(self):
        for ring, m in [(Z, 6), (ZI, GaussianInt(1, 1)), (F3, fp(F3, 1, 1))]:
            res = ring.residues(m)
            assert len(res) == ring.quotient_size(m)
            divide = ring.divider(m)
            for i, a in enumerate(res):
                for b in res[i + 1 :]:
                    assert divide(a - b)[0]

    def test_rejects_degenerate_moduli(self):
        # a zero modulus is rejected; a unit one has the residue system {0}
        with pytest.raises(ValueError):
            Z.residues(0)
        assert Z.residues(-1) == [0] and Z.quotient_size(-1) == 1
        assert ZI.residues(GaussianInt(0, 1)) == [ZI.zero]
        assert ZI.quotient_size(GaussianInt(0, 1)) == 1
        assert F3.residues(fp(F3, 2)) == [F3.zero] and F3.quotient_size(fp(F3, 2)) == 1

    def test_gaussian_matches_box_oracle(self):
        # the O(N) scan lists the members of the N^2 box, in the same order,
        # for every nonzero modulus with parts in [-9, 9]
        checked = 0
        for a in range(-9, 10):
            for b in range(-9, 10):
                if a or b:
                    m = GaussianInt(a, b)
                    assert ZI.residues(m) == gaussian_residues_box(m), m
                    checked += 1
        assert checked == 360

    def test_gaussian_enumeration_is_bounded(self, monkeypatch):
        assert len(ZI.residues(GaussianInt(256, 0))) == MAX_ENUMERATION
        # above the limit nothing is divided: a divider would fail the test
        def no_divider(self, m):
            raise AssertionError("enumerated above the limit")

        monkeypatch.setattr(GaussianIntegerRing, "divider", no_divider)
        for m in (GaussianInt(256, 1), GaussianInt(10**100, -(10**100))):
            assert ZI.quotient_size(m) > MAX_ENUMERATION
            with pytest.raises(ValueError, match="enumeration limit"):
                ZI.residues(m)

    def test_integer_enumeration_is_bounded(self):
        for m in (MAX_ENUMERATION, -MAX_ENUMERATION):
            assert Z.residues(m) == list(range(MAX_ENUMERATION))
        for m in (MAX_ENUMERATION + 1, -MAX_ENUMERATION - 1, 10**6, 10**400):
            assert Z.quotient_size(m) > MAX_ENUMERATION
            with pytest.raises(ValueError, match="enumeration limit"):
                Z.residues(m)

    def test_fp_enumeration_is_bounded(self):
        assert len(F2.residues(fp(F2, *[0] * 16, 1))) == MAX_ENUMERATION
        for ring, m in ((F2, fp(F2, *[0] * 40, 1)), (Fp(2**61 - 1), fp(Fp(2**61 - 1), 0, 1))):
            assert ring.quotient_size(m) > MAX_ENUMERATION
            with pytest.raises(ValueError, match="enumeration limit"):
                ring.residues(m)


class TestCanonicalResidue:
    def test_examples(self):
        assert Z.divider(5)(-1) == (4, -1)
        assert Z.divider(2)(7) == (1, 3)

    def test_fp_example(self):
        # y * (y^2+1) = y^3+y, so the remainder is 0 and the quotient y
        a = fp(F2, 0, 1, 0, 1)
        m = fp(F2, 1, 0, 1)
        r, q = F2.divider(m)(a)
        assert r == F2.zero and q == fp(F2, 0, 1)
        assert q * m + r == a

    def test_gaussian_tie_rounds_down(self):
        # 1+i over 2 sits exactly on a half-integer point in both
        # coordinates; ties go toward -infinity, so the quotient is 0
        r, q = ZI.divider(GaussianInt(2, 0))(GaussianInt(1, 1))
        assert q == GaussianInt(0, 0) and r == GaussianInt(1, 1)


class TestDivider:
    """``divider(m)(a)`` against the oracle formulas of
    ``support.residue_oracle``."""

    BIG = 10**200

    def moduli(self):
        big = self.BIG
        gauss = ((2, 1), (-1, 2), (2, 0), (0, -3), (3, -4), (1, 1), (big, -big - 1))
        return [
            (Z, [2, -2, 5, -7, 12, big + 7, -(big - 3)]),
            (ZI, [GaussianInt(*c) for c in gauss]),
            (F2, [fp(F2, 1, 1), fp(F2, 0, 1), fp(F2, 1, 0, 1, 1)]),
            (F3, [fp(F3, 2, 1), fp(F3, 1, 0, 2), fp(F3, 0, 0, 1, 2)]),
        ]

    def values(self, rng, ring):
        # 40 small values with negative parts, then 20 of up to 200 digits
        bounds = [50] * 40 + [self.BIG] * 20
        if ring == Z:
            return [rng.randint(-b, b) for b in bounds]
        if ring == ZI:
            return [GaussianInt(rng.randint(-b, b), rng.randint(-b, b)) for b in bounds]
        return [
            FpPoly.make(ring.p, [rng.randrange(ring.p) for _ in range(rng.randint(0, 12))])
            for _ in range(60)
        ]

    def check(self, ring, divide, a, m):
        want = residue_oracle(ring, a, m)
        assert divide(a) == want, (ring, a, m)
        r, q = want
        assert r + q * m == a

    def test_matches_oracle(self):
        rng = random.Random(4711)
        checked = 0
        for ring, mods in self.moduli():
            for m in mods:
                divide = ring.divider(m)
                for a in self.values(rng, ring):
                    self.check(ring, divide, a, m)
                    checked += 1
                if ring.quotient_size(m) <= 64:
                    residues = ring.residues(m)
                    for r in residues:
                        # every residue is its own canonical residue
                        self.check(ring, divide, r, m)
                        assert divide(r) == (r, ring.zero)
                    for a in self.values(rng, ring):
                        assert divide(a)[0] in residues
        assert checked == 60 * 20

    def test_gaussian_ties(self):
        ties = 0
        for m in (GaussianInt(2, 0), GaussianInt(1, 1), GaussianInt(2, 2), GaussianInt(-4, 2)):
            divide = ZI.divider(m)
            n = m.norm()
            for x in range(-2 * n, 2 * n + 1):
                for y in range(-2 * n, 2 * n + 1):
                    a = GaussianInt(x, y)
                    num = a * m.conjugate()
                    # a*conj(m)/N(m) has a part exactly half-way between integers
                    ties += (2 * num.re) % (2 * n) == n or (2 * num.im) % (2 * n) == n
                    self.check(ZI, divide, a, m)
        assert ties >= 100
        assert ZI.divider(GaussianInt(2, 0))(GaussianInt(-1, -1)) == (
            GaussianInt(1, 1),
            GaussianInt(-1, -1),
        )

    def test_degenerate_modulus_raises_when_built(self):
        for ring, m in ((Z, 0), (ZI, GaussianInt(0, 0)), (F2, F2.zero)):
            with pytest.raises(ValueError):
                ring.divider(m)
        # a unit modulus divides exactly: a = 0 + (a/u)*u
        a, g = 7, GaussianInt(3, -5)
        f2, f3 = fp(F2, 1, 0, 1), fp(F3, 2, 1, 0, 1)
        for ring, u, value, quotient in (
            (Z, 1, a, a),
            (Z, -1, a, -a),
            (ZI, GaussianInt(0, -1), g, GaussianInt(5, 3)),
            (ZI, GaussianInt(-1, 0), g, GaussianInt(-3, 5)),
            (F2, F2.one, f2, f2),
            (F3, fp(F3, 2), f3, fp(F3, 1, 2, 0, 2)),
        ):
            assert ring.divider(u)(value) == (ring.zero, quotient), (ring, u)


class TestUnitDivider:
    """``divider(u)(a) == (zero, a * u^-1)`` for every unit u, small and
    200-digit (or 200-coefficient) values alike."""

    BIG = 10**200

    def test_integer_and_gaussian_units(self):
        rng = random.Random(96)
        big = self.BIG
        for _ in range(40):
            a = rng.randint(-big, big)
            assert Z.divider(1)(a) == (0, a) and Z.divider(-1)(a) == (0, -a)
            g = GaussianInt(rng.randint(-big, big), rng.randint(-big, big))
            for u in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                inverse = GaussianInt(u[0], -u[1])  # conj(u) = 1/u for a unit
                assert ZI.divider(GaussianInt(*u))(g) == (ZI.zero, g * inverse)

    def test_fp_constants(self):
        rng = random.Random(97)
        for p in (2, 3, 5, 131, 2**61 - 1):
            ring = Fp(p)
            units = {1, p - 1} | {rng.randrange(1, p) for _ in range(3)}
            for c in units:
                divide, inverse = ring.divider(FpPoly(p, (c,))), FpPoly(p, (pow(c, -1, p),))
                for length in (0, 1, 2, 9, 200):
                    a = FpPoly(p, rand_coeffs(rng, p, length))
                    assert divide(a) == (ring.zero, a * inverse), (p, c, length)


class TestParseFormat:
    def test_examples(self):
        assert ZI.parse("3+2i") == GaussianInt(3, 2)
        assert F2.parse("y^3+y") == fp(F2, 0, 1, 0, 1)
        assert Z.parse("-1") == -1

    def test_gaussian_forms(self):
        assert ZI.parse("i") == GaussianInt(0, 1)
        assert ZI.parse("-i") == GaussianInt(0, -1)
        assert ZI.parse("2i") == GaussianInt(0, 2)
        assert ZI.parse("3-i") == GaussianInt(3, -1)
        assert ZI.parse(" -4 + 2i ") == GaussianInt(-4, 2)

    def test_fp_forms(self):
        assert F3.parse("2*y^2+1") == fp(F3, 1, 0, 2)
        assert F3.parse("2y^2+1") == fp(F3, 1, 0, 2)
        assert F2.parse("y - 1") == fp(F2, 1, 1)

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            Z.parse("12a")
        assert exc.value.pos == 2
        with pytest.raises(ParseError):
            ZI.parse("3+")
        with pytest.raises(ParseError) as exc:
            F3.parse("4y")
        assert "out of range" in str(exc.value)

    def test_huge_exponent_rejected_before_allocation(self):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="exponent"):
            F2.parse("y^1000000000")
        assert time.perf_counter() - start < 1.0
        assert F2.parse("y^100000").degree == 100000

    def test_overlong_literals_raise_parse_error(self):
        # beyond the interpreter's int-string digit limit, at the literal
        for parse, text, pos in (
            (lambda t: parse_poly(Z, t), "1" * 5000, 0),
            (ZI.parse, "1" * 5000 + "i", 0),
            (F2.parse, "1" * 5000, 0),
            (ZI.parse, "3+" + "1" * 5000 + "i", 2),
        ):
            with pytest.raises(ParseError, match="too long") as exc:
                parse(text)
            assert exc.value.pos == pos

    def test_error_message_is_bounded(self):
        text = "x^" + "1" * 6000
        with pytest.raises(ParseError) as exc:
            parse_poly(Z, text)
        assert exc.value.text == text and exc.value.pos == 1
        assert len(str(exc.value)) < 200
        assert "'x^111" in str(exc.value) and "..." in str(exc.value)
        with pytest.raises(ParseError) as exc:
            F2.parse("y+" * 3000 + "z")
        assert len(str(exc.value)) < 200
        assert "y+z'" in str(exc.value)

    def test_roundtrip(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.randint(-10**6, 10**6)
            assert Z.parse(Z.format(a)) == a
            g = GaussianInt(rng.randint(-99, 99), rng.randint(-99, 99))
            assert ZI.parse(ZI.format(g)) == g
            f = FpPoly.make(3, [rng.randrange(3) for _ in range(rng.randint(0, 6))])
            assert F3.parse(F3.format(f)) == f


gaussians = st.builds(GaussianInt, st.integers(-50, 50), st.integers(-50, 50))
f3_polys = st.builds(
    lambda cs: FpPoly.make(3, cs), st.lists(st.integers(0, 2), max_size=5)
)


class TestKroneckerProduct:
    PRIMES = (2, 3, 5, 17, 251, 65537, 2**61 - 1)

    def rand_poly(self, rng, p, length, top=False):
        # top=True gives every coefficient p - 1, the largest slot sums
        if top:
            return FpPoly(p, (p - 1,) * length)
        if length == 0:
            return FpPoly(p, ())
        low = tuple(rng.randrange(p) for _ in range(length - 1))
        return FpPoly(p, low + (rng.randrange(1, p),))

    def check(self, a, b):
        want = FpPoly(a.p, tuple_mul(a.p, a.coeffs, b.coeffs))
        assert a * b == want, (a, b)
        assert b * a == want, (a, b)

    def test_random_lengths(self):
        rng = random.Random(31)
        for p in self.PRIMES:
            for _ in range(60):
                la, lb = rng.randint(0, 40), rng.randint(0, 40)
                self.check(self.rand_poly(rng, p, la), self.rand_poly(rng, p, lb))

    def test_empty_and_constant_operands(self):
        rng = random.Random(32)
        for p in self.PRIMES:
            zero, one = FpPoly(p, ()), FpPoly(p, (1,))
            for length in (0, 1, 2, 9):
                a = self.rand_poly(rng, p, length)
                for c in (zero, one, FpPoly(p, (p - 1,)), self.rand_poly(rng, p, 1)):
                    self.check(a, c)

    def test_slot_width_switches(self):
        # one-byte slots hold min(la, lb) * (p-1)^2 <= 255: up to 63 terms
        # for p = 3 and 255 for p = 2; the next length needs two bytes.
        # For p = 17 two bytes hold up to 255 terms.
        rng = random.Random(33)
        for p, lengths in ((3, (63, 64)), (2, (255, 256)), (5, (15, 16)), (17, (255, 256))):
            for m in lengths:
                for other in (m, m + 7, 3 * m):
                    for top in (True, False):
                        a, b = self.rand_poly(rng, p, m, top), self.rand_poly(rng, p, other, top)
                        self.check(a, b)

    def test_char2_products_about_the_mask_length(self):
        # in characteristic 2 one-byte slots are reduced by a 0x0101...01
        # mask of 4096 slots, and longer integers by table: products of
        # 4095 to 4098 slots straddle that length
        rng = random.Random(34)
        for length in (4095, 4096, 4097, 4098):
            for top in (True, False):
                a = self.rand_poly(rng, 2, length - 98, top)
                self.check(a, self.rand_poly(rng, 2, 99, top))


class TestPrimeField:
    def test_small_characteristics_match_trial_division(self):
        for p in range(2000):
            prime = p >= 2 and all(p % k for k in range(2, int(p**0.5) + 1))
            if prime:
                assert FpPolynomialRing(p).p == p
            else:
                with pytest.raises(ValueError, match="not prime"):
                    FpPolynomialRing(p)

    def test_large_prime_builds_quickly(self):
        start = time.perf_counter()
        assert FpPolynomialRing(2**61 - 1).p == 2**61 - 1
        assert time.perf_counter() - start < 1.0

    def test_pseudoprimes_rejected(self):
        # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7;
        # 561 is a Carmichael number
        for n in (3215031751, 561):
            with pytest.raises(ValueError, match="not prime"):
                FpPolynomialRing(n)

    def test_beyond_exact_range_rejected(self):
        # the first 13 prime bases decide primality only below this bound
        with pytest.raises(ValueError, match="cannot be decided"):
            FpPolynomialRing(3_317_044_064_679_887_385_961_981)


class TestProperties:
    @given(st.integers(-100, 100), st.integers(-20, 20).filter(bool))
    def test_int_division_with_remainder(self, a, m):
        r, q = Z.divider(m)(a)
        assert a == r + q * m
        assert r in Z.residues(m)

    @given(gaussians, gaussians.filter(lambda g: g.norm() > 1))
    def test_gaussian_division_with_remainder(self, a, m):
        divide = ZI.divider(m)
        r, q = divide(a)
        assert a == r + q * m
        # idempotent: r is its own canonical residue
        assert divide(r)[0] == r

    @given(f3_polys, f3_polys.filter(lambda f: f.degree >= 1))
    def test_fp_division_with_remainder(self, a, m):
        r, q = F3.divider(m)(a)
        assert q * m + r == a
        assert r.degree < m.degree

    @given(st.integers(-100, 100), st.integers(-100, 100).filter(bool))
    def test_exact_div_recovers_factor_int(self, a, b):
        assert Z.divider(b)(a * b) == (0, a)

    @given(gaussians, gaussians.filter(bool))
    def test_exact_div_recovers_factor_gaussian(self, a, b):
        assert ZI.divider(b)(a * b) == (ZI.zero, a)

    @given(f3_polys, f3_polys.filter(bool))
    def test_exact_div_recovers_factor_fp(self, a, b):
        assert F3.divider(b)(a * b) == (F3.zero, a)

    @given(gaussians.filter(bool), gaussians.filter(bool))
    def test_value_grows_under_multiplication(self, a, b):
        assert ZI.euclid_value(a * b) >= ZI.euclid_value(b)

    @given(f3_polys.filter(bool), f3_polys.filter(bool))
    def test_value_grows_under_multiplication_fp(self, a, b):
        assert F3.euclid_value(a * b) >= F3.euclid_value(b)


PRIMES = (2, 3, 5, 7, 127, 131, 257, 2**61 - 1)


def rand_coeffs(rng, p, length):
    """A coefficient tuple of the given length with a nonzero last entry."""
    if length == 0:
        return ()
    return tuple(rng.randrange(p) for _ in range(length - 1)) + (rng.randrange(1, p),)


class TestPackedKernels:
    """Sums, differences, negatives and products of packed FpPolys against
    the coefficient-tuple loops of ``support``."""

    def check(self, p, a, b):
        x, y = FpPoly(p, a), FpPoly(p, b)
        for got, want in (
            (x + y, tuple_add(p, a, b)),
            (x - y, tuple_sub(p, a, b)),
            (-x, tuple_neg(p, a)),
            (x * y, tuple_mul(p, a, b)),
        ):
            assert got == FpPoly(p, want), (p, a, b)
            assert got.coeffs == want and got.degree == len(want) - 1, (p, a, b)

    def test_random_operands(self):
        rng = random.Random(91)
        fixed = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 7), (7, 1), (2, 500), (500, 3), (500, 500)]
        for p in PRIMES:
            pairs = fixed + [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(25)]
            pairs += [(rng.randint(0, 500), rng.randint(0, 500)) for _ in range(2)]
            for la, lb in pairs:
                self.check(p, rand_coeffs(rng, p, la), rand_coeffs(rng, p, lb))

    def test_extreme_coefficients(self):
        # every coefficient p - 1: the largest slot sums, products and borrows
        for p in PRIMES:
            for la, lb in ((1, 1), (3, 20), (64, 64), (300, 2)):
                self.check(p, (p - 1,) * la, (p - 1,) * lb)
                self.check(p, (p - 1,) * la, (1,) * lb)

    def test_cancellation(self):
        rng = random.Random(92)
        for p in PRIMES:
            for length in (1, 2, 9, 130):
                a = rand_coeffs(rng, p, length)
                x = FpPoly(p, a)
                assert x - x == FpPoly(p) and not x + -x and (x - x).degree == -1
                # equal upper parts cancel to a lower degree
                half = length // 2
                b = tuple(rng.randrange(p) for _ in range(half)) + a[half:]
                self.check(p, a, b)
                assert (x - FpPoly(p, b)).degree < half


class TestSeriesDivider:
    """``Fp(p).divider(m)``, which divides through a power-series inverse
    of the reversed modulus, against long division on coefficient tuples."""

    def check(self, p, divide, a, m):
        q, r = tuple_divmod(p, a, m)
        assert divide(FpPoly(p, a)) == (FpPoly(p, r), FpPoly(p, q)), (p, a, m)

    def modulus(self, rng, p, degree):
        # a leading coefficient other than 1 wherever the field has one
        lead = rng.randrange(2, p) if p > 2 else 1
        return tuple(rng.randrange(p) for _ in range(degree)) + (lead,)

    def test_matches_long_division(self):
        rng = random.Random(93)
        for p in PRIMES:
            for degree in range(1, 7):
                m = self.modulus(rng, p, degree)
                divide = Fp(p).divider(FpPoly(p, m))
                # zero, shorter than m, as long as m, and longer
                lengths = [0, 1, degree, degree + 1, degree + 2]
                lengths += [rng.randint(0, 200) for _ in range(5)]
                for length in lengths:
                    self.check(p, divide, rand_coeffs(rng, p, length), m)

    def test_one_divider_across_series_doublings(self):
        # longer quotients extend the cached series (over F2 and F3 only up
        # to the one-byte bound); shorter ones read its prefix.  Dividers are
        # shared per modulus, so start from fresh ones
        _clear_shared()
        rng = random.Random(94)
        for p in (2, 3, 5, 7, 13, 131, 2**61 - 1):
            m = self.modulus(rng, p, 3)
            divide = Fp(p).divider(FpPoly(p, m))
            for length in (5, 6, 9, 17, 40, 3, 70, 130, 8, 260, 515, 2, 1030, 33):
                self.check(p, divide, rand_coeffs(rng, p, length), m)

    def test_one_byte_quotient_boundary(self):
        # quotients one slot shorter than, as long as and one slot longer
        # than k times the longest that one-byte slots multiply inline, k =
        # 1..4, and of 1,000 slots and more: F2 and F3 divide those past
        # k = 1 in chunks of the bound, from the top, and F5, F7 and F13
        # through the series.  m = 1 + (p-1)y has 1/rev(m) = (p-1)(1 + y +
        # ...), whose products with all-(p-1) dividends fill the slots most
        rng = random.Random(95)
        for p in (2, 3, 5, 7, 13):
            bound = (256 - p) // p * p // (p - 1) ** 2
            moduli = [(rng.randrange(1, p),), (1, p - 1), (0, 1), (p - 1,) * 3, (0, 0, 1, p - 1)]
            moduli += [self.modulus(rng, p, degree) for degree in range(5)]
            ns = [k * bound + j for k in range(1, 5) for j in (-1, 0, 1)] + [1000, 1203]
            for m in moduli:
                divide = Fp(p).divider(FpPoly(p, m))
                for n in ns:
                    length = n + len(m) - 1
                    for a in ((p - 1,) * length, rand_coeffs(rng, p, length)):
                        self.check(p, divide, a, m)


class TestFpPolyValues:
    def test_equal_across_constructors(self):
        for p in (2, 3, 131, 2**61 - 1):
            ring = Fp(p)
            y = FpPoly(p, (0, 1))
            forms = [
                FpPoly(p, (1, 0, p - 1)),
                FpPoly(p, [1, 0, p - 1, 0, 0]),
                FpPoly.make(p, (1 + p, 2 * p, -1, p)),
                ring.parse(f"{p - 1}y^2+1"),
                y * FpPoly(p, (0, p - 1)) + ring.one,
                ring.one - y * y,
                -(y * y - ring.one),
                ring.divider(y * y * y)(FpPoly(p, (1, 0, p - 1, 1)))[0],
            ]
            assert len(set(forms)) == 1 and len({hash(f) for f in forms}) == 1
            for f in forms:
                assert f == forms[0] and not f != forms[0]
                assert f.coeffs == (1, 0, p - 1) and f.degree == 2 and f.p == p

    def test_unequal_to_other_types(self):
        for f in (FpPoly(3), FpPoly(3, (2,)), FpPoly(3, (1, 2)), FpPoly(131, (7, 1))):
            pair = tuple(f)
            assert f != pair and pair != f and not f == pair and not pair == f
            assert pair not in {f} and f not in {pair}
            for other in (0, 2, GaussianInt(2, 0), (1, 2)):
                assert f != other and other != f
        assert FpPoly(3, (1,)) != FpPoly(5, (1,))

    def test_pickle_and_copy_round_trips(self):
        values = (FpPoly(2), FpPoly(3, (1, 2)), FpPoly(131, (130, 0, 7)), FpPoly(2**61 - 1, (5, 9)))
        for f in values:
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                g = pickle.loads(pickle.dumps(f, protocol))
                assert type(g) is FpPoly and g == f and hash(g) == hash(f)
            for g in (copy.copy(f), copy.deepcopy(f), copy.deepcopy((f, [f]))[0]):
                assert type(g) is FpPoly and g == f

    def test_int_times_value_is_refused(self):
        # tuple would read 3 * f as repetition
        f = FpPoly(3, (1, 2))
        with pytest.raises(TypeError):
            3 * f
        with pytest.raises(TypeError):
            f * 3

    def test_repr(self):
        assert repr(FpPoly.make(3, (1, 2, 0, 1))) == "FpPoly(3, (1, 2, 0, 1))"
        assert repr(FpPoly(2)) == "FpPoly(2, ())"
        assert repr(FpPoly(131, (130,))) == "FpPoly(131, (130,))"
        assert str(FpPoly.make(3, (1, 2, 0, 1))) == "y^3+2y+1"

    def test_sort_key_order(self):
        # the frozen-dataclass key: (degree, coefficient tuple)
        rng = random.Random(95)
        for p in (2, 3, 131):
            coeffs = [rand_coeffs(rng, p, rng.randint(0, 6)) for _ in range(300)]
            want = [FpPoly(p, c) for c in sorted(coeffs, key=lambda c: (len(c) - 1, c))]
            assert sorted((FpPoly(p, c) for c in coeffs), key=Fp(p).sort_key) == want


class TestGaussianIntValues:
    def test_equal_and_hash(self):
        for re, im in ((0, 0), (3, -4), (-1, 1), (10**200, -(10**200) - 7)):
            g = GaussianInt(re, im)
            forms = [
                GaussianInt(re, im),
                ZI.coerce(g),
                ZI.parse(f"{re}+{im}i".replace("+-", "-")),
                (g + ZI.one) - ZI.one,
                -(-g),
                g.conjugate().conjugate(),
                g * ZI.one,
                ZI.divider(ZI.one)(g)[1],
            ]
            for f in forms:
                assert f == g and not f != g
                assert hash(f) == hash((re, im))
                assert (f.re, f.im) == (re, im)
            assert len(set(forms)) == 1
        assert GaussianInt(1, 2) != GaussianInt(2, 1) and not GaussianInt(1, 2) == GaussianInt(2, 1)

    def test_unequal_to_other_types(self):
        for g in (GaussianInt(0, 0), GaussianInt(2, 0), GaussianInt(3, 2), GaussianInt(-1, 5)):
            pair = (g.re, g.im)
            assert g != pair and pair != g and not g == pair and not pair == g
            assert pair not in {g} and g not in {pair}
            # FpPoly(3, (2,)) is the pair (3, 2) as well
            for other in (0, 2, g.re, FpPoly(3, (2,)), FpPoly(2)):
                assert g != other and other != g and not g == other
        assert not GaussianInt(0, 0) and GaussianInt(0, 1) and GaussianInt(-1, 0)

    def test_results_are_gaussian_ints(self):
        a, b, m = GaussianInt(7, -3), GaussianInt(-2, 5), GaussianInt(2, 1)
        r, q = ZI.divider(m)(a)
        results = [
            a + b, a - b, a * b, -a, a.conjugate(), r, q,
            ZI.parse("3-2i"), ZI.parse("5"), ZI.coerce(4), ZI.coerce(a),
            ZI.zero, ZI.one, *ZI.residues(m), *ZI.residues(ZI.one),
        ]
        for x in results:
            assert type(x) is GaussianInt, x
        assert type(a.norm()) is int

    def test_int_times_value_is_refused(self):
        # tuple would read 3 * g as repetition
        g = GaussianInt(1, 2)
        with pytest.raises(TypeError):
            3 * g
        with pytest.raises(TypeError):
            g + 1

    def test_pickle_and_copy_round_trips(self):
        for g in (GaussianInt(0, 0), GaussianInt(3, -4), GaussianInt(10**200, -1)):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                h = pickle.loads(pickle.dumps(g, protocol))
                assert type(h) is GaussianInt and h == g and hash(h) == hash(g)
            for h in (copy.copy(g), copy.deepcopy(g), copy.deepcopy((g, [g]))[0]):
                assert type(h) is GaussianInt and h == g

    def test_repr_and_str(self):
        assert repr(GaussianInt(3, -4)) == "GaussianInt(3, -4)"
        assert repr(GaussianInt(0, 0)) == "GaussianInt(0, 0)"
        cases = {(3, -4): "3-4i", (0, 1): "i", (0, -1): "-i", (2, 0): "2", (-1, 1): "-1+i",
                 (0, 0): "0", (0, 5): "5i"}
        for (re, im), text in cases.items():
            g = GaussianInt(re, im)
            assert str(g) == ZI.format(g) == text
            assert ZI.parse(text) == g

    def test_matches_dataclass_formulas(self):
        rng = random.Random(12)
        big = 10**200
        for _ in range(300):
            parts = [rng.randint(-big, big) for _ in range(4)]
            a, b = GaussianInt(*parts[:2]), GaussianInt(*parts[2:])
            da, db = DataclassGaussian(*parts[:2]), DataclassGaussian(*parts[2:])
            pairs = [
                (a + b, da + db), (a - b, da - db), (a * b, da * db), (-a, -da),
                (a.conjugate(), da.conjugate()),
            ]
            for got, want in pairs:
                assert type(got) is GaussianInt
                assert (got.re, got.im) == (want.re, want.im)
                assert hash(got) == hash(want)
            assert a.norm() == da.norm() and bool(a) == bool(da)
