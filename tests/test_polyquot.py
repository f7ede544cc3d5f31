import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from digsys import (
    Fp,
    FpPoly,
    GaussianInt,
    ParseError,
    Poly,
    QuotRing,
    ValidationError,
    Z,
    ZI,
    ff_criterion,
    parse_poly,
    validate_system,
)
from digsys.polyquot import base_violation

from support import divide_by_x_oracle, normalize_oracle, rand_poly, rand_ring_elem

F2 = Fp(2)


def qring(src, ring=Z):
    return QuotRing(parse_poly(ring, src))


class TestParsePoly:
    def test_integer_poly(self):
        p = parse_poly(Z, "3x^2-2x+5")
        assert p.coeffs == (5, -2, 3)

    def test_gaussian_poly(self):
        p = parse_poly(ZI, "(1+i)x+(1+2i)")
        assert p.coeffs == (GaussianInt(1, 2), GaussianInt(1, 1))

    def test_fp_poly(self):
        p = parse_poly(F2, "(y+1)x^2+y*x+(y^2+1)")
        assert p.coeffs == (
            FpPoly.make(2, (1, 0, 1)),
            FpPoly.make(2, (0, 1)),
            FpPoly.make(2, (1, 1)),
        )

    def test_bare_and_signed_terms(self):
        assert parse_poly(Z, "x").coeffs == (0, 1)
        assert parse_poly(Z, "-x^3").coeffs == (0, 0, 0, -1)
        assert parse_poly(Z, "-(3)x + 1").coeffs == (1, -3)
        assert parse_poly(Z, "x + x").coeffs == (0, 2)

    def test_huge_exponent_rejected_before_allocation(self):
        start = time.perf_counter()
        for src, ring in (("x^1000000000", Z), ("3x^1000000000+1", ZI), ("y^1000000000*x+1", F2)):
            with pytest.raises(ParseError, match="exponent"):
                parse_poly(ring, src)
        assert time.perf_counter() - start < 1.0
        assert parse_poly(Z, "x^100000").degree == 100000

    def test_coefficient_error_position_in_whole_polynomial(self):
        for ring, src, pos in ((Z, "3x^2+12ax", 7), (ZI, "x^2 + (1+)x", 9)):
            with pytest.raises(ParseError) as info:
                parse_poly(ring, src)
            assert (info.value.text, info.value.pos) == (src, pos)

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_poly(Z, "x^")
        with pytest.raises(ParseError):
            parse_poly(Z, "x^²")
        with pytest.raises(ParseError):
            parse_poly(Z, "(1+2x")
        with pytest.raises(ParseError):
            parse_poly(Z, "")

    def test_print_parse_roundtrip(self):
        rng = random.Random(3)
        for ring in (Z, ZI, F2):
            for _ in range(100):
                p = rand_poly(rng, ring, 4)
                assert parse_poly(ring, str(p)).coeffs == p.coeffs


class TestNormalize:
    def test_reducible_head(self):
        # 2x - (2x+3) = -3
        q = qring("2x+3")
        a = q.normalize(parse_poly(Z, "2x"))
        assert a.low == (-3,) and a.tail == ()

    def test_irreducible_monomial(self):
        # x itself stays: over a non-monic base the monomial cannot drop degree
        q = qring("2x+3")
        a = q.normalize(parse_poly(Z, "x"))
        assert a.low == () and a.tail == (1,)

    def test_modulus_maps_to_zero(self):
        for src, ring in [("2x+3", Z), ("3x^2-2x+5", Z), ("(y+1)x^2+y*x+(y^2+1)", F2)]:
            q = qring(src, ring)
            assert q.normalize(q.modulus).is_zero

    def test_validation(self):
        with pytest.raises(ValidationError):
            qring("5")  # degree 0
        with pytest.raises(ValidationError):
            qring("x-1")  # unit constant coefficient
        with pytest.raises(ValidationError):
            qring("2x")  # zero constant coefficient

    def test_base_checks_share_one_wording(self):
        # QuotRing, validate_system and ff_criterion reject a bad base with
        # the message of polyquot.base_violation
        for src, ring, want in [
            ("5", Z, "degree at least 1"),
            ("y", F2, "degree at least 1"),
            ("x-1", Z, "is a unit"),
            ("(y+1)x", F2, "p0 of the base polynomial is zero"),
        ]:
            modulus = parse_poly(ring, src)
            message = base_violation(modulus)
            assert want in message
            checks = [
                (ValidationError, lambda: QuotRing(modulus)),
                (ValidationError, lambda: validate_system(ring, modulus, [ring.zero])),
            ]
            if ring == F2:
                checks.append((ValueError, lambda: ff_criterion(modulus)))
            for error, check in checks:
                with pytest.raises(error) as info:
                    check()
                assert message in str(info.value)
        padded = Poly(Z, (3, 1, 0))  # built without trimming the zero lead
        assert base_violation(padded) == "the leading coefficient of the base polynomial is zero"
        with pytest.raises(ValidationError, match="leading coefficient"):
            QuotRing(padded)

    def test_base_error_texts(self):
        # validate_system leaves the base check to QuotRing: the texts stay
        # those of one ValidationError per bad base
        unit = (
            "p0 = {} is a unit: the residue ring modulo the base is trivial, so the digit "
            "set degenerates to a single digit"
        )
        cases = [
            (Z, parse_poly(Z, "5"), "the base polynomial must have degree at least 1"),
            (Z, Poly(Z, (3, 1, 0)), "the leading coefficient of the base polynomial is zero"),
            (
                Z,
                parse_poly(Z, "3x^2+x"),
                "the constant coefficient p0 of the base polynomial is zero",
            ),
            (Z, parse_poly(Z, "2x-1"), unit.format(-1)),
            (ZI, parse_poly(ZI, "x+i"), unit.format("i")),
            (F2, parse_poly(F2, "y*x+1"), unit.format(1)),
        ]
        for ring, modulus, text in cases:
            for build in (lambda: QuotRing(modulus), lambda: validate_system(ring, modulus, [0])):
                with pytest.raises(ValidationError) as info:
                    build()
                assert info.value.violations == [text] and str(info.value) == text

    def test_tail_entries_lie_in_lead_residues(self):
        rng = random.Random(11)
        q = qring("2x^2+3x+6")
        members = set(Z.residues(q.pd))
        for _ in range(200):
            a = q.normalize(rand_poly(rng, Z, 6))
            assert all(r in members for r in a.tail)
            if a.tail:
                assert a.tail[-1] != 0

    @given(st.lists(st.integers(-40, 40), max_size=7), st.lists(st.integers(-9, 9), max_size=4))
    def test_constant_on_cosets(self, fc, qc):
        q = qring("3x^2-2x+5")
        f = Poly.make(Z, fc)
        mult = Poly.make(Z, qc)
        assert q.normalize(f) == q.normalize(f + mult * q.modulus)

    def test_constant_on_cosets_other_rings(self):
        rng = random.Random(5)
        for src, ring in [("(1+i)x+(1+2i)", ZI), ("(y+1)x^2+y*x+(y^2+1)", F2)]:
            q = qring(src, ring)
            for _ in range(150):
                f = rand_poly(rng, ring, 5)
                mult = rand_poly(rng, ring, 3)
                assert q.normalize(f) == q.normalize(f + mult * q.modulus)


class TestArithmetic:
    def test_additive_inverse(self):
        q = qring("3x^2-2x+5")
        rng = random.Random(1)
        for _ in range(50):
            a = q.normalize(rand_poly(rng, Z, 5))
            assert (a + (-a)).is_zero

    def test_mul_by_x_reduces_head(self):
        q = qring("3x^2-2x+5")
        a = q.parse("3x-2")
        assert q.mul_x(a) == q.from_const(-5)

    def test_mul_identity(self):
        q = qring("3x^2-2x+5")
        rng = random.Random(2)
        for _ in range(50):
            a = q.normalize(rand_poly(rng, Z, 5))
            assert q.mul(q.one, a) == a

    def test_mul_matches_polynomial_product(self):
        rng = random.Random(8)
        q = qring("2x^2+3x+6")
        for _ in range(100):
            f = rand_poly(rng, Z, 4)
            g = rand_poly(rng, Z, 4)
            assert q.mul(q.normalize(f), q.normalize(g)) == q.normalize(f * g)


class TestDivideByX:
    def test_example_first_step(self):
        q = qring("3x^2-2x+5")
        assert q.divide_by_x(q.from_const(-5)) == q.parse("3x-2")

    def test_example_second_step(self):
        q = qring("3x^2-2x+5")
        assert q.divide_by_x(q.parse("3x-5")) == q.parse("3x+1")

    def test_section_of_multiplication(self):
        rng = random.Random(4)
        for src, ring in [("3x^2-2x+5", Z), ("(1+i)x+(1+2i)", ZI)]:
            q = qring(src, ring)
            for _ in range(100):
                a = q.normalize(rand_poly(rng, ring, 4))
                assert q.divide_by_x(q.mul_x(a)) == a

    def test_rejects_non_divisible(self):
        q = qring("3x^2-2x+5")
        with pytest.raises(ValueError, match="not divisible"):
            q.divide_by_x(q.one)


class TestBrunotteBasis:
    def test_example_basis(self):
        q = qring("3x^2-2x+5")
        w = q.brunotte_basis()
        assert w[0] == q.from_const(3)
        assert w[1] == q.parse("3x-2")

    def test_monic_quadratic(self):
        q = qring("x^2+4x+7")
        w = q.brunotte_basis()
        assert w[0] == q.one
        assert w[1] == q.parse("x+4")

    def test_gaussian_single_element(self):
        q = qring("(1+i)x+(1+2i)", ZI)
        (w0,) = q.brunotte_basis()
        assert w0 == q.from_const(GaussianInt(1, 1))

    def test_closed_form(self):
        # w_k = sum_{i=0..k} p_{d-i} x^{k-i}, built here with raw Poly ops
        rng = random.Random(9)
        for _ in range(50):
            coeffs = [rng.randint(2, 9)] + [rng.randint(-9, 9) for _ in range(3)]
            if coeffs[-1] == 0:
                coeffs[-1] = 1
            modulus = Poly.make(Z, coeffs)
            q = QuotRing(modulus)
            d = modulus.degree
            for k, w in enumerate(q.brunotte_basis()):
                expect = Poly.make(Z, [0])
                for i in range(k + 1):
                    expect = expect + Poly.make(Z, [modulus.coeffs[d - i]]).shift(k - i)
                assert w == q.normalize(expect)

    def test_coordinate_matrix_upper_triangular(self):
        q = qring("4x^3+2x^2-3x+6")
        w = q.brunotte_basis()
        for k, wk in enumerate(w):
            rep = q.to_poly(wk)
            assert rep.degree == k
            assert rep.coeffs[k] == 4  # diagonal entries all equal p_d
            assert all(rep.coeff(j) == 0 for j in range(k + 1, q.d))

    def test_x_times_last_basis_element(self):
        for src, ring in [("3x^2-2x+5", Z), ("4x^3+2x^2-3x+6", Z), ("(1+i)x+(1+2i)", ZI)]:
            q = qring(src, ring)
            w = q.brunotte_basis()
            assert q.mul_x(w[-1]) == q.from_const(-q.p0)


class TestStandardRepresentation:
    def test_basis_elements(self):
        q = qring("3x^2-2x+5")
        w = q.brunotte_basis()
        for i, wi in enumerate(w):
            rep = q.standard_representation(wi)
            assert rep.residue == ()
            assert rep.q == tuple(1 if j == i else 0 for j in range(q.d))

    def test_linear_example(self):
        # A=5 over 2x+3: 5 = 2*2 + 1 with remainder digit 1
        q = qring("2x+3")
        rep = q.standard_representation(q.from_const(5))
        assert rep.q == (2,) and rep.residue == (1,)

    def test_zero(self):
        q = qring("2x+3")
        rep = q.standard_representation(q.zero)
        assert rep.q == (0,) and rep.residue == ()

    def test_roundtrip(self):
        rng = random.Random(13)
        for src, ring in [
            ("3x^2-2x+5", Z),
            ("2x+3", Z),
            ("(1+i)x+(1+2i)", ZI),
            ("(y+1)x^2+y*x+(y^2+1)", F2),
        ]:
            q = qring(src, ring)
            for _ in range(200):
                a = q.normalize(rand_poly(rng, ring, q.d + 3))
                rep = q.standard_representation(a)
                assert q.from_coords(rep.q + rep.residue) == a
                if rep.residue:
                    assert rep.residue[-1]

    def test_monic_roundtrip(self):
        rng = random.Random(14)
        q = qring("x^2+4x+7")
        for _ in range(100):
            a = q.normalize(rand_poly(rng, Z, 4))
            rep = q.standard_representation(a)
            assert rep.residue == ()
            assert q.from_coords(rep.q + rep.residue) == a


class TestUnitLeadOracle:
    """``normalize``, ``standard_representation`` and ``divide_by_x``, which
    divide by p_d and p0 through ``Ring.divider`` for unit and non-unit
    leads alike, against ``support.normalize_oracle`` (the unit-lead loop
    multiplies by p_d^-1)."""

    F3 = Fp(3)
    LEADS = (
        (Z, (1, -1, 2, -3)),
        (ZI, tuple(GaussianInt(*c) for c in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (2, 0)))),
        (F3, (F3.one, F3.parse("2"), F3.parse("y+1"), F3.parse("y^2+2"))),
    )

    def moduli(self, rng):
        for ring, leads in self.LEADS:
            for lead in leads:
                for d in (1, 2, 3):
                    p0 = rand_ring_elem(rng, ring, 9)
                    while not p0 or ring.is_unit(p0):
                        p0 = rand_ring_elem(rng, ring, 9)
                    middle = [rand_ring_elem(rng, ring, 9) for _ in range(d - 1)]
                    yield ring, QuotRing(Poly.make(ring, [p0, *middle, lead]))

    def test_against_oracle(self):
        rng = random.Random(98)
        units = 0
        for ring, q in self.moduli(rng):
            units += ring.is_unit(q.pd)
            for _ in range(12):
                f = rand_poly(rng, ring, q.d + 4, 30)
                a = q.normalize(f)
                assert (a.low, a.tail) == normalize_oracle(q, f), (q, f)
                rep = q.standard_representation(a)
                assert q.from_coords(rep.q + rep.residue) == a
                if ring.is_unit(q.pd):
                    assert a.tail == () and rep.residue == ()
                for b in (a, q.mul_x(a), q.mul_x(a) - q.from_const(q.p0)):
                    want = divide_by_x_oracle(q, b)
                    if want is None:
                        with pytest.raises(ValueError, match="not divisible"):
                            q.divide_by_x(b)
                    else:
                        got = q.divide_by_x(b)
                        assert (got.low, got.tail) == want and q.mul_x(got) == b
        assert units == 3 * (2 + 4 + 2)


class TestFormatting:
    def test_golden_prints(self):
        q = qring("3x^2-2x+5")
        assert q.format(q.parse("3x-2")) == "3*X - 2"
        assert q.format(q.zero) == "0"
        assert q.format(q.from_const(-5)) == "-5"
        qg = qring("(1+i)x+(1+2i)", ZI)
        assert qg.format(qg.from_const(GaussianInt(-4, 2))) == "-4+2i"
        qf = qring("(y+1)x^2+y*x+(y^2+1)", F2)
        a = qf.parse("(y^2+y)x + y^2")
        assert qf.format(a) == "(y^2+y)*X + y^2"

    def test_print_parse_roundtrip(self):
        rng = random.Random(21)
        for src, ring in [("3x^2-2x+5", Z), ("(1+i)x+(1+2i)", ZI), ("(y+1)x^2+y*x+(y^2+1)", F2)]:
            q = qring(src, ring)
            for _ in range(150):
                a = q.normalize(rand_poly(rng, ring, 5))
                assert q.parse(q.format(a)) == a
