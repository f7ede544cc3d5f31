import random

import pytest

from digsys import (
    Poly,
    ValidationError,
    Z,
    decide_fep,
    multi_product_digit_set,
    parse_poly,
    product_digit_set,
    product_expand,
)

from support import rand_poly


def two_three():
    return product_digit_set(
        Z, parse_poly(Z, "x+2"), [0, 1], parse_poly(Z, "x+3"), [0, 1, 2]
    )


class TestDigitSet:
    def test_example_digit_set(self):
        psys = two_three()
        fmt = psys.combined.qring.format
        assert [fmt(d) for d in psys.combined.digits] == [
            "0",
            "1",
            "X + 2",
            "X + 3",
            "2*X + 4",
            "2*X + 5",
        ]
        assert len(psys.combined.digits) == 6
        assert psys.combined.modulus.coeffs == (6, 5, 1)

    def test_single_digit_factor_rejected(self):
        # a one-element digit set would need a unit constant coefficient
        with pytest.raises(ValidationError):
            product_digit_set(Z, parse_poly(Z, "x+2"), [0, 1], parse_poly(Z, "x+3"), [0])

    def test_non_constant_digits_rejected(self):
        with pytest.raises(ValueError, match="constant digit sets"):
            product_digit_set(
                Z, parse_poly(Z, "x+2"), [0, 1], parse_poly(Z, "x+3"), [0, 1, parse_poly(Z, "x")]
            )

    def test_three_factors(self):
        factors = [(parse_poly(Z, "x+2"), [0, 1])] * 3
        psys = multi_product_digit_set(Z, factors)
        assert len(psys.combined.digits) == 8
        assert psys.combined.modulus.coeffs == (8, 12, 6, 1)
        fmt = psys.combined.qring.format
        p1 = parse_poly(Z, "x+2")
        q = psys.combined.qring
        expected = set()
        for d3 in (0, 1):
            for d2 in (0, 1):
                for d1 in (0, 1):
                    poly = Poly.make(Z, [d1]) + p1.scale(d2) + (p1 * p1).scale(d3)
                    expected.add(q.normalize(poly))
        assert set(psys.combined.digits) == expected
        assert psys.fep_propagated == "yes"

    def test_permuted_factors_differ(self):
        a = two_three()
        b = product_digit_set(
            Z, parse_poly(Z, "x+3"), [0, 1, 2], parse_poly(Z, "x+2"), [0, 1]
        )
        assert set(a.combined.digits) != set(b.combined.digits)
        assert a.combined.modulus.coeffs == b.combined.modulus.coeffs


class TestExpand:
    def test_zero_is_empty(self):
        psys = two_three()
        out = product_expand(psys, Poly.make(Z, []))
        assert out.status == "finite" and out.digits == ()

    def test_one_is_single_digit(self):
        psys = two_three()
        out = product_expand(psys, Poly.make(Z, [1]))
        assert out.status == "finite"
        assert [psys.combined.qring.format(d) for d in out.digits] == ["1"]

    def test_x_matches_generic_dynamics(self):
        psys = two_three()
        out = product_expand(psys, parse_poly(Z, "x"))
        seq = psys.combined.digit_sequence(psys.combined.qring.x)
        assert out.status == "finite" and seq.kind == "finite"
        assert out.digits == seq.digits

    def test_streams_match_on_random_elements(self):
        rng = random.Random(19)
        psys = two_three()
        combined = psys.combined
        for _ in range(100):
            f = rand_poly(rng, Z, 5, size=30)
            out = product_expand(psys, f, cap=5000)
            seq = combined.digit_sequence(combined.qring.normalize(f), cap=5000)
            assert out.status == "finite" and seq.kind == "finite"
            assert out.digits == seq.digits
            assert combined.evaluate(out.digits) == combined.qring.normalize(f)

    def test_eventually_periodic_state(self):
        # base -X with digits {0,1} on the second factor never kills -1
        psys = product_digit_set(
            Z, parse_poly(Z, "x+2"), [0, 1], parse_poly(Z, "x-2"), [0, 1]
        )
        out = product_expand(psys, Poly.make(Z, [-1]), cap=500)
        assert out.status == "eventually-periodic"
        assert out.period is not None

    def test_cap_boundary_matches_generic_dynamics(self):
        # 5x+7 has 4 digits; the state after exactly cap steps is examined
        psys = two_three()
        combined = psys.combined
        element = parse_poly(Z, "5x+7")
        assert len(product_expand(psys, element).digits) == 4
        for cap, status in ((3, "unknown"), (4, "finite"), (5, "finite")):
            out = product_expand(psys, element, cap=cap)
            seq = combined.digit_sequence(combined.qring.normalize(element), cap)
            assert out.status == seq.kind == status
            assert out.digits == seq.digits
        assert product_expand(psys, Poly.make(Z, []), cap=0).status == "finite"

    def test_negative_cap_raises(self):
        with pytest.raises(ValueError, match="cap must be at least 0"):
            product_expand(two_three(), parse_poly(Z, "x"), cap=-1)

    def test_periodic_state_found_at_exactly_cap(self):
        psys = product_digit_set(
            Z, parse_poly(Z, "x+2"), [0, 1], parse_poly(Z, "x-2"), [0, 1]
        )
        element = Poly.make(Z, [-1])
        full = product_expand(psys, element, cap=500)
        n = full.preperiod + full.period
        assert product_expand(psys, element, cap=n - 1).status == "unknown"
        for cap in (n, n + 1):
            out = product_expand(psys, element, cap=cap)
            assert out == full

    def test_two_factor_guard(self):
        factors = [(parse_poly(Z, "x+2"), [0, 1])] * 3
        psys = multi_product_digit_set(Z, factors)
        with pytest.raises(ValueError):
            product_expand(psys, parse_poly(Z, "x"))


class TestFepPropagation:
    def test_flag_matches_combined_decision(self):
        psys = two_three()
        assert psys.fep_propagated == "yes"
        assert decide_fep(psys.combined).answer == "yes"

    def test_flag_unknown_without_zero_digit(self):
        psys = product_digit_set(
            Z, parse_poly(Z, "x+2"), [1, 2], parse_poly(Z, "x+3"), [0, 1, 2]
        )
        assert psys.fep_propagated == "unknown"
