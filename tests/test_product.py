import random
from itertools import islice

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
from digsys.product import ProductExpansion

from support import coupled_product_expand, rand_poly


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

    def test_x_matches_coupled_recurrence(self):
        psys = two_three()
        out = product_expand(psys, parse_poly(Z, "x"))
        assert out.status == "finite"
        assert out == coupled_product_expand(psys, parse_poly(Z, "x"))

    def test_streams_match_on_random_elements(self):
        rng = random.Random(19)
        psys = two_three()
        combined = psys.combined
        for _ in range(100):
            f = rand_poly(rng, Z, 5, size=30)
            out = product_expand(psys, f, cap=5000)
            assert out.status == "finite"
            assert out == coupled_product_expand(psys, f, cap=5000)
            assert combined.evaluate(out.digits) == combined.qring.normalize(f)

    def test_big_coefficients_match_oracles(self):
        # the benchmark's system at 30- to 60-digit coefficients: its x-part
        # offsets are d basis coordinates, folded into the tables of the
        # straight-line step
        rng = random.Random(29)
        psys = two_three()
        combined = psys.combined
        for _ in range(12):
            n = rng.randint(30, 60)
            coeffs = [rng.randrange(-(10**n), 10**n) for _ in range(rng.randint(1, 13))]
            f = Poly.make(Z, coeffs)
            out = product_expand(psys, f, cap=5000)
            assert out.status == "finite" and len(out.digits) > 50
            assert out == coupled_product_expand(psys, f, cap=5000)
            assert combined.evaluate(out.digits) == combined.qring.normalize(f)

    def test_eventually_periodic_state(self):
        # base -X with digits {0,1} on the second factor never kills -1
        psys = product_digit_set(
            Z, parse_poly(Z, "x+2"), [0, 1], parse_poly(Z, "x-2"), [0, 1]
        )
        out = product_expand(psys, Poly.make(Z, [-1]), cap=500)
        assert out.status == "eventually-periodic"
        assert out.period is not None

    def test_cap_boundary_matches_coupled_recurrence(self):
        # 5x+7 has 4 digits; the state after exactly cap steps is examined
        psys = two_three()
        element = parse_poly(Z, "5x+7")
        assert len(product_expand(psys, element).digits) == 4
        for cap, status in ((3, "unknown"), (4, "finite"), (5, "finite")):
            out = product_expand(psys, element, cap=cap)
            assert out.status == status
            assert out == coupled_product_expand(psys, element, cap)
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

    def test_three_factors_evaluate_back(self):
        # more than two factors expand by T of the combined system; the
        # coupled recurrence has two streams only, so Horner evaluation
        # checks the digits
        factors = [(parse_poly(Z, "x+2"), [0, 1])] * 3
        psys = multi_product_digit_set(Z, factors)
        combined = psys.combined
        element = parse_poly(Z, "5x^2+7")
        out = product_expand(psys, element)
        assert out.status == "finite" and len(out.digits) == 7
        assert combined.evaluate(out.digits) == combined.qring.normalize(element)
        rng = random.Random(23)
        for _ in range(60):
            f = rand_poly(rng, Z, 6, size=40)
            out = product_expand(psys, f, cap=400)
            assert out.status == "finite"
            assert combined.evaluate(out.digits) == combined.qring.normalize(f)


# factor pairs (P1, N1, P2, N2), monic and not, with p0 of either sign
CROSS_ORACLE_FACTORS = [
    ("x+2", [0, 1], "x-2", [0, 1]),
    ("x+2", [0, 1], "x+3", [0, 1, 2]),
    ("x-2", [0, 1], "x+3", [-1, 0, 1]),
    ("2x+3", [0, 1, 2], "x-2", [0, 1]),
    ("x^2+x+2", [0, 1], "x-3", [0, 1, 2]),
    ("x+2", [0, -1], "3x-2", [0, 1]),
]


def digit_stream(psys, out, n):
    """The first n digits of the raw digit stream of T that ``out``, a
    finite or eventually periodic expansion, determines: after a finite
    expansion the stream goes on with that of 0, an eventually periodic
    one repeats its cycle."""
    digits = list(out.digits)
    if out.status == "finite":
        digits += islice(psys.combined.digit_stream(psys.combined.zero), max(n - len(digits), 0))
    while len(digits) < n:
        digits.append(digits[len(digits) - out.period])
    return tuple(digits[:n])


class TestCoupledRecurrenceOracle:
    """The walk of T on the combined system against the coupled
    recurrence on the factor coefficient streams.

    A recurrence state (a, b) stands for the element a + b*P1, and not
    uniquely, so both routes emit the raw digit stream of T, but the
    recurrence may recognise an element 0 or a repeated element only
    some steps after the walk does: the element P1*P2, which is 0, has
    the expansion () and the recurrence gives (0, 0)."""

    def test_zero_element_lags_in_the_recurrence(self):
        psys = two_three()
        element = psys.combined.modulus
        assert product_expand(psys, element) == ProductExpansion("finite", (), steps=0)
        lagged = coupled_product_expand(psys, element)
        assert lagged.status == "finite" and lagged.steps == 2
        assert lagged.digits == (psys.combined.zero,) * 2

    def test_random_elements_match(self):
        rng = random.Random(14)
        statuses, lags = {}, 0
        for p1, n1, p2, n2 in CROSS_ORACLE_FACTORS:
            psys = product_digit_set(Z, parse_poly(Z, p1), n1, parse_poly(Z, p2), n2)
            combined = psys.combined
            for _ in range(350):
                f = rand_poly(rng, Z, 6, size=rng.choice((3, 50, 10**6)))
                cap = rng.choice((rng.randint(0, 40), 300))
                out = product_expand(psys, f, cap=cap)
                oracle = coupled_product_expand(psys, f, cap=cap)
                statuses[out.status] = statuses.get(out.status, 0) + 1
                if out.status == "finite":
                    assert combined.evaluate(out.digits) == combined.qring.normalize(f)
                if out == oracle:
                    continue
                # the recurrence lagged: same stream, recognised later
                lags += 1
                assert out.status != "unknown"
                assert oracle.steps > out.steps
                assert oracle.digits == digit_stream(psys, out, len(oracle.digits))
                if out.status == oracle.status == "eventually-periodic":
                    assert oracle.preperiod >= out.preperiod
                    assert oracle.period % out.period == 0
        assert set(statuses) == {"finite", "eventually-periodic", "unknown"}
        assert min(statuses.values()) > 200
        assert lags < 20


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
