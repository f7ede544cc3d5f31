import math
import random
import time
from fractions import Fraction

import pytest

from digsys import (
    SrsParams,
    Z,
    cns_to_srs,
    dominant_condition,
    parse_poly,
    srs_classify,
    srs_to_cns,
    tau_step,
    validate_system,
)
from digsys.rings import MAX_ENUMERATION
from digsys.srs import epsilon_digit_set


def F(a, b=1):
    return Fraction(a, b)


class TestTauStep:
    def test_hand_iteration(self):
        params = SrsParams((F(3, 5), F(-2, 5)))
        assert tau_step(params, (0, 1)) == (1, 1)
        assert tau_step(params, (1, 1)) == (1, 0)
        assert tau_step(params, (1, 0)) == (0, 0)

    def test_zero_fixed_without_offset(self):
        params = SrsParams((F(3, 5), F(-2, 5)))
        assert tau_step(params, (0, 0)) == (0, 0)

    def test_offset_floor(self):
        params = SrsParams((F(3, 5), F(-2, 5)), F(1, 2))
        assert tau_step(params, (0, 0)) == (0, 0)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            tau_step(SrsParams((F(1, 2),)), (1, 2))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SrsParams((F(1, 2),), F(1))
        with pytest.raises(ValueError):
            SrsParams(())


class TestBridge:
    def test_forward(self):
        assert cns_to_srs(parse_poly(Z, "3x^2-2x+5")) == (F(3, 5), F(-2, 5))
        assert cns_to_srs(parse_poly(Z, "x+2")) == (F(1, 2),)

    def test_backward(self):
        modulus, digits = srs_to_cns(SrsParams((F(3, 5), F(-2, 5))))
        assert modulus.coeffs == (5, -2, 3)
        assert digits == (0, 1, 2, 3, 4)

    def test_backward_with_offset(self):
        modulus, digits = srs_to_cns(SrsParams((F(3, 5), F(-2, 5)), F(1, 2)))
        assert modulus.coeffs == (5, -2, 3)
        assert digits == (-2, -1, 0, 1, 2)

    def test_roundtrip(self):
        rng = random.Random(6)
        for _ in range(100):
            d = rng.randint(1, 3)
            r = tuple(
                F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)
            )
            if r[0] == 0:
                continue
            params = SrsParams(r)
            modulus, _ = srs_to_cns(params)
            assert cns_to_srs(modulus) == params.r

    def test_integer_formulas_match_fractions(self):
        # the coefficients r_i * p0 and the digit start ceil(-eps * p0) in
        # Fraction arithmetic, against the integer formulas of srs_to_cns
        rng = random.Random(11)
        for _ in range(300):
            d = rng.randint(1, 3)
            r = tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d))
            if r[0] == 0:
                continue
            eps = rng.choice((F(0), F(1, 2)))
            modulus, digits = srs_to_cns(SrsParams(r, eps))
            p0 = math.lcm(*(x.denominator for x in r))
            assert modulus.coeffs == (p0,) + tuple(int(x * p0) for x in reversed(r))
            start = math.ceil(-eps * p0)
            assert digits == tuple(range(start, start + p0))
            assert epsilon_digit_set(-p0, eps) == digits

    def test_roundtrip_from_poly(self):
        modulus, _ = srs_to_cns(SrsParams(cns_to_srs(parse_poly(Z, "6x+4"))))
        # the canonical representative clears common factors
        assert cns_to_srs(modulus) == cns_to_srs(parse_poly(Z, "6x+4"))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            srs_to_cns(SrsParams((F(0), F(0))))

    def test_digit_set_bounded_by_the_enumeration_limit(self):
        # |p0| digits are listed, so a larger common denominator is refused
        # before the digit tuple is built
        _, digits = srs_to_cns(SrsParams((F(1, MAX_ENUMERATION),)))
        assert len(digits) == MAX_ENUMERATION
        start = time.perf_counter()
        for r in ((F(1, MAX_ENUMERATION + 1),), (F(1, 10**8),), (F(1, 2**20), F(3, 2**20 - 1))):
            with pytest.raises(ValueError, match="enumeration limit"):
                srs_to_cns(SrsParams(r))
            with pytest.raises(ValueError, match="enumeration limit"):
                srs_classify(SrsParams(r))
        assert time.perf_counter() - start < 1.0


class TestDominantCondition:
    def test_examples(self):
        assert dominant_condition(parse_poly(Z, "2x+3"))
        assert not dominant_condition(parse_poly(Z, "3x^2-2x+5"))
        assert dominant_condition(parse_poly(Z, "3x^2+4x+5"))
        assert not dominant_condition(parse_poly(Z, "5x^2+3x+5"))

    def test_strict_first_inequality(self):
        # with p1 = p0 the parameter vector ends in 1 and e.g. the basis
        # coordinate 1 cycles 1 -> -1 -> 1, so the chain must be strict
        assert not dominant_condition(parse_poly(Z, "2x+2"))
        system = validate_system(Z, parse_poly(Z, "2x+2"), [0, 1])
        a = system.qring.from_const(2)
        seen = [a]
        for _ in range(4):
            seen.append(system.step(seen[-1]))
        assert seen[0] == seen[2] and not seen[0].is_zero


class TestClassify:
    def test_membership_without_offset(self):
        verdict = srs_classify(SrsParams((F(3, 5), F(-2, 5))))
        assert verdict.in_d0 == "yes"
        assert verdict.in_d == "yes"

    def test_membership_with_offset(self):
        verdict = srs_classify(SrsParams((F(3, 5), F(-2, 5)), F(1, 2)))
        assert verdict.in_d0 == "no"
        assert verdict.in_d == "yes"
        cycle = verdict.tau_cycle
        assert cycle and all(any(x != 0 for x in v) for v in cycle)
        params = SrsParams((F(3, 5), F(-2, 5)), F(1, 2))
        for i, v in enumerate(cycle):
            assert tau_step(params, v) == cycle[(i + 1) % len(cycle)]

    def test_certificate_matches_direct_iteration(self):
        from digsys.srs import tau_orbit

        params = SrsParams((F(3, 5), F(-2, 5)), F(1, 2))
        verdict = srs_classify(params)
        kind, cycle = tau_orbit(params, verdict.tau_cycle[0])
        assert kind == "cycle"
        assert set(cycle) == set(verdict.tau_cycle)
        plain = SrsParams((F(3, 5), F(-2, 5)))
        assert tau_orbit(plain, (0, 1)) == ("zero", (3,))

    def test_orbit_ending_at_exactly_cap(self):
        from digsys.srs import tau_orbit

        params = SrsParams((F(1, 3), F(1, 3)))
        assert tau_orbit(params, (0, 1)) == ("zero", (2,))
        assert tau_orbit(params, (0, 1), cap=1) == ("unknown", ())
        assert tau_orbit(params, (0, 1), cap=2) == ("zero", (2,))
        assert tau_orbit(params, (0, 1), cap=3) == ("zero", (2,))
        assert tau_orbit(params, (0, 0), cap=0) == ("zero", (0,))

    def test_negative_cap_raises(self):
        from digsys.srs import tau_orbit

        params = SrsParams((F(1, 3), F(1, 3)))
        with pytest.raises(ValueError, match="cap must be at least 0"):
            tau_orbit(params, (0, 1), cap=-1)

    def test_cycle_closing_at_exactly_cap(self):
        from digsys.srs import tau_orbit

        # -4 -> 4 -> -4: the repeat is the state after 2 steps
        params = SrsParams((F(1),), F(1, 3))
        assert tau_orbit(params, (-4,)) == ("cycle", ((-4,), (4,)))
        assert tau_orbit(params, (-4,), cap=1) == ("unknown", ())
        assert tau_orbit(params, (-4,), cap=2) == ("cycle", ((-4,), (4,)))
        assert tau_orbit(params, (-4,), cap=3) == ("cycle", ((-4,), (4,)))
        # the cycle starts at its least vector whatever the start
        assert tau_orbit(params, (4,)) == ("cycle", ((-4,), (4,)))

    def test_zero_vector(self):
        verdict = srs_classify(SrsParams((F(0), F(0))))
        assert verdict.in_d0 == "yes" and verdict.in_d == "yes"

    def test_integer_parameters(self):
        # p0 = 1 leaves no digit system; tau is linear and injective instead
        for r in ((F(2),), (F(1), F(1)), (F(1), F(0)), (F(-1), F(3))):
            for eps in (F(0), F(1, 2)):
                params = SrsParams(r, eps)
                verdict = srs_classify(params)
                assert (verdict.in_d0, verdict.in_d) == ("no", "unknown"), r
                assert verdict.modulus is None and verdict.fep is None
                assert "injective" in verdict.note
                for z in ((1,) * len(r), (0,) * (len(r) - 1) + (-3,)):
                    for _ in range(20):
                        z = tau_step(params, z)
                        assert any(z), (r, z)
        assert "injective" in srs_classify(SrsParams((F(0), F(2)))).note

    def test_leading_zero_reduces(self):
        verdict = srs_classify(SrsParams((F(0), F(1, 2))))
        assert verdict.in_d0 == "yes"
        assert "leading zero" in verdict.note

    def test_epsilon_digit_set_agrees_with_residue_choice(self):
        system = validate_system(Z, parse_poly(Z, "3x^2-2x+5"), range(-2, 3))
        for value in range(-12, 13):
            e = system.digit_of(system.qring.from_const(value))
            member = [x for x in range(-2, 3) if (value - x) % 5 == 0]
            assert [e.constant] == member


class TestCorrespondence:
    def test_coordinate_step_equals_tau(self):
        from digsys import Poly

        rng = random.Random(12)
        trials = 0
        while trials < 60:
            d = rng.randint(1, 3)
            p0 = rng.randint(2, 9)
            coeffs = [p0] + [rng.randint(-6, 6) for _ in range(d)]
            if coeffs[-1] == 0:
                continue
            modulus = Poly.make(Z, coeffs)
            system = validate_system(Z, modulus, range(p0))
            params = SrsParams(cns_to_srs(modulus))
            for _ in range(25):
                z = tuple(rng.randint(-20, 20) for _ in range(d))
                assert system.coordinate_step(z) == tau_step(params, z)
            trials += 1

    def test_offset_correspondence(self):
        rng = random.Random(13)
        modulus = parse_poly(Z, "3x^2-2x+5")
        from digsys.srs import epsilon_digit_set

        for eps in (F(1, 2), F(1, 5), F(3, 10)):
            digits = epsilon_digit_set(5, eps)
            system = validate_system(Z, modulus, digits)
            params = SrsParams(cns_to_srs(modulus), eps)
            for _ in range(100):
                z = (rng.randint(-20, 20), rng.randint(-20, 20))
                assert system.coordinate_step(z) == tau_step(params, z)

    def test_dominant_implies_membership(self):
        rng = random.Random(14)
        done = 0
        while done < 25:
            d = rng.randint(1, 3)
            p0 = rng.randint(2, 6)
            rest = sorted((rng.randint(1, p0 - 1) for _ in range(d)), reverse=True)
            coeffs = [p0] + rest
            from digsys import Poly

            modulus = Poly.make(Z, coeffs)
            if not dominant_condition(modulus):
                continue
            verdict = srs_classify(SrsParams(cns_to_srs(modulus)), closure_cap=20_000)
            assert verdict.in_d0 == "yes", str(modulus)
            done += 1
