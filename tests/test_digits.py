import itertools
import random

import pytest

from digsys import Fp, GaussianInt, ValidationError, Z, ZI, parse_poly, validate_system
from digsys.digits import rotate, walk
from digsys.ffds import canonical_ff_digits

from support import (
    element_sequence,
    element_zero_cycle,
    example1,
    example1_symmetric,
    example2,
    gauss_example,
    gauss_paper_witnesses,
    rand_quot,
)

F2 = Fp(2)
F3 = Fp(3)


class TestValidation:
    def test_example1_valid(self):
        system = example1()
        assert len(system.digits) == 5
        assert system.k == 2

    def test_example2_valid_without_zero_digit(self):
        system = example2()
        assert len(system.digits) == 4
        assert not any(d.is_zero for d in system.digits)

    def test_unit_p0_rejected(self):
        with pytest.raises(ValidationError, match="unit"):
            validate_system(Z, parse_poly(Z, "x-1"), [0])

    def test_wrong_count(self):
        with pytest.raises(ValidationError, match="has 3 elements"):
            validate_system(Z, parse_poly(Z, "3x^2-2x+5"), [0, 1, 2])

    def test_duplicate_class_reported(self):
        with pytest.raises(ValidationError, match="same residue class"):
            validate_system(Z, parse_poly(Z, "3x^2-2x+5"), [0, 1, 2, 3, 8])

    def test_violations_collected(self):
        try:
            validate_system(Z, parse_poly(Z, "3x^2-2x+5"), [0, 1, 2, 3, 8])
        except ValidationError as exc:
            assert len(exc.violations) == 1

    def test_non_constant_digits_allowed(self):
        # digits may be arbitrary classes; only constant coefficients count
        P = parse_poly(Z, "x^2+5x+6")
        digits = [parse_poly(Z, t) for t in ("0", "1", "x+2", "x+3", "2x+4", "2x+5")]
        system = validate_system(Z, P, digits)
        assert not system.digits_constant
        assert system.k == 2


class TestDigitOf:
    def test_example1(self):
        system = example1()
        assert system.digit_of(system.qring.from_const(-1)) == system.qring.from_const(4)

    def test_digits_are_fixed_points(self):
        for system in (example1(), example2(), gauss_example()):
            for e in system.digits:
                assert system.digit_of(e) == e

    def test_example2_zero_class(self):
        system = example2()
        expected = system.qring.from_const(F2.parse("y^3+y"))
        assert system.digit_of(system.qring.zero) == expected


class TestStep:
    def test_example1_orbit(self):
        system = example1()
        q = system.qring
        a = q.from_const(-1)
        expected = ["3*X - 2", "3*X + 1", "3", "0"]
        for text in expected:
            a = system.step(a)
            assert q.format(a) == text

    def test_zero_digit_fixes_zero(self):
        system = example1()
        assert system.step(system.qring.zero).is_zero

    def test_example2_step_of_zero(self):
        system = example2()
        q = system.qring
        assert q.format(system.step(q.zero)) == "(y^2+y)*X + y^2"

    def test_division_identity(self):
        # A = digit(A) + X * T(A), exactly, on every example system
        rng = random.Random(42)
        for system in (example1(), example1_symmetric(), example2(), gauss_example()):
            q = system.qring
            for _ in range(300):
                a = rand_quot(rng, system)
                assert system.digit_of(a) + q.mul_x(system.step(a)) == a


class TestDigitSequence:
    def test_example1(self):
        system = example1()
        seq = system.digit_sequence(system.qring.from_const(-1))
        assert [system.qring.format(d) for d in seq.digits] == ["4", "3", "1", "3"]
        assert seq.kind == "finite" and seq.steps == 4

    def test_shifted_monomials(self):
        system = example1()
        for k in range(4):
            seq = system.digit_sequence(system.qring.parse(f"-x^{k}"))
            texts = [system.qring.format(d) for d in seq.digits]
            assert texts == ["0"] * k + ["4", "3", "1", "3"]
            assert seq.kind == "finite" and seq.steps == k + 4

    def test_symmetric_digits(self):
        system = example1_symmetric()
        seq = system.digit_sequence(system.qring.parse("-x^2"))
        assert [system.qring.format(d) for d in seq.digits] == ["0", "0", "-1"]
        assert seq.kind == "finite" and seq.steps == 3

    def test_eventually_periodic(self):
        system = example1_symmetric()
        seq = system.digit_sequence(system.qring.from_const(-3))
        assert seq.kind == "eventually-periodic"
        assert seq.preperiod == 0 and seq.period == 4

    def test_unknown_at_cap(self):
        system = validate_system(Z, parse_poly(Z, "3x+2"), [0, 1])
        seq = system.digit_sequence(system.qring.from_const(3), cap=50)
        assert seq.kind == "unknown" and seq.cap == 50

    def test_zero_is_finite_at_zero_steps(self):
        # first arrival at 0 wins even when 0 is not a digit
        for system in (example1(), example2()):
            seq = system.digit_sequence(system.qring.zero)
            assert seq.kind == "finite" and seq.steps == 0 and seq.digits == ()


class TestExpand:
    def test_shifted_expansion(self):
        system = example1()
        q = system.qring
        exp = system.expand(q.parse("-x^3"))
        assert exp.status == "finite"
        texts = [q.format(d) for d in exp.digits]
        assert texts == ["0", "0", "0", "4", "3", "1", "3"]

    def test_empty_expansion_of_zero(self):
        for system in (example1(), example2()):
            exp = system.expand(system.qring.zero)
            assert exp.status == "finite" and exp.digits == ()

    def test_linear_base(self):
        system = validate_system(Z, parse_poly(Z, "x+2"), [0, 1])
        exp = system.expand(system.qring.from_const(3))
        assert [system.qring.format(d) for d in exp.digits] == ["1", "1", "1"]
        # oracle: 1 + X + X^2 at X = -2 evaluates to 3
        assert sum(c * (-2) ** i for i, c in enumerate([1, 1, 1])) == 3

    def test_proven_non_finite(self):
        system = example1_symmetric()
        exp = system.expand(system.qring.from_const(-3))
        assert exp.status == "proven-non-finite" and exp.period == 4

    def test_expansion_evaluates_back(self):
        rng = random.Random(17)
        for system in (example1(), example2(), gauss_example()):
            for _ in range(100):
                a = rand_quot(rng, system)
                exp = system.expand(a, cap=2000)
                assert exp.status == "finite"
                assert system.evaluate(exp.digits) == a

    def test_expand_iff_finite_classification(self):
        rng = random.Random(23)
        system = example1_symmetric()
        for _ in range(150):
            a = rand_quot(rng, system)
            exp = system.expand(a, cap=2000)
            seq = system.digit_sequence(a, cap=2000)
            assert (exp.status == "finite") == (seq.kind == "finite")


class TestEvaluate:
    def test_empty_sum(self):
        assert example1().evaluate([]).is_zero

    def test_zero_cycle_identity(self):
        system = example2()
        digits = [system.qring.from_const(F2.parse(t)) for t in ("y^3+y", "1", "1", "1", "y+1")]
        assert system.evaluate(digits).is_zero


class TestZeroCycle:
    def test_trivial_when_zero_digit(self):
        for system in (example1(), gauss_example()):
            zc = system.zero_cycle()
            assert zc.period == 1 and zc.digits[0].is_zero

    def test_example2(self):
        system = example2()
        zc = system.zero_cycle()
        assert zc.period == 5
        assert [system.qring.format(d) for d in zc.digits] == ["y^3+y", "1", "1", "1", "y+1"]

    def test_concatenation_of_shortest_cycle(self):
        system = example2()
        zc = system.zero_cycle()
        stream = itertools.islice(system.digit_stream(system.qring.zero), 3 * zc.period)
        assert tuple(stream) == zc.digits * 3

    def test_short_cycle_without_zero_digit(self):
        # 2 + 1*X vanishes at X = -2, a zero cycle that is not the zero digit
        system = validate_system(Z, parse_poly(Z, "x+2"), [1, 2])
        zc = system.zero_cycle(cap=200)
        assert zc.period == 2
        assert system.evaluate(zc.digits).is_zero

    def test_absent_cycle(self):
        # the orbit of 0 under the contracting-leading-coefficient base
        # doubles in size every two steps and never returns
        system = validate_system(Z, parse_poly(Z, "3x+2"), [1, 2])
        assert system.zero_cycle(cap=200) is None


class TestWalk:
    # a hand-built map: 1 -> 2 -> 3 -> 0 (known), 4 -> 5 -> 6 -> 7 -> 5, 8 -> 8
    MAP = {1: 2, 2: 3, 3: 0, 4: 5, 5: 6, 6: 7, 7: 5, 8: 8}

    def follow(self, start, known=(0,), cap=None):
        kind, path, hit = walk(start, self.MAP.__getitem__, known, cap)
        return kind, list(path), hit

    def test_tail_into_known_state(self):
        assert self.follow(1) == ("known", [1, 2, 3], 0)

    def test_tail_into_cycle(self):
        assert self.follow(4) == ("cycle", [4, 5, 6, 7], 1)

    def test_self_loop(self):
        assert self.follow(8) == ("cycle", [8], 0)

    def test_path_holds_step_indices(self):
        _, path, _ = walk(4, self.MAP.__getitem__, (), None)
        assert path == {4: 0, 5: 1, 6: 2, 7: 3}

    def test_start_in_known(self):
        assert self.follow(3, known={3: "x"}) == ("known", [], 3)

    def test_cap_zero(self):
        assert self.follow(1, cap=0) == ("cap", [], None)
        assert self.follow(0, cap=0) == ("known", [], 0)
        assert self.follow(8, cap=0) == ("cap", [], None)

    def test_negative_cap_raises(self):
        with pytest.raises(ValueError, match="cap must be at least 0"):
            self.follow(0, cap=-1)

    def test_known_state_reached_at_exactly_cap(self):
        # 1 reaches 0 after 3 steps; the state after cap steps is examined
        assert self.follow(1, cap=2) == ("cap", [1, 2], None)
        assert self.follow(1, cap=3) == ("known", [1, 2, 3], 0)
        assert self.follow(1, cap=4) == ("known", [1, 2, 3], 0)

    def test_repeat_found_at_exactly_cap(self):
        # 4 repeats 5 after 4 steps
        assert self.follow(4, cap=3) == ("cap", [4, 5, 6], None)
        assert self.follow(4, cap=4) == ("cycle", [4, 5, 6, 7], 1)

    def test_known_is_checked_before_repeat(self):
        assert self.follow(4, known={5}) == ("known", [4], 5)

    def test_rotate(self):
        assert rotate([6, 7, 5]) == (5, 6, 7)
        assert rotate((5,)) == (5,)

    def test_rotate_under_key(self):
        assert rotate([3, -1, 2], key=abs) == (-1, 2, 3)
        assert rotate([3, -1, 2], key=lambda v: -v) == (3, -1, 2)
        # ties go to the first least state
        assert rotate([2, -1, 1], key=abs) == (-1, 1, 2)


class TestPeriodicSet:
    def test_example2_orbit_of_zero(self):
        system = example2()
        q = system.qring
        report = system.periodic_set([q.zero])
        assert report.contains_zero and not report.capped
        assert len(report.orbits) == 1
        orbit = report.orbits[0]
        assert len(orbit) == 5
        texts = {q.format(v) for v in orbit}
        assert texts == {"0", "(y^2+y)*X + y^2", "(y+1)*X + y^2", "(y+1)*X + 1", "y+1"}

    def test_zero_digit_gives_zero_loop(self):
        system = example1()
        report = system.periodic_set([system.qring.zero])
        assert report.orbits == ((system.qring.zero,),)

    def test_capped_flag_when_one_seed_hits_the_cap(self):
        system = example1()
        q = system.qring
        far = q.from_const(10**6)
        n = system.digit_sequence(far).steps
        assert n > 3
        for cap, capped in ((n - 1, True), (n, False), (n + 1, False)):
            # 0 is resolved first, so the long orbit stops at 0 after n steps
            report = system.periodic_set([far, q.zero], cap)
            assert report.capped is capped
            assert report.orbits == ((q.zero,),)
        report = system.periodic_set([q.zero], 0)
        assert report.capped

    def test_negative_cap_raises(self):
        system = example1()
        q = system.qring
        for seeds in ([q.zero, q.from_const(7)], []):
            with pytest.raises(ValueError, match="cap must be at least 0"):
                system.periodic_set(seeds, -1)

    def test_gauss_witnesses_single_orbit_with_zero(self):
        system = gauss_example()
        report = system.periodic_set(gauss_paper_witnesses(system))
        assert report.contains_zero
        assert len(report.orbits) == 1 and report.orbits[0] == (system.qring.zero,)


class TestCoordinateStep:
    def test_matches_generic_dynamics(self):
        rng = random.Random(31)
        for system in (example1(), example1_symmetric(), gauss_example()):
            q = system.qring
            d = q.d
            for _ in range(150):
                coords = tuple(
                    system.ring.coerce(rng.randint(-30, 30))
                    if system.ring == Z
                    else GaussianInt(rng.randint(-15, 15), rng.randint(-15, 15))
                    for _ in range(d)
                )
                a = q.from_coords(coords)
                stepped = system.step(a)
                rep = q.standard_representation(stepped)
                assert rep.residue == ()
                assert rep.q == system.coordinate_step(coords)

    def test_non_constant_digits(self):
        # flat coordinates with residue parts over the lead 2; a trailing
        # zero in the input is a residue part that still needs reducing
        rng = random.Random(37)
        for src, digits in (
            ("x^2+5x+6", ("0", "1", "x+2", "x+3", "2x+4", "2x+5")),
            ("2x^2-x+5", ("0", "x^3+x^2+3x+6", "x^2-x+2", "x^2-x+3", "4")),
        ):
            system = validate_system(Z, parse_poly(Z, src), [parse_poly(Z, t) for t in digits])
            assert not system.digits_constant
            q = system.qring
            for _ in range(150):
                a = rand_quot(rng, system)
                stepped = q.coords(system.step(a))
                assert system.coordinate_step(q.coords(a)) == stepped
                assert system.coordinate_step(q.coords(a) + (0,)) == stepped


def constant_digit_systems():
    ff = [
        (F2, "(y+1)x^2+y*x+(y^2+1)"),
        (F2, "(y^2+1)x^2+x+(y^2+y)"),
        (F3, "y*x+(y^2+2)"),
        (F3, "(y+1)x^3+2x+y"),
    ]
    return [
        example1(),
        example1_symmetric(),
        validate_system(Z, parse_poly(Z, "3x+2"), [0, 1]),
        validate_system(Z, parse_poly(Z, "x+2"), [1, 2]),
        validate_system(Z, parse_poly(Z, "-2x^2+x+3"), [0, 1, 2]),
        validate_system(Z, parse_poly(Z, "x^3+x+2"), [0, 1]),
        # negative p0: the divider negates its quotient
        validate_system(Z, parse_poly(Z, "2x^2+x-3"), [0, 1, 2]),
        validate_system(Z, parse_poly(Z, "x^2+3x-4"), range(4)),
        gauss_example(),
        validate_system(ZI, parse_poly(ZI, "2x^2+x+(2+i)"), range(5)),
        example2(),
    ] + [
        validate_system(ring, parse_poly(ring, src), canonical_ff_digits(parse_poly(ring, src)))
        for ring, src in ff
    ]


class TestCoordinateOrbitOracle:
    """The coordinate walk of constant digit sets against element steps."""

    def test_digit_sequence_matches_element_walk(self):
        rng = random.Random(61)
        kinds = set()
        long_residues = 0
        for system in constant_digit_systems():
            assert system.digits_constant
            q = system.qring
            starts = [q.zero] + [rand_quot(rng, system, extra_degree=4) for _ in range(25)]
            for a in starts:
                if len(q.standard_representation(a).residue) > 1:
                    long_residues += 1
                for cap in (1, 2, 50):
                    seq = system.digit_sequence(a, cap)
                    assert seq == element_sequence(system, a, cap)
                    kinds.add(seq.kind)
        assert kinds == {"finite", "eventually-periodic", "unknown"}
        assert long_residues > 20

    def test_zero_cycle_matches_element_walk(self):
        found = 0
        for system in constant_digit_systems():
            for cap in (1, 2, 3, 5, 50):
                zc = system.zero_cycle(cap)
                assert zc == element_zero_cycle(system, cap)
                found += zc is not None and zc.period > 1
        assert found > 0

class TestSampledImplications:
    def test_fep_implies_pep_on_samples(self):
        # where all sampled expansions are finite, no orbit is proven non-finite
        rng = random.Random(53)
        system = example1()
        outcomes = {system.expand(rand_quot(rng, system), cap=2000).status for _ in range(200)}
        assert outcomes == {"finite"}

    def test_zero_cycles_evaluate_to_zero_when_fep(self):
        for system in (example1(), example2(), gauss_example()):
            zc = system.zero_cycle()
            assert system.evaluate(zc.digits).is_zero
