import random
import tracemalloc

import pytest

from digsys import (
    Fp,
    Poly,
    Z,
    canonical_ff_digits,
    convert_expansion,
    decide_fep,
    ff_criterion,
    parse_poly,
    phi_chain,
    phi_window_map,
    prove_fep_via_zero_cycle,
    validate_system,
)
from digsys.ffds import _PhiRewriter
from digsys.rings import MAX_ENUMERATION

from support import example2, rand_poly, rand_ring_elem, rescanning_convert

F2 = Fp(2)
F3 = Fp(3)


def e2(text):
    return F2.parse(text)


class TestCriterion:
    def test_example2_base(self):
        crit = ff_criterion(parse_poly(F2, "(y+1)x^2+y*x+(y^2+1)"))
        assert crit.fep and crit.pep
        assert crit.max_degree == 1 and crit.p0_degree == 2

    def test_periodic_only(self):
        crit = ff_criterion(parse_poly(F2, "y*x+y"))
        assert not crit.fep and crit.pep

    def test_neither(self):
        crit = ff_criterion(parse_poly(F2, "y^2*x+y"))
        assert not crit.fep and not crit.pep

    def test_unit_p0_rejected(self):
        with pytest.raises(ValueError):
            ff_criterion(parse_poly(F2, "y*x+1"))
        with pytest.raises(ValueError):
            ff_criterion(parse_poly(Z, "2x+3"))


class TestCanonicalDigits:
    def test_degree_two(self):
        digits = canonical_ff_digits(parse_poly(F2, "(y+1)x^2+y*x+(y^2+1)"))
        assert [F2.format(d) for d in digits] == ["0", "1", "y", "y+1"]

    def test_constants(self):
        digits = canonical_ff_digits(parse_poly(F3, "x+y"))
        assert [F3.format(d) for d in digits] == ["0", "1", "2"]

    def test_degree_three(self):
        digits = canonical_ff_digits(parse_poly(F2, "x+(y^3+y)"))
        assert len(digits) == 8
        assert all(d.degree < 3 for d in digits)


class TestWindowMap:
    def test_paper_arrows(self):
        system = example2()
        zc = system.zero_cycle()
        state = tuple(e2(t) for t in ("1", "0", "y", "1"))
        nxt = phi_window_map(system, zc, state)
        assert nxt == tuple(e2(t) for t in ("0", "y", "1", "0"))
        nxt2 = phi_window_map(system, zc, nxt)
        assert nxt2 == tuple(e2(t) for t in ("y+1", "0", "1", "y+1"))

    def test_all_zero_window(self):
        system = example2()
        zc = system.zero_cycle()
        state = (F2.zero,) * 4
        assert phi_window_map(system, zc, state) == tuple(
            e2(t) for t in ("1", "1", "1", "y+1")
        )

    def test_alphabet_escape_raises(self):
        system = example2()
        bad_cycle = [e2(t) for t in ("y^3+y", "y^3", "1", "1", "y+1")]
        with pytest.raises(ValueError, match="leaves the digit alphabet"):
            phi_window_map(system, bad_cycle, tuple(e2(t) for t in ("0", "1", "1", "1")))

    def test_window_length_check(self):
        system = example2()
        zc = system.zero_cycle()
        with pytest.raises(ValueError):
            phi_window_map(system, zc, (F2.zero,) * 3)


class TestChain:
    def test_eleven_steps_to_zero(self):
        system = example2()
        zc = system.zero_cycle()
        start = tuple(e2(t) for t in ("1", "0", "y", "1"))
        chain = phi_chain(system, zc, start)
        assert len(chain) - 1 == 11
        assert chain[-1] == (F2.zero,) * 4

    def test_chain_states(self):
        system = example2()
        zc = system.zero_cycle()
        start = tuple(e2(t) for t in ("1", "0", "y", "1"))
        chain = phi_chain(system, zc, start)
        texts = [tuple(F2.format(c) for c in st) for st in chain]
        assert texts == [
            ("1", "0", "y", "1"),
            ("0", "y", "1", "0"),
            ("y+1", "0", "1", "y+1"),
            ("0", "1", "y+1", "0"),
            ("0", "y", "1", "y+1"),
            ("y+1", "0", "y", "y+1"),
            ("0", "y", "y+1", "0"),
            ("y+1", "y", "1", "y+1"),
            ("y", "1", "y+1", "0"),
            ("1", "y+1", "0", "0"),
            ("y+1", "0", "0", "0"),
            ("0", "0", "0", "0"),
        ]

    def test_cap_boundary(self):
        # the chain from this window reaches the zero window in 11 steps
        system = example2()
        zc = system.zero_cycle()
        start = tuple(e2(t) for t in ("1", "0", "y", "1"))
        with pytest.raises(ValueError, match="within the cap"):
            phi_chain(system, zc, start, cap=10)
        assert len(phi_chain(system, zc, start, cap=11)) == 12
        assert len(phi_chain(system, zc, start, cap=12)) == 12

    def test_wrong_window_length_raises(self):
        # example 2 has zero period 5, so windows have length 4
        system = example2()
        zc = system.zero_cycle()
        for start in ((e2("1"), F2.zero), (F2.zero,) * 6, ()):
            with pytest.raises(ValueError, match="window of length 4"):
                phi_chain(system, zc, start)

    def test_negative_cap_raises(self):
        system = example2()
        zc = system.zero_cycle()
        start = tuple(e2(t) for t in ("1", "0", "y", "1"))
        with pytest.raises(ValueError, match="cap must be at least 0"):
            phi_chain(system, zc, start, cap=-1)

    def test_cycling_window_raises_at_the_repeat(self, monkeypatch):
        # over F2, x + y with digits {1, y^2+y}: the window (0, 1) maps to itself
        system = validate_system(F2, parse_poly(F2, "x + y"), [e2("1"), e2("y^2+y")])
        zc = system.zero_cycle()
        start = (F2.zero, F2.one)
        assert phi_window_map(system, zc, start) == start
        calls = []
        step = _PhiRewriter.step
        monkeypatch.setattr(
            _PhiRewriter, "step", lambda self, state: calls.append(state) or step(self, state)
        )
        with pytest.raises(ValueError, match="cycles"):
            phi_chain(system, zc, start)
        assert calls == [start]


class TestProveFep:
    def test_example2(self):
        system = example2()
        canonical = canonical_ff_digits(system.modulus)
        verdict = prove_fep_via_zero_cycle(system, canonical)
        assert verdict.answer == "yes"
        assert verdict.window_length == 4
        assert len(verdict.reach_steps) == 4**4
        assert all(steps >= 0 for steps in verdict.reach_steps.values())

    def test_reach_steps_match_chains(self):
        system = example2()
        verdict = prove_fep_via_zero_cycle(system, canonical_ff_digits(system.modulus))
        for start, steps in verdict.reach_steps.items():
            assert len(phi_chain(system, verdict.zero_cycle, start)) == steps + 1

    def test_trivial_when_zero_digit(self):
        system = validate_system(
            F2, parse_poly(F2, "x^2+y*x+(y^2+1)"), canonical_ff_digits(parse_poly(F2, "x+(y^2+1)"))
        )
        canonical = canonical_ff_digits(system.modulus)
        verdict = prove_fep_via_zero_cycle(system, canonical)
        assert verdict.answer == "yes"
        assert verdict.window_length == 0

    def test_rejects_wrong_auxiliary(self):
        system = example2()
        with pytest.raises(ValueError, match="canonical"):
            prove_fep_via_zero_cycle(system, [e2("0"), e2("1"), e2("y"), e2("y^2")])

    def test_rejects_failing_degree_test(self):
        digits = [e2(t) for t in ("1", "y")]
        system = validate_system(F2, parse_poly(F2, "(y^2+1)x+y"), digits)
        with pytest.raises(ValueError, match="degree test"):
            prove_fep_via_zero_cycle(system, canonical_ff_digits(system.modulus))

    def test_positive_verdict_backed_by_generic_dynamics(self):
        rng = random.Random(41)
        system = example2()
        verdict = prove_fep_via_zero_cycle(system, canonical_ff_digits(system.modulus))
        assert verdict.answer == "yes"
        for _ in range(500):
            a = system.qring.normalize(rand_poly(rng, F2, 5))
            assert system.expand(a, cap=5000).status == "finite"

    def test_window_cycle_gives_no(self):
        system = validate_system(F2, parse_poly(F2, "x + y"), [e2("1"), e2("y^2+y")])
        verdict = prove_fep_via_zero_cycle(system, canonical_ff_digits(system.modulus))
        assert verdict.answer == "no"
        # zero cycle y^2+y, 1, 1: windows of length 2
        assert verdict.window_length == 2
        assert verdict.cycle == ((F2.zero, F2.one),)
        for i, state in enumerate(verdict.cycle):
            nxt = verdict.cycle[(i + 1) % len(verdict.cycle)]
            assert phi_window_map(system, verdict.zero_cycle, state) == nxt

    def test_alphabet_escape_gives_unknown(self):
        system = validate_system(F2, parse_poly(F2, "x^2 + x + y"), [e2("1"), e2("y^2")])
        verdict = prove_fep_via_zero_cycle(system, canonical_ff_digits(system.modulus))
        assert verdict.answer == "unknown"
        assert "window sum y^2+1 leaves the digit alphabet" in verdict.reason
        assert verdict.cycle == () and verdict.reach_steps == {}

    def test_window_count_is_bounded(self):
        # zero period 9 gives 9^8 = 43,046,721 windows of length 8: answered
        # "unknown" before any window is listed or walked
        modulus = parse_poly(F3, "(y+1)x^3 + (y^2+2y+1)")
        canonical = canonical_ff_digits(modulus)
        digits = [d for d in canonical if d] + [F3.parse("y^3+2y^2+y")]
        system = validate_system(F3, modulus, digits)
        tracemalloc.start()
        try:
            verdict = prove_fep_via_zero_cycle(system, canonical)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.answer == "unknown" and verdict.window_length == 8
        assert len(verdict.zero_cycle) == 9
        want = f"43046721 windows of length 8, more than the enumeration limit {MAX_ENUMERATION}"
        assert want in verdict.reason
        assert peak < 4 * 2**20
        # the proofs perfbench's decide_ff runs have up to 4096 windows
        assert MAX_ENUMERATION >= 4096


class TestConvert:
    def test_zero_empty(self):
        system = example2()
        out = convert_expansion(system, system.qring.zero, canonical_ff_digits(system.modulus))
        assert out.status == "finite" and out.digits == ()

    def test_all_nonzero_unchanged(self):
        system = example2()
        canonical = canonical_ff_digits(system.modulus)
        a = system.qring.from_const(e2("y+1"))
        out = convert_expansion(system, a, canonical)
        assert out.status == "finite" and out.rounds == 0
        assert [system.qring.format(d) for d in out.digits] == ["y+1"]

    def test_x_rewrites_and_reevaluates(self):
        system = example2()
        canonical = canonical_ff_digits(system.modulus)
        out = convert_expansion(system, system.qring.x, canonical)
        assert out.status == "finite" and out.rounds > 0
        assert system.evaluate(out.digits) == system.qring.x
        target = set(system.digits)
        assert all(d in target for d in out.digits)

    def test_random_conversions(self):
        rng = random.Random(29)
        system = example2()
        canonical = canonical_ff_digits(system.modulus)
        target = set(system.digits)
        for _ in range(60):
            f = rand_poly(rng, F2, 4)
            a = system.qring.normalize(f)
            out = convert_expansion(system, a, canonical, cap=5000)
            assert out.status == "finite"
            assert system.evaluate(out.digits) == a
            assert all(d in target for d in out.digits)


    def test_matches_rescanning_oracle(self):
        # seeded F2 and F3 elements of x-degree up to 400, whose
        # expansions run past 200 digits, and a cap that stops rewriting:
        # the search from the last rewrite gives what the search from
        # position 0 gives
        f3_system = validate_system(
            F3, parse_poly(F3, "(y+1)x^2+x+(y^2+2)"),
            [F3.parse(t) for t in "1,2,y,y+1,y+2,2y,2y+1,2y+2,y^3+2y".split(",")],
        )
        rng = random.Random(43)
        longest, kinds = 0, set()
        for system in (example2(), f3_system):
            canonical = canonical_ff_digits(system.modulus)
            for degree in [0, 1, 3, 40] + [rng.randint(150, 400) for _ in range(12)]:
                coeffs = [rand_ring_elem(rng, system.ring) for _ in range(degree)]
                f = Poly.make(system.ring, coeffs + [system.ring.one])
                for cap in (5, 400):
                    out = convert_expansion(system, f, canonical, cap=cap)
                    assert out == rescanning_convert(system, f, canonical, cap), (system, degree)
                    longest = max(longest, len(out.digits))
                    kinds.add(out.status)
        assert longest >= 200 and kinds == {"finite", "unknown"}, (longest, kinds)


class TestCrossOracle:
    def test_small_sample_agreement(self):
        from support import rand_ff_modulus

        rng = random.Random(37)
        checked = 0
        attempts = 0
        while checked < 25 and attempts < 300:
            attempts += 1
            ring = F2 if rng.random() < 0.5 else F3
            modulus = rand_ff_modulus(rng, ring, max_dx=2, max_dy=2)
            crit = ff_criterion(modulus)
            system = validate_system(ring, modulus, canonical_ff_digits(modulus))
            verdict = decide_fep(system, closure_cap=400)
            if verdict.answer != "unknown":
                assert (verdict.answer == "yes") == crit.fep, str(modulus)
                checked += 1
        assert checked == 25
