"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  All arithmetic is exact; every asserted value is
either reproduced from the worked examples or recomputed through an
independent route inside the test.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from digsys import (
    Fp,
    GaussianInt,
    Poly,
    SrsParams,
    Z,
    canonical_ff_digits,
    decide_fep,
    dominant_condition,
    euclidean_necessary_check,
    expanding_check,
    ff_criterion,
    orbit_graph,
    parse_poly,
    phi_chain,
    prove_fep_via_zero_cycle,
    product_digit_set,
    product_expand,
    seed_witnesses,
    srs_classify,
    tau_step,
    validate_system,
    verify_witness_set,
)

from support import (
    coupled_product_expand,
    example1,
    example1_symmetric,
    example2,
    gauss_example,
    gauss_paper_witnesses,
    rand_ff_modulus,
    rand_poly,
    rand_quot,
)

F2 = Fp(2)
F3 = Fp(3)


@contextmanager
def criterion(number, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"FAIL criterion {number}: {description} (took {elapsed:.2f}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget}s budget")
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_integer_example():
    with criterion(1, "integer base 3x^2-2x+5 worked example", budget=1.0):
        system = example1()
        q = system.qring

        seq = system.digit_sequence(q.from_const(-1))
        assert [q.format(d) for d in seq.digits] == ["4", "3", "1", "3"]
        assert seq.kind == "finite" and seq.steps == 4

        exp = system.expand(q.parse("-x^3"))
        assert exp.status == "finite"
        assert [q.format(d) for d in exp.digits] == ["0", "0", "0", "4", "3", "1", "3"]
        assert system.evaluate(exp.digits) == q.parse("-x^3")

        sym = example1_symmetric()
        seq2 = sym.digit_sequence(sym.qring.parse("-x^2"))
        assert [sym.qring.format(d) for d in seq2.digits] == ["0", "0", "-1"]
        assert seq2.kind == "finite" and seq2.steps == 3


def test_criterion_2_finite_field_example():
    with criterion(2, "F2[y] system without zero digit", budget=5.0):
        system = example2()
        q = system.qring

        zc = system.zero_cycle()
        assert [q.format(d) for d in zc.digits] == ["y^3+y", "1", "1", "1", "y+1"]
        assert zc.period == 5

        report = system.periodic_set([q.zero])
        assert report.contains_zero and len(report.orbits) == 1
        orbit_texts = {q.format(v) for v in report.orbits[0]}
        assert orbit_texts == {
            "0",
            "(y^2+y)*X + y^2",
            "(y+1)*X + y^2",
            "(y+1)*X + 1",
            "y+1",
        }

        verdict = prove_fep_via_zero_cycle(system, canonical_ff_digits(system.modulus))
        assert verdict.answer == "yes"

        start = tuple(F2.parse(t) for t in ("1", "0", "y", "1"))
        chain = phi_chain(system, zc, start)
        assert len(chain) - 1 == 11
        assert chain[-1] == (F2.zero,) * 4


def test_criterion_3_gaussian_example():
    with criterion(3, "Gaussian witness set example", budget=1.0):
        system = gauss_example()
        q = system.qring

        report = expanding_check(system.modulus)
        assert report.status == "expanding"
        assert report.modulus_sq == Fraction(5, 2)

        seeds = seed_witnesses(system, "brunotte")
        paper = gauss_paper_witnesses(system)
        ok, violations = verify_witness_set(system, paper, seeds)
        assert ok and violations == []

        v = q.from_const(GaussianInt(3, -1))
        images = {q.format(system.step(v + e)) for e in system.digits}
        assert images == {"-1+i", "-4+2i"}

        graph = orbit_graph(system, paper)
        succ = {q.format(a): q.format(b) for a, b in graph.edges()}
        for src, dst in [
            ("-4+2i", "2-2i"),
            ("2-2i", "1+i"),
            ("1+i", "1-i"),
            ("1-i", "2"),
            ("2", "0"),
        ]:
            assert succ[src] == dst

        assert decide_fep(system).answer == "yes"


def test_criterion_4_srs_memberships():
    with criterion(4, "shift-radix memberships of (3/5, -2/5)", budget=5.0):
        plain = srs_classify(SrsParams((Fraction(3, 5), Fraction(-2, 5))))
        assert plain.in_d0 == "yes"

        offset_params = SrsParams((Fraction(3, 5), Fraction(-2, 5)), Fraction(1, 2))
        offset = srs_classify(offset_params)
        assert offset.in_d0 == "no"
        assert offset.in_d == "yes"
        cycle = offset.tau_cycle
        assert cycle, "a counterexample cycle must be exhibited"
        assert all(any(x != 0 for x in z) for z in cycle)
        for i, z in enumerate(cycle):
            assert tau_step(offset_params, z) == cycle[(i + 1) % len(cycle)]


def test_criterion_5_degree_criterion_cross_oracle():
    with criterion(5, "degree criterion vs witness search on 200 random systems"):
        rng = random.Random(2024)
        definitive = 0
        for i in range(200):
            ring = F2 if i % 2 == 0 else F3
            modulus = rand_ff_modulus(rng, ring, max_dx=3, max_dy=3)
            crit = ff_criterion(modulus)
            system = validate_system(ring, modulus, canonical_ff_digits(modulus))
            verdict = decide_fep(system, closure_cap=800)
            if verdict.answer == "unknown":
                continue
            definitive += 1
            assert (verdict.answer == "yes") == crit.fep, str(modulus)
        assert definitive >= 50  # the comparison must actually exercise both sides


def test_criterion_6_monotone_coefficient_systems():
    with criterion(6, "monotone positive coefficient chains all decide yes"):
        rng = random.Random(66)
        for _ in range(100):
            d = rng.randint(1, 3)
            p0 = rng.randint(2, 6)
            rest = sorted([rng.randint(1, p0 - 1) for _ in range(d)], reverse=True)
            modulus = Poly.make(Z, [p0] + rest)
            assert dominant_condition(modulus)
            system = validate_system(Z, modulus, range(p0))
            assert decide_fep(system, closure_cap=50_000).answer == "yes", str(modulus)


def test_criterion_7_necessary_condition():
    with criterion(7, "large leading coefficients never decide yes"):
        rng = random.Random(77)
        for _ in range(50):
            d = rng.randint(1, 3)
            a0 = rng.randint(2, 5) * rng.choice([1, -1])
            lead = rng.randint(abs(a0), abs(a0) + 3) * rng.choice([1, -1])
            mid = [rng.randint(-4, 4) for _ in range(d - 1)]
            modulus = Poly.make(Z, [a0] + mid + [lead])
            digits = [0] + [
                c if rng.random() < 0.5 else c - abs(a0) for c in range(1, abs(a0))
            ]
            system = validate_system(Z, modulus, digits)

            early = euclidean_necessary_check(system)
            assert early is not None and early.answer == "no"

            assert decide_fep(system, closure_cap=300).answer != "yes"

            coords = tuple([1] + [0] * (d - 1))  # the basis element p_d
            for _ in range(10_000):
                coords = system.coordinate_step(coords)
                assert any(c != 0 for c in coords)


def test_criterion_8_product_streams():
    with criterion(8, "product expansion equals the coupled recurrence"):
        rng = random.Random(88)
        psys = product_digit_set(
            Z, parse_poly(Z, "x+2"), [0, 1], parse_poly(Z, "x+3"), [0, 1, 2]
        )
        combined = psys.combined
        for _ in range(100):
            f = rand_poly(rng, Z, 5, size=40)
            expansion = product_expand(psys, f, cap=5000)
            assert expansion.status == "finite"
            assert expansion == coupled_product_expand(psys, f, cap=5000)
            assert combined.evaluate(expansion.digits) == combined.qring.normalize(f)
        assert decide_fep(combined).answer == "yes"


def test_criterion_9_invariant_suites():
    with criterion(9, "exact identities on random samples"):
        rng = random.Random(99)
        systems = [example1(), example1_symmetric(), example2(), gauss_example()]

        # division identity A = digit(A) + X*T(A), 10^4 elements per system
        for system in systems:
            q = system.qring
            for _ in range(10_000):
                a = rand_quot(rng, system, extra_degree=3, size=25)
                assert system.digit_of(a) + q.mul_x(system.step(a)) == a

        # canonical form is constant on cosets, 10^4 (f, Q) pairs
        mods = [example1().qring, example2().qring, gauss_example().qring]
        for i in range(10_000):
            q = mods[i % 3]
            f = rand_poly(rng, q.ring, q.d + 4, size=25)
            mult = rand_poly(rng, q.ring, 3, size=9)
            assert q.normalize(f) == q.normalize(f + mult * q.modulus)

        # standard representation round-trips, 10^4 elements
        for i in range(10_000):
            q = mods[i % 3]
            a = q.normalize(rand_poly(rng, q.ring, q.d + 4, size=25))
            rep = q.standard_representation(a)
            assert q.reconstruct(rep) == a

        # coordinate form of the dynamics agrees with T, 10^3 vectors
        coord_systems = [example1(), example1_symmetric(), gauss_example()]
        for i in range(1_000):
            system = coord_systems[i % 3]
            q = system.qring
            if system.ring == Z:
                coords = tuple(rng.randint(-40, 40) for _ in range(q.d))
            else:
                coords = tuple(
                    GaussianInt(rng.randint(-20, 20), rng.randint(-20, 20))
                    for _ in range(q.d)
                )
            a = q.from_coords(coords)
            rep = q.standard_representation(system.step(a))
            assert rep.residue == ()
            assert rep.q == system.coordinate_step(coords)


# x^2 + bx + c, digits 0..c-1, on the grid c = 2..15, b = -6..c+5 at
# closure cap 100: for each c, the b whose closures cross the cap.  They are
# the b > c and b < -c, whose bases have a real root in [-1, 0) or (0, 1].
# Deciding one of them is a declared change of this list.
QUADRATIC_UNKNOWN = {
    2: (-6, -5, -4, -3, 3, 4, 5, 6, 7),
    3: (-6, -5, -4, 4, 5, 6, 7, 8),
    4: (-6, -5, 5, 6, 7, 8, 9),
    5: (-6, 6, 7, 8, 9, 10),
    **{c: tuple(range(c + 1, c + 6)) for c in range(6, 16)},
}


def test_criterion_10_published_classifications():
    with criterion(10, "quadratic CNS grid against Katai-Kovacs", budget=1.0):
        # Katai and Kovacs (Acta Sci. Math. Szeged 42, 1980), Gilbert (J. Math.
        # Anal. Appl. 83, 1981): x^2 + bx + c, c >= 2, with digits 0..c-1 has
        # the finite expansion property iff -1 <= b <= c
        answers, unknown = {"yes": 0, "no": 0, "unknown": 0}, {}
        for c in range(2, 16):
            for b in range(-6, c + 6):
                system = validate_system(Z, Poly.make(Z, [c, b, 1]), range(c))
                verdict = decide_fep(system, closure_cap=100)
                answers[verdict.answer] += 1
                if verdict.answer == "unknown":
                    unknown.setdefault(c, []).append(b)
                else:
                    assert (verdict.answer == "yes") == (-1 <= b <= c), (b, c, verdict)
        assert {c: tuple(bs) for c, bs in unknown.items()} == QUADRATIC_UNKNOWN
        assert answers == {"yes": 147, "no": 60, "unknown": 80}
