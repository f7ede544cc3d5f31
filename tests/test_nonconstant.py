"""Digit sets that are not constant in x: digit sequences, zero cycles,
witness closures and verdicts, which run on flat standard-representation
coordinates, against stepping the elements with ``system.step``."""

import random

import pytest

from digsys import (
    Fp,
    GaussianInt,
    Poly,
    Z,
    ZI,
    decide_fep,
    decide_pep,
    parse_poly,
    product_digit_set,
    seed_witnesses,
    validate_system,
    witness_closure,
)

from support import (
    assert_closure_matches_bfs,
    element_orbit_statuses,
    element_sequence,
    element_zero_cycle,
    rand_quot,
    rand_ring_elem,
)

F2, F3 = Fp(2), Fp(3)
# the element BFS oracle is slow, so closures are compared at a lower cap
# than the verdicts
CLOSURE_CAP, CAP = 100, 300

# monic and non-monic leads over each ring; the leads that are not units
# give canonical forms a tail, and the x^4 bases take digits of x-degree 3
# below deg P
BASES = [
    (Z, "x^2-x+4"),
    (Z, "x^4+x+3"),
    (Z, "2x^2-x+5"),
    (Z, "2x^3+x+5"),
    (Z, "3x+2"),
    (ZI, "x^2+x+(2+i)"),
    (ZI, "(1+i)x^2+x+(2+2i)"),
    (ZI, "(1+i)x+(1+2i)"),
    (F2, "x^2+y*x+(y^2+y+1)"),
    (F2, "(y+1)x^2+y*x+(y^2+1)"),
    (F2, "x^4+y*x+(y^2+y+1)"),
    (F3, "x^2+(y+1)x+(y^2+2)"),
    (F3, "y*x^3+x+(y^2+1)"),
]


def random_digits(rng, ring, modulus):
    """One digit r + k*p0 + x*g per residue r of p0, with g of x-degree at
    most 2 and small coefficients, or g = 0."""
    p0 = modulus.constant
    digits = []
    for r in ring.residues(p0):
        k = rand_ring_elem(rng, ring, 1) if rng.random() < 0.3 else ring.zero
        g = [rand_ring_elem(rng, ring, 1) for _ in range(rng.randint(1, 3))]
        digits.append(Poly.make(ring, [r + k * p0] + (g if rng.random() < 0.5 else [])))
    return digits


@pytest.fixture(scope="module")
def systems():
    """Two seeded digit sets per base, each with a digit that is not
    constant, and product systems, whose combined digits d1 + d2*P1 are
    not constant either and which have the finite expansion property."""
    rng = random.Random(20261018)
    out = []
    for ring, src in BASES:
        modulus = parse_poly(ring, src)
        for _ in range(2):
            system = validate_system(ring, modulus, random_digits(rng, ring, modulus))
            while system.digits_constant:
                system = validate_system(ring, modulus, random_digits(rng, ring, modulus))
            out.append(system)
    for ring, src1, digits1, src2, digits2 in (
        (F2, "x+y", [0, 1], "x+(y+1)", [0, 1]),
        (F3, "x+y", [0, 1, 2], "x+(y+2)", [0, 1, 2]),
        (ZI, "x+(2+i)", range(5), "x+(1+2i)", range(5)),
        (Z, "x-2", [0, 1], "x+3", [-1, 0, 1]),
    ):
        p1, p2 = parse_poly(ring, src1), parse_poly(ring, src2)
        out.append(product_digit_set(ring, p1, digits1, p2, digits2).combined)
    assert not any(system.digits_constant for system in out)
    assert sum(max(e.x_degree for e in system.digits) == 3 for system in out) >= 3
    return out


def basis_seeds(system):
    """The basis w_0..w_{d-1} with inverses, and i-multiples over Z[i]: the
    seeds of the reduction theorem, which ``seed_witnesses`` offers for
    constant digit sets only."""
    gens = list(system.qring.brunotte_basis())
    if system.ring == ZI:
        gens += [g * GaussianInt(0, 1) for g in gens]
    return {s for g in gens for s in (g, -g)}


def test_digit_sequences_match_element_walk(systems):
    rng = random.Random(71)
    kinds = set()
    residues = 0
    for system in systems:
        q = system.qring
        for a in [q.zero] + [rand_quot(rng, system, extra_degree=3, size=5) for _ in range(8)]:
            residues += len(q.coords(a)) > q.d
            for cap in (1, 2, 50):
                seq = system.digit_sequence(a, cap)
                assert seq == element_sequence(system, a, cap), system
                kinds.add(seq.kind)
    assert kinds == {"finite", "eventually-periodic", "unknown"}
    assert residues >= 20


def test_zero_cycles_match_element_walk(systems):
    found = 0
    for system in systems:
        for cap in (1, 3, 50):
            zc = system.zero_cycle(cap)
            assert zc == element_zero_cycle(system, cap), system
            found += zc is not None and zc.period > 1
    assert found >= 3


def test_closures_match_element_bfs(systems):
    counts = {"stabilized": 0, "capped": 0, "residue parts": 0}
    for system in systems:
        q = system.qring
        for seed in (basis_seeds(system), seed_witnesses(system, "power")):
            closure = witness_closure(system, seed, CLOSURE_CAP)
            assert_closure_matches_bfs(system, seed, CLOSURE_CAP, closure)
            stabilized = closure.stabilized
            assert closure.members == {q.coords(x) for x in closure.elements}
            for v in closure.members:
                assert q.coords(q.from_coords(v)) == v
            if stabilized:
                assert set(closure.succ) == closure.members
            for v, w in closure.succ.items():
                assert q.from_coords(w) == system.step(q.from_coords(v)), system
            counts["stabilized" if stabilized else "capped"] += 1
            counts["residue parts"] += any(len(v) > q.d for v in closure.members)
    assert min(counts.values()) >= 5, counts


def test_verdicts_match_element_statuses(systems):
    answers = {"yes": 0, "no": 0, "unknown": 0}
    for system in systems:
        q = system.qring
        fep, pep = decide_fep(system, CAP), decide_pep(system, CAP)
        closure = witness_closure(system, seed_witnesses(system, "power"), CAP)
        answers[fep.answer] += 1
        assert fep.certificate["mode"] == pep.certificate["mode"] == "power"
        if not closure.stabilized:
            assert fep.answer == pep.answer == "unknown"
            assert fep.certificate["cap"] == pep.certificate["cap"] == CAP
            continue
        assert pep.answer == "yes" and pep.certificate["rounds"] == closure.rounds
        status, cycles = element_orbit_statuses(system, closure.elements)
        if cycles:
            assert fep.answer == "no", system
            assert fep.certificate["cycle"] == min(cycles, key=lambda c: q.sort_key(c[0]))
        else:
            assert fep.answer == "yes", system
            steps = dict(fep.certificate["orbit_steps"])
            assert steps == {x: status[x][1] for x in closure.elements}
    assert answers["yes"] >= 3 and answers["no"] >= 5 and answers["unknown"] >= 3, answers
