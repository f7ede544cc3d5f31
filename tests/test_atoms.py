"""The atom form of the dynamics: flat coordinates held as the values
over Z, as plain ``(re, im)`` int pairs over Z[i] and as packed ints over
F_p[y], stepped and closed by ``Ring.dynamics``; the Z[i] systems here
against the element oracles of ``support``, which step elements with
``system.step`` (the F_p[y] systems in ``test_fp_atoms``)."""

import itertools
import random

import pytest

from digsys import (
    Fp,
    FpPoly,
    GaussianInt,
    Poly,
    Z,
    ZI,
    decide_fep,
    decide_pep,
    expanding_check,
    parse_poly,
    seed_witnesses,
    validate_system,
    witness,
    witness_closure,
)

from support import (
    bfs_closure,
    element_orbit_statuses,
    element_periodic_set,
    element_sequence,
    example1,
    example1_symmetric,
    gauss_example,
    rand_quot,
    rand_ring_elem,
)

F2, F3 = Fp(2), Fp(3)
# the element BFS oracle is slow, so closures are compared at a lower cap
# than the verdicts
CLOSURE_CAP, CAP = 120, 400
LEADS = ("monic", "norm 2", "norm 50-100")


class TestAtoms:
    def test_round_trip(self):
        rng = random.Random(5)
        for ring, size in ((Z, 10**30), (ZI, 10**30), (F2, 0), (F3, 0), (Fp(131), 0)):
            for n in range(7):
                values = tuple(rand_ring_elem(rng, ring, size) for _ in range(n))
                atoms = ring.atoms(values)
                back = ring.values(atoms)
                assert back == values
                assert [type(v) for v in back] == [type(v) for v in values]
                if ring in (Z, ZI):
                    # equal hashes keep the iteration order of sets of
                    # coordinates; F_p[y] atoms hash as ints, and verdicts do
                    # not depend on that order (test_fp_atoms)
                    assert hash(atoms) == hash(values)

    def test_atom_types(self):
        g, f, h = GaussianInt(3, -4), FpPoly(3, (1, 2)), FpPoly(131, (130, 0, 7))
        assert Z.atoms((7, -2)) == (7, -2)
        (pair,) = ZI.atoms((g,))
        assert type(pair) is tuple and pair == (3, -4)
        assert [type(x) for x in pair] == [int, int]
        # an atom is never mistaken for a value: GaussianInt and FpPoly
        # equality is strict
        assert pair != g and g != pair and pair not in {g}
        # an F_p[y] atom is the packed int of the value: a byte slot per
        # coefficient for p < 128, two bytes for p = 131
        assert F3.atoms((f,)) == (1 + 2 * 256,) and type(F3.atoms((f,))[0]) is int
        assert Fp(131).atoms((h,)) == (130 + 7 * 256**4,)
        assert F3.atoms((f,))[0] != f and f not in set(F3.atoms((f,)))

    def test_atoms_distinguish_values(self):
        rng = random.Random(6)
        for ring in (Z, ZI, F2, F3, Fp(131)):
            values = {rand_ring_elem(rng, ring, 6) for _ in range(300)}
            assert len({ring.atoms((v,)) for v in values}) == len(values)


def _gauss(rng, bound, lo, hi):
    while True:
        g = GaussianInt(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if lo <= g.norm() <= hi:
            return g


def _lead(rng, kind):
    if kind == "monic":
        return ZI.one
    if kind == "norm 2":
        return _gauss(rng, 1, 2, 2)
    return _gauss(rng, 10, 50, 100)


def _digits(rng, p0, constant):
    """One digit per residue r of p0: r + k*p0, with k = 0 most of the time,
    plus x*g for a random g when the set need not be constant."""
    digits = []
    for r in ZI.residues(p0):
        k = rand_ring_elem(rng, ZI, 1) if rng.random() < 0.3 else ZI.zero
        g = [] if constant or rng.random() < 0.5 else [
            rand_ring_elem(rng, ZI, 1) for _ in range(rng.randint(1, 3))
        ]
        digits.append(Poly.make(ZI, [r + k * p0] + g))
    return digits


def gaussian_systems():
    """Seeded (lead kind, system) pairs over Z[i]: per lead kind (monic,
    norm 2, norm 50..100) and base degree 1 or 2, two bases, each with one
    constant digit set and, unless the base is monic of degree 1 (where
    every element is a constant), one that is not constant.  Leads that
    are not units give members a residue part.  The monic and norm 2
    bases are drawn expanding, so that most of their closures stabilise;
    the norm 50..100 leads make bases that are not expanding, whose
    closures run into the cap."""
    rng = random.Random(20261019)
    out = []
    for kind, degree, _ in itertools.product(LEADS, (1, 2), range(2)):
        while True:
            p0 = _gauss(rng, 3, 5, 13)
            mid = [_gauss(rng, 2, 0, 5) for _ in range(degree - 1)]
            modulus = Poly.make(ZI, [p0, *mid, _lead(rng, kind)])
            if kind == "norm 50-100" or expanding_check(modulus).status == "expanding":
                break
        out.append((kind, validate_system(ZI, modulus, _digits(rng, p0, True))))
        if kind == "monic" and degree == 1:
            continue
        system = validate_system(ZI, modulus, _digits(rng, p0, False))
        while system.digits_constant:
            system = validate_system(ZI, modulus, _digits(rng, p0, False))
        out.append((kind, system))
    return out


@pytest.fixture(scope="module")
def systems():
    return gaussian_systems()


def modes(system):
    return ("brunotte", "power") if system.digits_constant else ("power",)


def test_closures_match_element_bfs(systems):
    counts = {(kind, flag): 0 for kind in LEADS for flag in ("constant", "non-constant")}
    seen = {"brunotte": 0, "power": 0, "stabilized": 0, "capped": 0, "residue parts": 0}
    for kind, system in systems:
        q = system.qring
        for mode in modes(system):
            seed = seed_witnesses(system, mode)
            closure = witness_closure(system, seed, CLOSURE_CAP)
            elements, rounds, stabilized = bfs_closure(system, seed, CLOSURE_CAP)
            assert closure.elements == elements, system
            assert (closure.rounds, closure.stabilized) == (rounds, stabilized), system
            assert closure.members == {q.coords(x) for x in elements}
            assert len(closure) == len(elements)
            if stabilized:
                assert set(closure.succ) == closure.members
            for v, w in closure.succ.items():
                assert w == q.coords(system.step(q.from_coords(v))), system
            counts[kind, "constant" if system.digits_constant else "non-constant"] += 1
            seen[mode] += 1
            seen["stabilized" if stabilized else "capped"] += 1
            seen["residue parts"] += any(len(v) > q.d for v in closure.members)
    assert min(counts.values()) >= 1, counts
    assert min(seen.values()) >= 4, seen


def test_verdicts_match_element_statuses(systems):
    answers = {"yes": 0, "no": 0, "unknown": 0}
    for _, system in systems:
        q = system.qring
        for mode in modes(system):
            fep, pep = decide_fep(system, CAP, mode), decide_pep(system, CAP, mode)
            closure = witness_closure(system, seed_witnesses(system, mode), CAP)
            answers[fep.answer] += 1
            if not closure.stabilized:
                assert fep.answer == pep.answer == "unknown"
                continue
            assert pep.answer == "yes" and pep.certificate["rounds"] == closure.rounds
            status, cycles = element_orbit_statuses(system, closure.elements)
            got, got_cycles = witness._orbit_statuses(system, closure)
            element_of = closure._element_of
            assert {element_of[v]: s for v, s in got.items() if v in element_of} == status
            assert sorted(got_cycles, key=repr) == sorted(cycles, key=repr)
            if cycles:
                assert fep.answer == "no", system
                assert fep.certificate["cycle"] == min(cycles, key=lambda c: q.sort_key(c[0]))
            else:
                assert fep.answer == "yes", system
                assert fep.certificate["orbit_steps"] == {x: status[x][1] for x in closure.elements}
    assert min(answers.values()) >= 4, answers


def test_digit_sequences_match_element_walk(systems):
    rng = random.Random(73)
    kinds = set()
    residues = 0
    for _, system in systems:
        q = system.qring
        for a in [q.zero] + [rand_quot(rng, system, extra_degree=3, size=6) for _ in range(6)]:
            residues += len(q.coords(a)) > q.d
            for cap in (1, 5, 60):
                seq = system.digit_sequence(a, cap)
                assert seq == element_sequence(system, a, cap), system
                kinds.add(seq.kind)
    assert kinds == {"finite", "eventually-periodic", "unknown"}
    assert residues >= 20


def test_periodic_sets_match_element_walk(systems):
    rng = random.Random(79)
    integer = [
        example1(),
        example1_symmetric(),
        validate_system(Z, parse_poly(Z, "3x+2"), [0, 1]),
        validate_system(Z, parse_poly(Z, "2x^2-x+5"), [0, 1, 2, 3, 4]),
        validate_system(
            Z, parse_poly(Z, "2x^2-x+5"), [parse_poly(Z, t) for t in ("0", "1", "x+2", "3", "9")]
        ),
    ]
    found = {"cycles": 0, "capped": 0, "zero": 0}
    for system in integer + [gauss_example()] + [s for _, s in systems]:
        q = system.qring
        seeds = [q.zero] + [rand_quot(rng, system, extra_degree=2, size=8) for _ in range(8)]
        seeds += sorted(witness_closure(system, seed_witnesses(system, "power"), 60).elements,
                        key=q.sort_key)[:20]
        for cap in (0, 2, 20, 80):
            report = system.periodic_set(seeds, cap)
            assert report == element_periodic_set(system, seeds, cap), system
            found["cycles"] += len(report.orbits)
            found["capped"] += report.capped
            found["zero"] += report.contains_zero
    assert min(found.values()) >= 5, found


def test_gaussian_methods_not_called_per_image(monkeypatch):
    """A Z[i] closure compares and adds int pairs: the number of
    ``GaussianInt.__eq__`` and ``__add__`` calls it makes stays the same
    when the closure computes ten times as many images."""
    calls = {"__eq__": 0, "__add__": 0}
    for name in calls:
        method = getattr(GaussianInt, name)

        def counting(self, other, method=method, name=name):
            calls[name] += 1
            return method(self, other)

        monkeypatch.setattr(GaussianInt, name, counting)
    counted = {}
    for src in ("(7+i)x+(2+i)", "(1+i)x^2+(2-i)x+(3+2i)", "(5+5i)x^2+x+(2+i)"):
        modulus = parse_poly(ZI, src)
        system = validate_system(ZI, modulus, ZI.residues(modulus.constant))
        seed = seed_witnesses(system, "power")
        for cap in (100, 1000):
            for name in calls:
                calls[name] = 0
            closure = witness_closure(system, seed, cap)
            images = len(closure.atom_succ) * len(system.digits)
            counted[src, cap] = (sum(calls.values()), images)
    for src in {s for s, _ in counted}:
        (small, few), (large, many) = counted[src, 100], counted[src, 1000]
        assert many >= 5 * few, (src, counted)
        assert large == small, (src, counted)
