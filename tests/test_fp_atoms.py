"""The F_p[y] dynamics on packed ints (``FpPolynomialRing.dynamics``),
the twin of the Z[i] tests in ``test_atoms``: seeded F2, F3 and F131
systems (two-byte slots, spread products) with monic and non-monic bases
and constant and non-constant digit sets, against the element oracles of
``support``, which step elements with ``system.step``."""

import dataclasses
import itertools
import random

import pytest

from digsys import (
    Fp,
    FpPoly,
    Poly,
    decide_fep,
    decide_pep,
    fppoly,
    parse_poly,
    seed_witnesses,
    validate_system,
    witness,
    witness_closure,
)

from support import (
    assert_closure_matches_bfs,
    assert_closure_matches_full_rows,
    assert_seed_atoms_match,
    element_orbit_statuses,
    element_periodic_set,
    element_sequence,
    example2,
    rand_quot,
)

F2, F3, F131 = Fp(2), Fp(3), Fp(131)
# the closure cap of every test: the stabilised closures here have at most
# 27 members, and each capped one grows past it in one round
CAP = 120
# (ring, y-degree of p0, base degrees): p0 of degree 2 over F131 would
# give 17,161 digits, and its 131 digits make the element oracles slow
RINGS = ((F2, 2, (1, 2)), (F3, 2, (1, 2)), (F131, 1, (1,)))
# the lead: a unit; of y-degree 1, so members get residue parts; and of
# y-degree above p0's, so the degree criterion fails and closures run
# into the cap
LEADS = ("monic", "lead of degree 1", "lead above p0")


def _exact(rng, ring, degree):
    """A random polynomial of y-degree exactly ``degree``."""
    p = ring.p
    return FpPoly.make(p, [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)])


def _below(rng, ring, degree):
    """A random polynomial of y-degree at most ``degree`` (maybe 0)."""
    p = ring.p
    return FpPoly.make(p, [rng.randrange(p) for _ in range(rng.randint(0, degree + 1))])


def _lead(rng, ring, kind, d0):
    if kind == "monic":
        return ring.one
    return _exact(rng, ring, 1 if kind == "lead of degree 1" else d0 + 1)


def _digits(rng, ring, p0, constant):
    """One digit per residue r of p0: r + k*p0, with k = 0 most of the time,
    plus x*g for a random g when the set need not be constant.  k and the
    coefficients of g have y-degree at most 1; over F131, k is 0, and g is
    constant and rarely nonzero, as the element oracles and the
    residue-part reductions step slowly there, and closures of 131
    shifted digits hold hundreds of members."""
    small = ring.p < 100
    digits = []
    for r in ring.residues(p0):
        k = _below(rng, ring, 1) if small and rng.random() < 0.3 else ring.zero
        g = [] if constant or rng.random() < (0.5 if small else 0.05) else [
            _below(rng, ring, 1 if small else 0) for _ in range(rng.randint(1, 2))
        ]
        digits.append(Poly.make(ring, [r + k * p0] + g))
    return digits


def ff_systems():
    """Seeded (ring, lead kind, system) triples: per ring, lead kind and
    base degree, one base with one constant digit set and, unless the base
    is monic of degree 1 (where every element is a constant), one that is
    not constant.  The coefficients between p0 and the lead have y-degree
    below p0's."""
    rng = random.Random(20261019)
    out = []
    for (ring, d0, degrees), kind in itertools.product(RINGS, LEADS):
        for degree in degrees:
            p0 = _exact(rng, ring, d0)
            mid = [_below(rng, ring, d0 - 1) for _ in range(degree - 1)]
            modulus = Poly.make(ring, [p0, *mid, _lead(rng, ring, kind, d0)])
            out.append((ring, kind, validate_system(ring, modulus, _digits(rng, ring, p0, True))))
            if kind == "monic" and degree == 1:
                continue
            system = validate_system(ring, modulus, _digits(rng, ring, p0, False))
            while system.digits_constant:
                system = validate_system(ring, modulus, _digits(rng, ring, p0, False))
            out.append((ring, kind, system))
    return out


@pytest.fixture(scope="module")
def systems():
    return ff_systems()


def modes(system):
    # over F131 the brunotte seeds of a non-monic base run into hundreds of
    # members, each with 131 images, which the element oracles step slowly
    if system.digits_constant and system.ring.p < 100:
        return ("brunotte", "power")
    return ("power",)


def test_seed_atoms_match_seed_witnesses(systems):
    seen = {(ring.name, kind): 0 for ring, _, _ in RINGS for kind in LEADS}
    for ring, kind, system in systems:
        # the basis seeds of F131 too: no closure is built here
        for mode in ("brunotte", "power") if system.digits_constant else ("power",):
            assert_seed_atoms_match(system, mode)
            assert all(type(a) is int for v in witness._seed_atoms(system, mode) for a in v)
        seen[ring.name, kind] += 1
    assert min(seen.values()) >= 1, seen


def test_capped_closures_stop_at_the_cap(systems):
    # each round of these F131 closures adds thousands of members; the
    # search stops at the member that crosses the cap
    capped = 0
    for ring, _, system in systems:
        if ring.p == 131:
            for mode in modes(system):
                closure = witness_closure(system, seed_witnesses(system, mode), 400)
                assert len(closure) <= 401, system
                capped += not closure.stabilized
    assert capped >= 2


def test_closures_match_element_bfs(systems):
    counts = {
        (ring.name, flag): 0
        for ring, _, _ in RINGS
        for flag in ("constant", "non-constant")
    }
    seen = {"brunotte": 0, "power": 0, "stabilized": 0, "capped": 0, "residue parts": 0}
    for ring, _, system in systems:
        q = system.qring
        for mode in modes(system):
            seed = seed_witnesses(system, mode)
            closure = witness_closure(system, seed, CAP)
            assert_closure_matches_bfs(system, seed, CAP, closure)
            stabilized = closure.stabilized
            assert closure.members == {q.coords(x) for x in closure.elements}
            assert closure.atoms == {ring.atoms(q.coords(x)) for x in closure.elements}
            assert all(type(a) is int for v in closure.atoms for a in v)
            if stabilized:
                assert set(closure.succ) == closure.members
            for v, w in closure.succ.items():
                assert w == q.coords(system.step(q.from_coords(v))), system
            counts[ring.name, "constant" if system.digits_constant else "non-constant"] += 1
            seen[mode] += 1
            seen["stabilized" if stabilized else "capped"] += 1
            seen["residue parts"] += any(len(v) > q.d for v in closure.members)
    assert min(counts.values()) >= 2, counts
    assert min(seen.values()) >= 5, seen


def test_closures_match_full_rows(systems):
    # rows of distinct images give the closures of the full image lists,
    # atom for atom, over F2, F3 and F131, constant and not, capped or not
    seen = {"constant": 0, "non-constant": 0, "F131": 0, "stabilized": 0, "capped": 0}
    for ring, _, system in systems:
        for mode in modes(system):
            closure = assert_closure_matches_full_rows(
                system, witness._seed_atoms(system, mode), CAP
            )
            seen["constant" if system.digits_constant else "non-constant"] += 1
            seen["F131"] += ring.p == 131
            seen["stabilized" if closure.stabilized else "capped"] += 1
    assert min(seen.values()) >= 3, seen


def test_verdicts_match_element_statuses(systems):
    answers = {"yes": 0, "no": 0, "unknown": 0}
    for _, _, system in systems:
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
                steps = dict(fep.certificate["orbit_steps"])
                assert steps == {x: status[x][1] for x in closure.elements}
    assert min(answers.values()) >= 3, answers


def test_digit_sequences_match_element_walk(systems):
    rng = random.Random(83)
    kinds = set()
    residues = 0
    for _, _, system in systems:
        q = system.qring
        for a in [q.zero] + [rand_quot(rng, system, extra_degree=3) for _ in range(5)]:
            residues += len(q.coords(a)) > q.d
            for cap in (1, 5, 60):
                seq = system.digit_sequence(a, cap)
                assert seq == element_sequence(system, a, cap), system
                kinds.add(seq.kind)
    assert kinds == {"finite", "eventually-periodic", "unknown"}
    assert residues >= 20


def test_periodic_sets_match_element_walk(systems):
    rng = random.Random(89)
    found = {"cycles": 0, "capped": 0, "zero": 0}
    for system in [example2()] + [s for _, _, s in systems]:
        q = system.qring
        seeds = [q.zero] + [rand_quot(rng, system, extra_degree=2) for _ in range(6)]
        seeds += sorted(witness_closure(system, seed_witnesses(system, "power"), 60).elements,
                        key=q.sort_key)[:15]
        for cap in (0, 2, 20, 80):
            report = system.periodic_set(seeds, cap)
            assert report == element_periodic_set(system, seeds, cap), system
            found["cycles"] += len(report.orbits)
            found["capped"] += report.capped
            found["zero"] += report.contains_zero
    assert min(found.values()) >= 5, found


def test_spread_carries_over_f131():
    """Over F131 a slot is two bytes wide, and one product of the carry
    with coefficients 130 = -1 of y-degree 3 already sums 4 * 130^2 >
    65535 in a slot: the dot product widens its slots to three bytes.
    Walks from such coordinates, with and without a residue part, match
    the element walk."""
    minus = FpPoly(131, (130,) * 4)
    modulus = Poly.make(F131, [FpPoly(131, (7, 3)), minus, minus])
    system = validate_system(F131, modulus, range(131))
    q = system.qring
    kinds = set()
    for coords in ((minus, minus), (minus, minus, minus), (F131.one, minus, minus, minus)):
        a = q.from_coords(coords)
        for cap in (1, 8):
            seq = system.digit_sequence(a, cap)
            assert seq == element_sequence(system, a, cap)
            kinds.add(seq.kind)
        assert system.coordinate_step(q.coords(a)) == q.coords(system.step(a))
    assert kinds == {"unknown"}


class _Ordered(frozenset):
    """A frozenset that iterates in the order it was built from."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self.order = list(items)
        return self

    def __iter__(self):
        return iter(self.order)


def _certificate(verdict) -> dict:
    # the closure a certificate carries is compared through its elements
    cert = dict(verdict.certificate)
    closure = cert.pop("closure", None)
    return {**cert, "elements": None if closure is None else closure.elements}


def test_verdicts_do_not_depend_on_seed_order(systems, monkeypatch):
    """F_p[y] atoms are ints, so sets of members iterate in another order
    than sets of FpPoly values did: a closure built from shuffled seeds,
    and one whose members and T-images are visited in shuffled order, give
    the same closure, verdicts and certificates."""
    rng = random.Random(97)
    answers = set()
    for _, _, system in systems:
        for mode in modes(system):
            seeds = list(seed_witnesses(system, mode))
            closure = witness_closure(system, seeds, CAP)
            want = [decide_fep(system, CAP, mode), decide_pep(system, CAP, mode)]
            graph = (
                witness._closure_graph(system, closure).to_dot() if closure.stabilized else None
            )
            for _ in range(2):
                rng.shuffle(seeds)
                again = witness_closure(system, seeds, CAP)
                assert (again.atoms, again.rounds, again.stabilized) == (
                    closure.atoms, closure.rounds, closure.stabilized
                )
                assert again.atom_succ == closure.atom_succ
                atoms, succ = list(again.atoms), list(again.atom_succ.items())
                rng.shuffle(atoms)
                rng.shuffle(succ)
                shuffled = dataclasses.replace(again, atoms=_Ordered(atoms), atom_succ=dict(succ))
                with monkeypatch.context() as m:
                    m.setattr(witness, "_closure", lambda *args: shuffled)
                    got = [decide_fep(system, CAP, mode), decide_pep(system, CAP, mode)]
                for g, v in zip(got, want):
                    assert (g.answer, g.reason, g.witnesses, g.stabilized) == (
                        v.answer, v.reason, v.witnesses, v.stabilized
                    )
                    assert _certificate(g) == _certificate(v), system
                    answers.add(g.answer)
                if graph is not None:
                    assert witness._closure_graph(system, shuffled).to_dot() == graph
    assert answers == {"yes", "no", "unknown"}


def test_fppoly_methods_not_called_per_image(monkeypatch):
    """An F_p[y] closure multiplies, adds and compares packed ints: the
    number of ``FpPoly.__mul__``, ``__add__``, ``__sub__`` and ``__eq__``
    calls it makes stays the same when the closure computes ten times as
    many images.  The bases fail the degree criterion, so their brunotte
    closures grow past both caps."""
    calls = {"__mul__": 0, "__add__": 0, "__sub__": 0, "__eq__": 0}
    for name in calls:
        method = getattr(FpPoly, name)

        def counting(self, other, method=method, name=name):
            calls[name] += 1
            return method(self, other)

        monkeypatch.setattr(FpPoly, name, counting)
    counted = {}
    # (ring, base, the smaller cap): F131 members carry long two-byte-slot
    # coefficients, whose per-slot reductions are slow
    cases = (
        (F2, "(y^3+y)x^2+x+(y^2+1)", 100),
        (F3, "(y^3+y+1)x^2+(y+2)x+(y^2+2y+2)", 100),
        (F131, "(y^2+5)x+(3y+7)", 10),
    )
    for ring, src, cap in cases:
        modulus = parse_poly(ring, src)
        system = validate_system(ring, modulus, ring.residues(modulus.constant))
        seed = seed_witnesses(system, "brunotte")
        for n in (cap, 10 * cap):
            for name in calls:
                calls[name] = 0
            closure = witness_closure(system, seed, n)
            assert not closure.stabilized
            images = len(closure.atom_succ) * len(system.digits)
            counted[src, n] = (sum(calls.values()), images)
    for _, src, cap in cases:
        (small, few), (large, many) = counted[src, cap], counted[src, 10 * cap]
        assert many >= 5 * few, (src, counted)
        assert large == small, (src, counted)


def test_one_sub_per_closure_member(monkeypatch):
    """Over F3[y] a closure step subtracts once: past its rows, a closure
    that reaches its cap calls ``fppoly._sub`` at most once per member it
    expands.  The digits r + y*p0 (r != 0) give every member siblings, so
    the members stay short and no division takes the long quotient path;
    all nine residue rows are built below the smaller cap, so their
    entries cancel in the difference.  ``_sub`` is bound when the
    dynamics is, so the counter goes in before ``validate_system``."""
    calls = [0]
    sub = fppoly._sub

    def counting(p, a, b):
        calls[0] += 1
        return sub(p, a, b)

    monkeypatch.setattr(fppoly, "_sub", counting)
    modulus = parse_poly(F3, "(y^3+y+1)x^2+(y+2)x+(y^2+2y+2)")
    p0, y = modulus.constant, FpPoly(3, (0, 1))
    digits = [r + y * p0 if r else r for r in F3.residues(p0)]
    system = validate_system(F3, modulus, digits)
    seed = seed_witnesses(system, "brunotte")
    counted = {}
    for n in (100, 1000):
        calls[0] = 0
        closure = witness_closure(system, seed, n)
        assert not closure.stabilized
        counted[n] = calls[0], len(closure.atom_succ)
    (small, few), (large, many) = counted[100], counted[1000]
    assert many >= 5 * few, counted
    assert large - small <= many - few, counted
