import functools
import gc
import itertools
import os
import random
import subprocess
import sys
import weakref

import pytest

from digsys import (
    Fp,
    GaussianInt,
    Poly,
    Z,
    ZI,
    canonical_ff_digits,
    decide_fep,
    decide_pep,
    euclidean_necessary_check,
    expanding_check,
    orbit_graph,
    parse_poly,
    product_digit_set,
    seed_witnesses,
    validate_system,
    verify_witness_set,
    witness,
    witness_closure,
)
from digsys.polyquot import QuotRing

from support import (
    assert_closure_matches_bfs,
    assert_closure_matches_full_rows,
    element_orbit_statuses,
    example1,
    example1_symmetric,
    example2,
    gauss_example,
    gauss_paper_witnesses,
    images_of,
    rand_quot,
)


class TestSeeds:
    def test_gaussian_seeds(self):
        system = gauss_example()
        q = system.qring
        got = {q.format(s) for s in seed_witnesses(system, "brunotte")}
        assert got == {"1+i", "-1-i", "-1+i", "1-i"}

    def test_example1_seeds(self):
        system = example1()
        q = system.qring
        got = {q.format(s) for s in seed_witnesses(system, "brunotte")}
        assert got == {"3", "-3", "3*X - 2", "-3*X + 2"}

    def test_monic_linear(self):
        system = validate_system(Z, parse_poly(Z, "x+2"), [0, 1])
        got = {system.qring.format(s) for s in seed_witnesses(system, "brunotte")}
        assert got == {"1", "-1"}

    def test_power_mode(self):
        system = example1()
        got = {system.qring.format(s) for s in seed_witnesses(system, "power")}
        assert got == {"1", "-1", "X", "-X"}

    def test_brunotte_mode_needs_constant_digits(self):
        P = parse_poly(Z, "x^2+5x+6")
        digits = [parse_poly(Z, t) for t in ("0", "1", "x+2", "x+3", "2x+4", "2x+5")]
        system = validate_system(Z, P, digits)
        with pytest.raises(ValueError):
            seed_witnesses(system, "brunotte")


class TestClosure:
    def test_gaussian_closure_matches_paper_set(self):
        system = gauss_example()
        closure = witness_closure(system, seed_witnesses(system, "brunotte"), 1000)
        assert closure.stabilized
        assert closure.elements <= gauss_paper_witnesses(system)

    def test_example1_stabilizes(self):
        system = example1()
        closure = witness_closure(system, seed_witnesses(system, "brunotte"), 10_000)
        assert closure.stabilized
        assert closure.seed <= closure.elements

    def test_zero_seed(self):
        system = example1()
        closure = witness_closure(system, {system.qring.zero}, 10_000)
        assert closure.stabilized
        assert system.qring.zero in closure.elements

    def test_cap_flagged(self):
        system = validate_system(Z, parse_poly(Z, "3x+2"), [0, 1])
        closure = witness_closure(system, seed_witnesses(system, "brunotte"), 30)
        assert not closure.stabilized

    def test_cap_bounds_the_members(self):
        # the root -2/3 lies inside the unit circle, so the closure grows
        # without end; it stops at the member that crosses the cap, inside
        # its round, and seeds above the cap are kept whole
        system = validate_system(Z, parse_poly(Z, "3x+2"), [0, 1])
        seed = seed_witnesses(system, "power")
        for cap, size in ((100, 101), (1, 2), (0, 2)):
            closure = witness_closure(system, seed, cap)
            assert (len(closure), closure.stabilized) == (size, False)
        assert witness_closure(system, seed, 0).rounds == 0
        with pytest.raises(ValueError, match="cap must be at least 0"):
            witness_closure(system, seed, -1)

    def test_stabilized_closures_verify(self):
        for system in (example1(), example1_symmetric(), example2(), gauss_example()):
            seeds = seed_witnesses(system, "brunotte")
            closure = witness_closure(system, seeds, 10_000)
            assert closure.stabilized
            ok, violations = verify_witness_set(system, closure.elements, seeds)
            assert ok, violations


class TestClosureOracle:
    def systems(self):
        F2, F3 = Fp(2), Fp(3)
        # criterion-5 class U over F3[y]: the x- and x^2-coefficients have
        # y-degree above deg_y p0, so the closure never stabilises
        u_modulus = parse_poly(F3, "(y^2+1)x^2+y*x+(y+1)")
        f2_modulus = parse_poly(F2, "x^2+(y^2+y+1)")
        return [
            (example1(), 10_000),
            (example1_symmetric(), 10_000),
            (example1(), 5),
            (gauss_example(), 1000),
            (validate_system(ZI, parse_poly(ZI, "(1-i)x^2+x+(2+i)"), range(5)), 200),
            (validate_system(Z, parse_poly(Z, "3x+2"), [0, 1]), 30),
            (validate_system(Z, parse_poly(Z, "-2x^3+x+3"), [0, -1, 1]), 50),
            (example2(), 10_000),
            (validate_system(F2, f2_modulus, canonical_ff_digits(f2_modulus)), 10_000),
            (validate_system(F3, u_modulus, canonical_ff_digits(u_modulus)), 40),
            # digits 8 and -1 carry 1 and -1 past their residues 3 and 4
            (validate_system(Z, parse_poly(Z, "3x^2-2x+5"), [0, 1, 2, 8, -1]), 10_000),
            # p0 < 0: the quotients of the rows change sign with p0
            (validate_system(Z, parse_poly(Z, "3x^2-2x-5"), [0, 1, 2, 8, -1]), 300),
            # leads of norm 50 over p0 of norm 5: hundreds of members share
            # the 5 residue rows before the cap stops the closure
            (validate_system(ZI, parse_poly(ZI, "(7+i)x+(2+i)"), range(5)), 300),
            (validate_system(ZI, parse_poly(ZI, "(5+5i)x^2+x+(2+i)"), range(5)), 300),
        ]

    def test_matches_element_bfs(self):
        capped = 0
        for system, cap in self.systems():
            ring, qring = system.ring, system.qring
            point = qring.from_coords(tuple(ring.coerce(i + 2) for i in range(qring.d)))
            for seed in (seed_witnesses(system, "brunotte"), {point, qring.zero}):
                closure = witness_closure(system, seed, cap)
                assert_closure_matches_bfs(system, seed, cap, closure)
                capped += not closure.stabilized
        assert capped >= 5  # capped closures are compared too

    def test_coordinate_images_in_digit_order(self):
        # T(v) first, then each distinct T(v + e) != T(v) over the nonzero
        # digits in first-occurrence digit order, on the atoms of the
        # coordinates; for constant digit sets, and for digits that are not:
        # the listed ones of x^2+5x+6 and of a non-monic F2[y] base, whose
        # members carry a residue part, and products over Z, Z[i] and F2[y]
        F2 = Fp(2)
        listed = [parse_poly(Z, t) for t in ("0", "1", "x+2", "x+3", "2x+4", "2x+5")]
        f2_listed = [parse_poly(F2, t) for t in ("y^2+1", "y*x+1", "y", "y+1")]
        non_constant = [
            validate_system(Z, parse_poly(Z, "x^2+5x+6"), listed),
            validate_system(F2, parse_poly(F2, "(y+1)x^2+y*x+(y^2+1)"), f2_listed),
        ]
        for ring, p1, n1, p2, n2 in (
            (Z, "x+2", [0, 1], "x+3", [0, 1, 2]),
            (ZI, "x+(2+i)", range(5), "x+(1+2i)", range(5)),
            (F2, "x+y", [0, 1], "x+(y+1)", [0, 1]),
        ):
            factors = parse_poly(ring, p1), n1, parse_poly(ring, p2), n2
            non_constant.append(product_digit_set(ring, *factors).combined)
        shifted = residue_parts = 0
        for system, cap in self.systems() + [(s, 300) for s in non_constant]:
            qring, ring = system.qring, system.ring
            if system.digits_constant:
                seed = seed_witnesses(system, "brunotte")
            else:
                # the powers and 1 + X + X^2
                extra = qring.from_coords((ring.zero,) * qring.d + (ring.one,) * 3)
                seed = seed_witnesses(system, "power") | {extra}
            closure = witness_closure(system, seed, cap)
            element_of, atoms = closure._element_of, ring.atoms
            shifts = [e for e in system.digits if not e.is_zero]
            images = functools.partial(images_of, system)
            for v in sorted(closure.atom_succ, key=lambda u: qring.sort_key(element_of[u]))[:60]:
                x = element_of[v]
                want = [system.step(x)] + [system.step(x + e) for e in shifts]
                want = [atoms(qring.coords(w)) for w in want]
                assert images(v) == list(dict.fromkeys(want)), system
                if not system.digits_constant:
                    shifted += len(images(v)) > 1
                    residue_parts += len(v) > qring.d
        assert shifted >= 50 and residue_parts >= 5

    def test_matches_full_rows(self):
        # the closure rows hold each distinct image once: the closures are
        # those of the full image lists, atom for atom and capped ones too,
        # over canonical and other digit sets, and the digits of x^2+5x+6
        # that are not constant
        P = parse_poly(Z, "x^2+5x+6")
        listed = [parse_poly(Z, t) for t in ("0", "1", "x+2", "x+3", "2x+4", "2x+5")]
        product = product_digit_set(
            Z, parse_poly(Z, "x+2"), [0, 1], parse_poly(Z, "x+3"), [0, 1, 2]
        ).combined
        non_constant = [validate_system(Z, P, listed), product]
        capped = 0
        for system, cap in self.systems() + [(s, c) for s in non_constant for c in (6, 2000)]:
            for mode in ("brunotte", "power") if system.digits_constant else ("power",):
                closure = assert_closure_matches_full_rows(
                    system, witness._seed_atoms(system, mode), cap
                )
                capped += not closure.stabilized
        assert capped >= 5

    def test_canonical_rows_repeat_nothing(self):
        # canonical F_p[y] digits have y-degree below deg p0, so every
        # T(v + e) is T(v); over Z, digits 0..|p0|-1 give T(v) and T(v) - w_{d-1}
        F2, F3 = Fp(2), Fp(3)
        systems = [example1(), validate_system(Z, parse_poly(Z, "2x+3"), [0, 1, 2])]
        for ring, src in ((F2, "x^2+(y^2+y+1)"), (F3, "(y^2+1)x^2+y*x+(y+1)"), (F3, "x+(y^3+2)")):
            modulus = parse_poly(ring, src)
            systems.append(validate_system(ring, modulus, canonical_ff_digits(modulus)))
        expanded = 0
        for system, mode in itertools.product(systems, ("brunotte", "power")):
            closure = witness_closure(system, seed_witnesses(system, mode), 300)
            images = functools.partial(images_of, system)
            for v, w in closure.atom_succ.items():
                if system.ring == Z:
                    assert images(v)[0] == w and len(images(v)) <= 2, system
                else:
                    assert images(v) == [w], system
            expanded += len(closure.atom_succ)
        assert expanded >= 300

    def test_succ_is_t(self):
        for system, cap in self.systems():
            closure = witness_closure(system, seed_witnesses(system, "brunotte"), cap)
            element_of = closure._element_of
            if closure.stabilized:
                assert set(closure.succ) == set(closure.members), system
            for v, w in closure.atom_succ.items():
                assert element_of[w] == system.step(element_of[v]), system


class TestOrbitStatusOracle:
    def systems(self):
        F2, F3 = Fp(2), Fp(3)

        def ff(ring, src):
            modulus = parse_poly(ring, src)
            return validate_system(ring, modulus, canonical_ff_digits(modulus))

        def listed(ring, src, digits):
            digits = [parse_poly(ring, t) for t in digits]
            return validate_system(ring, parse_poly(ring, src), digits)

        def product(ring, src1, digits1, src2, digits2):
            p1, p2 = parse_poly(ring, src1), parse_poly(ring, src2)
            return product_digit_set(ring, p1, digits1, p2, digits2).combined

        gauss_sym = [GaussianInt(a, 0) for a in range(-2, 3)]
        combined = product_digit_set(
            Z, parse_poly(Z, "x-2"), [0, 1], parse_poly(Z, "x+3"), [-1, 0, 1]
        ).combined
        # digits that are not constant in x, over leads that are not units,
        # so that closure members carry a residue part
        non_constant = [
            listed(Z, "2x^2-x+5", ["0", "x^3+x^2+3x+6", "x^2-x+2", "x^2-x+3", "4"]),
            listed(Z, "2x^2-x+5", ["0", "1", "x+2", "3", "9"]),
            listed(ZI, "(1+i)x+(1+2i)", ["i*x+(-2+3i)", "i*x^2+(2-7i)", "-1-2i", "i", "-2-i"]),
            listed(F2, "(y+1)x^2+y*x+(y^2+1)", ["y^2+1", "y*x+1", "y", "y+1"]),
            listed(F2, "(y+1)x^2+y*x+(y^2+1)", ["0", "x^2+(y^2+y+1)x+(y^3+y^2+y)", "y", "y+1"]),
            product(F2, "x+y", [0, 1], "x+(y+1)", [0, 1]),
            product(ZI, "x+(2+i)", range(5), "x+(1+2i)", range(5)),
        ]
        return non_constant + [
            example1(),
            example1_symmetric(),
            validate_system(Z, parse_poly(Z, "-2x^3+x+3"), [0, -1, 1]),
            gauss_example(),
            validate_system(ZI, parse_poly(ZI, "(1+i)x+(1+2i)"), gauss_sym),
            validate_system(ZI, parse_poly(ZI, "(1-i)x^2+x+(2+i)"), range(5)),
            example2(),
            ff(F2, "x^2+(y^2+y+1)"),
            ff(F2, "y*x^2+x+y"),
            ff(F3, "x^2+y*x+(y^2+2)"),
            ff(F3, "x^2+(2y+1)x+2y"),
            product_digit_set(
                Z, parse_poly(Z, "x+2"), [0, 1], parse_poly(Z, "x+3"), [0, 1, 2]
            ).combined,
            combined,
        ]

    def test_closure_graph_matches_orbit_graph(self):
        # the graph read from closure.succ against stepping every element
        for system in self.systems():
            for mode in ("brunotte", "power") if system.digits_constant else ("power",):
                closure = witness_closure(system, seed_witnesses(system, mode), 2000)
                graph = witness._closure_graph(system, closure)
                assert graph == orbit_graph(system, closure.elements), system
                assert graph.to_dot() == orbit_graph(system, closure.elements).to_dot()

    def test_statuses_match_element_walk(self):
        answers = {"yes": 0, "no": 0}
        closures = {"residue parts": 0, "non-constant digits": 0}
        for system in self.systems():
            qring = system.qring
            for mode in ("brunotte", "power") if system.digits_constant else ("power",):
                closure = witness_closure(system, seed_witnesses(system, mode), 2000)
                assert closure.stabilized, system
                closures["residue parts"] += any(len(v) > qring.d for v in closure.members)
                closures["non-constant digits"] += not system.digits_constant
                assert set(closure.succ) == set(closure.members)
                for v in closure.members:
                    assert closure.succ[v] == qring.coords(system.step(qring.from_coords(v)))

                verdict = decide_fep(system, 2000, mode)
                answers[verdict.answer] += 1
                status, cycles = element_orbit_statuses(system, closure.elements)
                if verdict.answer == "no":
                    expected = min(cycles, key=lambda c: qring.sort_key(c[0]))
                    assert verdict.certificate["cycle"] == expected, system
                    continue
                assert not cycles
                orbit_steps = verdict.certificate["orbit_steps"]
                assert set(orbit_steps) == closure.elements
                for v, steps in orbit_steps.items():
                    walked, cur = 0, v
                    while not cur.is_zero:
                        cur = system.step(cur)
                        walked += 1
                        assert walked <= len(closure)
                    assert steps == walked == status[v][1], system
        assert min(answers.values()) >= 5 and min(closures.values()) >= 5

    def test_every_member_status_matches_element_walk(self):
        # members whose orbit avoids 0 report the length of the cycle they enter
        avoiding = 0
        for system in self.systems():
            for mode in ("brunotte", "power") if system.digits_constant else ("power",):
                closure = witness_closure(system, seed_witnesses(system, mode), 2000)
                status, cycles = witness._orbit_statuses(system, closure)
                expected, expected_cycles = element_orbit_statuses(system, closure.elements)
                element_of = closure._element_of
                for v in closure.atoms:
                    assert status[v] == expected[element_of[v]], system
                    avoiding += not status[v][0]
                assert sorted(cycles, key=repr) == sorted(expected_cycles, key=repr)
        assert avoiding >= 20


def dominant_example():
    """p0 > p1 >= p2 > 0 with digits 0..p0-1: finite expansions."""
    return validate_system(Z, parse_poly(Z, "x^2+3x+5"), range(5))


class TestOrbitStepsCertificate:
    def test_reads_as_a_mapping(self):
        for system in (example1(), dominant_example(), gauss_example()):
            fep = decide_fep(system)
            steps, closure = fep.certificate["orbit_steps"], fep.certificate["closure"]
            assert fep.answer == "yes" and len(steps) == len(closure) == fep.witnesses
            outside = system.qring.from_const(10**6)
            assert outside not in closure.elements
            assert outside not in steps and steps.get(outside, "none") == "none"
            with pytest.raises(KeyError):
                steps[outside]
            member = min(closure.elements, key=system.qring.sort_key)
            assert member in steps and steps.get(member) == steps[member]

    def test_an_unread_certificate_converts_nothing(self, monkeypatch):
        # constant digits and basis seeds: the closures have no residue
        # parts, which the dynamics would reduce through from_coords
        systems = (example1(), dominant_example(), gauss_example())
        calls = []
        from_coords = QuotRing.from_coords

        def counting(self, coords):
            calls.append(coords)
            return from_coords(self, coords)

        monkeypatch.setattr(QuotRing, "from_coords", counting)
        verdicts = [decide_fep(system) for system in systems]
        assert [v.answer for v in verdicts] == ["yes"] * 3 and calls == []
        for v in verdicts:
            assert len(dict(v.certificate["orbit_steps"])) == v.witnesses
        assert len(calls) == sum(v.witnesses for v in verdicts)


def test_seed_and_member_order_independent_of_hash_seed():
    """The power seeds of a Z[i] system, its capped closure's atoms and a
    "yes" certificate's orbit steps iterate in one order under every hash
    seed: the seeds are sorted, and the closure inserts its members from
    the sorted seeds on."""
    script = (
        "from digsys import GaussianInt, ZI, decide_fep, parse_poly, validate_system, witness\n"
        "digits = [GaussianInt(-1, 0), GaussianInt(0, -1), 0, GaussianInt(0, 1), 1]\n"
        "system = validate_system(ZI, parse_poly(ZI, 'i*x^2+3i*x+(2+i)'), digits)\n"
        "seeds = witness._seed_atoms(system, 'power')\n"
        "closure = witness.witness_closure(system, seeds, 150, atoms=True)\n"
        "gauss = validate_system(ZI, parse_poly(ZI, '(1+i)x+(1+2i)'), range(5))\n"
        "fep = decide_fep(gauss, mode='power')\n"
        "print(list(seeds), closure.stabilized, len(closure), list(closure.atoms))\n"
        "print(fep.answer, [gauss.qring.format(v) for v in fep.certificate['orbit_steps']])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(witness.__file__)))
    runs = []
    for seed in ("0", "1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1] == runs[2]
    assert b"False 151" in runs[0] and b"yes [" in runs[0]


class TestClosureCache:
    def count_closures(self, monkeypatch):
        calls = []
        build = witness.witness_closure

        def counting(system, seed, cap, **kwargs):
            calls.append((system, cap))
            return build(system, seed, cap, **kwargs)

        monkeypatch.setattr(witness, "witness_closure", counting)
        return calls

    def test_fep_and_pep_share_one_closure(self, monkeypatch):
        calls = self.count_closures(monkeypatch)
        for system in (example1(), example1_symmetric(), gauss_example(), example2()):
            fep = decide_fep(system)
            pep = decide_pep(system)
            assert fep.witnesses == pep.witnesses
        assert len(calls) == 4

    def test_cap_and_mode_are_part_of_the_key(self):
        def fields(verdict):
            return verdict.answer, verdict.witnesses, verdict.certificate.get("cycle")

        for make in (example1, example1_symmetric):
            system = make()
            assert decide_fep(system, 5).answer == "unknown"
            assert fields(decide_fep(system, 500)) == fields(decide_fep(make(), 500))
            modes = [decide_fep(system, 500, mode) for mode in ("brunotte", "power")]
            fresh = [decide_fep(make(), 500, mode) for mode in ("brunotte", "power")]
            assert [fields(v) for v in modes] == [fields(v) for v in fresh]
            assert modes[0].witnesses != modes[1].witnesses
            assert decide_pep(system, 5).answer == "unknown"

    def test_holds_at_most_one_closure(self):
        first = example1()
        decide_fep(first)
        gone = weakref.ref(first)
        del first
        decide_fep(gauss_example())
        gc.collect()
        assert gone() is None
        assert witness._closure.cache_info().currsize == 1


class TestVerify:
    def test_paper_set_is_valid(self):
        system = gauss_example()
        seeds = seed_witnesses(system, "brunotte")
        ok, violations = verify_witness_set(system, gauss_paper_witnesses(system), seeds)
        assert ok and violations == []

    def test_images_of_three_minus_i(self):
        system = gauss_example()
        q = system.qring
        v = q.from_const(GaussianInt(3, -1))
        images = {q.format(system.step(v + e)) for e in system.digits}
        assert images == {"-1+i", "-4+2i"}

    def test_empty_set_fails_generators(self):
        system = gauss_example()
        seeds = seed_witnesses(system, "brunotte")
        ok, violations = verify_witness_set(system, set(), seeds)
        assert not ok
        assert all(kind == "generator" for kind, _ in violations)

    def test_missing_element_is_pinpointed(self):
        system = gauss_example()
        q = system.qring
        broken = gauss_paper_witnesses(system) - {q.from_const(GaussianInt(-4, 2))}
        ok, violations = verify_witness_set(system, broken, seed_witnesses(system, "brunotte"))
        assert not ok
        assert any(
            len(v) == 3 and q.format(v[0]) == "3-i" and q.format(v[2]) == "-4+2i"
            for v in violations
        )


class TestDecide:
    def test_gauss_fep_yes(self):
        verdict = decide_fep(gauss_example())
        assert verdict.answer == "yes" and verdict.stabilized

    def test_example1_fep_yes(self):
        assert decide_fep(example1()).answer == "yes"

    def test_symmetric_digits_fep_no_with_cycle(self):
        system = example1_symmetric()
        verdict = decide_fep(system)
        assert verdict.answer == "no"
        cycle = verdict.certificate["cycle"]
        assert cycle
        # the certificate is a genuine T-cycle avoiding 0
        for i, v in enumerate(cycle):
            assert not v.is_zero
            assert system.step(v) == cycle[(i + 1) % len(cycle)]

    def test_pep_answers(self):
        assert decide_pep(example1_symmetric()).answer == "yes"
        assert decide_pep(gauss_example()).answer == "yes"
        assert decide_pep(example2()).answer == "yes"

    def test_unknown_on_divergent_system(self):
        system = validate_system(Z, parse_poly(Z, "3x+2"), [0, 1])
        verdict = decide_fep(system, closure_cap=100)
        assert verdict.answer == "unknown"
        assert decide_pep(system, closure_cap=100).answer == "unknown"

    def test_yes_means_samples_expand(self):
        rng = random.Random(5)
        system = gauss_example()
        assert decide_fep(system).answer == "yes"
        for _ in range(1000):
            a = rand_quot(rng, system)
            assert system.expand(a, cap=5000).status == "finite"


class TestOrbitGraph:
    def test_figure_chain(self):
        system = gauss_example()
        closure = witness_closure(system, seed_witnesses(system, "brunotte"), 1000)
        graph = orbit_graph(system, closure.elements)
        fmt = system.qring.format
        succ = {fmt(v): fmt(w) for v, w in graph.edges()}
        assert succ["-4+2i"] == "2-2i"
        assert succ["2-2i"] == "1+i"
        assert succ["1+i"] == "1-i"
        assert succ["1-i"] == "2"
        assert succ["2"] == "0"
        assert succ["-3+i"] == "4-2i"
        assert succ["-2"] == "3-i"

    def test_out_degree_one(self):
        system = gauss_example()
        graph = orbit_graph(system, gauss_paper_witnesses(system))
        assert set(graph.succ) == set(graph.nodes)
        for v in graph.nodes:
            assert graph.succ[v] in set(graph.nodes)

    def test_zero_loop(self):
        system = example1()
        graph = orbit_graph(system, {system.qring.zero})
        assert graph.nodes == (system.qring.zero,)
        assert graph.to_dot() == 'digraph T {\n  "0" -> "0";\n}\n'

    def test_dot_deterministic(self):
        system = gauss_example()
        graph = orbit_graph(system, gauss_paper_witnesses(system))
        assert graph.to_dot() == orbit_graph(system, gauss_paper_witnesses(system)).to_dot()
        assert graph.to_dot().startswith("digraph T {\n")

    def test_empty_graph(self):
        graph = orbit_graph(example1(), [])
        assert graph.to_dot() == "digraph T {\n}\n"

    def test_negative_growth_cap(self):
        # refused up front, whether the graph is closed already (the loop
        # at 0) or would have to grow
        system = example1()
        for start in (system.qring.zero, system.qring.from_const(7)):
            for cap in (-5, -1):
                with pytest.raises(ValueError, match="growth_cap must be at least 0"):
                    orbit_graph(system, [start], growth_cap=cap)
        assert orbit_graph(system, [system.qring.zero], growth_cap=0).nodes == (system.qring.zero,)


class TestEuclideanCheck:
    def test_inconclusive_when_expanding(self):
        system = validate_system(Z, parse_poly(Z, "2x+3"), [0, 1, 2])
        assert euclidean_necessary_check(system) is None

    def test_definitive_no(self):
        system = validate_system(Z, parse_poly(Z, "3x+2"), [0, 1])
        verdict = euclidean_necessary_check(system)
        assert verdict is not None and verdict.answer == "no"
        # cross-check: the orbit of w0 = p_d never reaches 0
        a = system.qring.from_const(3)
        for _ in range(2000):
            a = system.step(a)
            assert not a.is_zero

    def test_guard_on_large_digits(self):
        # one digit of Example 2 has degree >= deg p0, so no conclusion
        assert euclidean_necessary_check(example2()) is None


class TestExpandingCheck:
    def test_example1(self):
        report = expanding_check(parse_poly(Z, "3x^2-2x+5"))
        assert report.status == "expanding"

    def test_huge_coefficients(self):
        # no float conversion: a 400-digit root is counted exactly
        report = expanding_check(parse_poly(Z, "x-" + "9" * 400))
        assert report.status == "expanding"
        assert report.modulus_sq == (10**400 - 1) ** 2

    def test_gaussian_linear_exact(self):
        from digsys import ZI
        from fractions import Fraction

        report = expanding_check(parse_poly(ZI, "(1+i)x+(1+2i)"))
        assert report.status == "expanding"
        assert report.modulus_sq == Fraction(5, 2)

    def test_unit_root_borderline(self):
        report = expanding_check(parse_poly(Z, "x-1"))
        assert report.status == "borderline"

    def test_contracting(self):
        report = expanding_check(parse_poly(Z, "2x+1"))
        assert report.status == "not-expanding"

    def test_rejects_fp(self):
        with pytest.raises(ValueError):
            expanding_check(parse_poly(Fp(2), "y*x+y^2"))


class TestExactExpandingCheck:
    @pytest.mark.parametrize(
        "ring, factors, status, moduli",
        [
            (Z, [("x-1", 5)], "borderline", [1.0] * 5),
            (Z, [("x^2+1", 2)], "borderline", [1.0] * 4),
            (Z, [("x^2+x+1", 1)], "borderline", [1.0] * 2),
            # roots 2 and 1/2, a pair z, 1/conj(z)
            (Z, [("2x^2-5x+2", 1)], "not-expanding", [0.5, 2.0]),
            (Z, [("1000000000000x-1000000000001", 1)], "expanding", [1 + 1e-12]),
            # |p0| = |p2| with no pair z, 1/conj(z): roots (-3 +- 13^(1/2))/2
            (Z, [("x^2+3x-1", 1)], "not-expanding", [(13**0.5 - 3) / 2, (13**0.5 + 3) / 2]),
            (Z, [("2x+1", 2), ("x-3", 1)], "not-expanding", [0.5, 0.5, 3.0]),
            (Z, [("x^3+2x^2", 1)], "not-expanding", [0.0, 0.0, 2.0]),
            (ZI, [("(1+i)x+(1+2i)", 1)], "expanding", [2.5**0.5]),
            (ZI, [("x-i", 1)], "borderline", [1.0]),
            (ZI, [("x-i", 2), ("2x+(1+i)", 1)], "borderline", [0.5**0.5, 1.0, 1.0]),
        ],
    )
    def test_status_and_moduli(self, ring, factors, status, moduli):
        # ``moduli`` are the known root moduli, which the status summarises
        f = _product(ring, factors)
        assert len(moduli) == f.degree
        if 1.0 in moduli:
            assert status == "borderline"
        else:
            assert status == ("not-expanding" if min(moduli) < 1 else "expanding")
        assert expanding_check(f).status == status

    def test_counts_with_multiplicity(self):
        from digsys.unitcircle import GaussRational, circle_counts, squarefree_factors

        f = _product(Z, [("x-1", 3), ("x+2", 2), ("3x-1", 1), ("x^2+1", 1)])
        factors = squarefree_factors([GaussRational(c) for c in f.coeffs])
        assert sorted((len(s) - 1, k) for s, k in factors) == [(1, 2), (1, 3), (3, 1)]
        counts = [0, 0, 0]
        for s, k in factors:
            for j, n in enumerate(circle_counts(s)):
                counts[j] += k * n
        assert counts == [1, 5, 2]


def _product(ring, factors):
    """The product of ``text ** power`` over the (text, power) pairs."""
    out = Poly.make(ring, [ring.one])
    for text, power in factors:
        for _ in range(power):
            out = out * parse_poly(ring, text)
    return out


class TestExpandingOracle:
    """The exact status against ``np.roots`` on seeded random
    polynomials whose roots lie at least 1e-3 from the unit circle."""

    def test_random_polynomials(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(20261018)
        checked = {Z: 0, ZI: 0}
        while min(checked.values()) < 40:
            ring = rng.choice([Z, ZI])
            size = rng.choice([3, 20, 1000])
            parts = [
                (rng.randint(-size, size), rng.randint(-size, size) if ring == ZI else 0)
                for _ in range(rng.randint(2, 7))
            ]
            if parts[-1] == (0, 0):
                continue
            moduli = np.sort(np.abs(np.roots([complex(a, b) for a, b in reversed(parts)])))
            if np.min(np.abs(moduli - 1)) < 1e-3:
                continue
            coeffs = [a if ring == Z else GaussianInt(a, b) for a, b in parts]
            report = expanding_check(Poly.make(ring, coeffs))
            assert report.status == ("not-expanding" if moduli[0] < 1 else "expanding")
            checked[ring] += 1
