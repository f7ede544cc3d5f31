"""The single-orbit walker ``DigitSystem._orbit`` and the segment runners
``run`` that ``Ring.dynamics`` binds beside ``step``.

The walker keeps a checkpoint instead of every state, so its results
are compared with ``support.element_sequence``, which steps elements
and remembers every one, at the caps where a checkpoint walk could
differ: just below, at and above the first repeat, at a checkpoint
renewal, and past the cap of a walk whose state at the cap repeats.
"""

import random
import sys
import tracemalloc

import pytest

from digsys import Fp, GaussianInt, Z, ZI, canonical_ff_digits, parse_poly, validate_system
from digsys.digits import DigitSequence

from support import (
    element_sequence, element_zero_cycle, example1, example2, gauss_example, rand_quot,
)

F2, F3 = Fp(2), Fp(3)


def z(base, digits):
    if isinstance(digits, str):
        digits = [parse_poly(Z, t) for t in digits.split(",")]
    return validate_system(Z, parse_poly(Z, base), digits)


def zi(base, digits):
    return validate_system(ZI, parse_poly(ZI, base), digits)


def ff(ring, base):
    modulus = parse_poly(ring, base)
    return validate_system(ring, modulus, canonical_ff_digits(modulus))


# every straight loop, the generic run, both signs of p0, residue parts,
# x-digits folded into the straight tables or not, and orbits that end at
# 0, in a cycle or at the cap
SYSTEMS = [
    ("Z d=1 divergent", z("3x+2", [0, 1])),
    ("Z d=1 p0<0", z("3x-2", [0, 1])),
    ("Z d=1 p0<0 cycles", z("x-3", range(-1, 2))),
    ("Z d=2 lead 3", example1()),
    ("Z d=2 5-cycle", z("3x^2-2x+4", range(4))),
    ("Z d=2 p0<0", z("x^2+3x-4", range(4))),
    ("Z d=2 negative lead", z("-2x^2+x+3", [0, 1, 2])),
    ("Z d=3", z("x^3+x^2+x+3", range(3))),
    ("Z d=3 p0<0", z("x^3+x-2", [0, 1])),
    ("Z x-digits folded", z("x^2+5x+6", "0, 1, x+2, x+3, 2x+4, 2x+5")),
    ("Z x-digits residue", z("2x^2-x+5", "0, x^3+x^2+3x+6, x^2-x+2, x^2-x+3, 4")),
    ("Z d=1 x-digits", z("2x-3", "0, x+1, 2")),
    ("Z[i] d=1", gauss_example()),
    ("Z[i] d=1 residues", zi("(2-i)x+(1+3i)", ZI.residues(GaussianInt(1, 3)))),
    ("Z[i] d=1 divergent", zi("(2+i)x+(1+i)", [0, 1])),
    ("Z[i] d=1 cycles", zi("2x+(1+3i)", ZI.residues(GaussianInt(1, 3)))),
    ("Z[i] d=1 fixed points", zi("x+(1+2i)", range(5))),
    ("Z[i] d=2", zi("2x^2+x+(2+i)", range(5))),
    ("F2 d=2", example2()),
    ("F2 d=2 canonical", ff(F2, "(y^2+1)x^2+x+(y^2+y)")),
    ("F3 d=1", ff(F3, "y*x+(y^2+2)")),
    ("F3 d=3", ff(F3, "(y+1)x^3+2x+y")),
]


def renewals(limit: int) -> list:
    """The steps at which the walker renews its checkpoint, up to limit."""
    out, end = [], 32
    while end <= limit:
        out.append(end)
        end += max(32, end // 8)
    return out


def at_cap(seq: DigitSequence, cap: int) -> DigitSequence:
    """The walk ``seq``, taken with a cap of at least ``cap``, as a walk
    capped at ``cap`` ends: the same when it ended within ``cap`` steps,
    else capped after the first ``cap`` digits."""
    if seq.kind == "finite" and seq.steps <= cap:
        return seq
    if seq.kind == "eventually-periodic" and seq.preperiod + seq.period <= cap:
        return seq
    return DigitSequence(seq.digits[:cap], "unknown", cap=cap)


def walk_length(seq: DigitSequence) -> int:
    if seq.kind == "finite":
        return seq.steps
    if seq.kind == "eventually-periodic":
        return seq.preperiod + seq.period
    return seq.cap


class TestCrossOracle:
    LIMIT = 400  # the longest element walk

    @pytest.mark.parametrize("name, system", SYSTEMS, ids=[n for n, _ in SYSTEMS])
    def test_caps_match_element_walk(self, name, system):
        rng = random.Random(sum(map(ord, name)))
        boundaries = {c for e in renewals(self.LIMIT) for c in (e - 1, e, e + 1)}
        for size in (3, 20, 10**6, 10**40, 10**40):
            a = rand_quot(rng, system, extra_degree=rng.randint(0, 4), size=size)
            full = element_sequence(system, a, self.LIMIT)
            assert system._orbit(a, self.LIMIT) == full, name
            n = walk_length(full)
            caps = {0, 1, 2, 3, n - 1, n, n + 1} | {c for c in boundaries if c < self.LIMIT}
            if full.kind == "eventually-periodic":
                caps.add(full.preperiod + 2 * full.period)
                for cap in (n - 1, n, n + 1):
                    if cap >= 0:
                        assert system._orbit(a, cap) == element_sequence(system, a, cap), name
            for cap in sorted(c for c in caps if 0 <= c <= self.LIMIT):
                assert system._orbit(a, cap) == at_cap(full, cap), (name, cap)

    def test_preperiods_across_renewals(self):
        # the 5-cycle of the benchmark's cycle system, entered after 34 to
        # about 500 steps from starts of 2 to 40 digits: the cycle starts on
        # both sides of many checkpoint renewals
        system = z("3x^2-2x+4", range(4))
        rng = random.Random(3)
        starts = set()
        for k in range(2, 41):
            a = system.qring.from_const(rng.randrange(10**k))
            full = element_sequence(system, a, 10**4)
            n = walk_length(full)
            if full.kind == "eventually-periodic":
                starts.add(full.preperiod)
            assert system._orbit(a, n - 1) == element_sequence(system, a, n - 1)
            for cap in (n, n + 1, 10**4):
                assert system._orbit(a, cap) == at_cap(full, cap), (k, cap)
        assert min(starts) < 64 and max(starts) > 400

    def test_every_kind_is_covered(self):
        kinds = set()
        for name, system in SYSTEMS:
            rng = random.Random(sum(map(ord, name)))
            for size in (3, 20, 10**6, 10**40, 10**40):
                a = rand_quot(rng, system, extra_degree=rng.randint(0, 4), size=size)
                kinds.add(system._orbit(a, TestCrossOracle.LIMIT).kind)
        assert kinds == {"finite", "eventually-periodic", "unknown"}

    def test_zero_cycles_match(self):
        for name, system in SYSTEMS:
            for cap in (1, 2, 5, 60):
                assert system.zero_cycle(cap) == element_zero_cycle(system, cap), (name, cap)

    def test_negative_cap_raises(self):
        system = example1()
        with pytest.raises(ValueError, match="cap must be at least 0"):
            system._orbit(system.qring.one, -1)


class TestLongCycles:
    """Periods far longer than the first checkpoint segments, on the
    straight loops of d = 1 and d = 2."""

    @pytest.mark.parametrize(
        "base, start, preperiod, period", [("x-2", -3000, 2, 515), ("x^2+2", -3000, 5, 2060)]
    )
    def test_period_and_cap_boundary(self, base, start, preperiod, period):
        system = z(base, [0, 1031])
        a = system.qring.from_const(start)
        full = element_sequence(system, a, 10**4)
        assert (full.kind, full.preperiod, full.period) == ("eventually-periodic", preperiod, period)
        n = preperiod + period
        for cap in (n - 1, n, n + 1, preperiod + 2 * period, 10**4):
            assert system._orbit(a, cap) == at_cap(full, cap), cap
        assert system._orbit(a, n - 1) == element_sequence(system, a, n - 1)


class TestWideDigitSets:
    """More than 256 digits: positions no longer fit a byte, so the walk
    records them in a list and searches past the cap in a string."""

    def test_capped_and_periodic_walks(self):
        rng = random.Random(256)
        kinds = set()
        for system in (
            z("301x+300", range(300)),  # every orbit grows
            z("-x^2+x+300", range(300)),  # 2-cycles
            zi("x+(16+i)", ZI.residues(GaussianInt(16, 1))),
        ):
            assert len(system.digit_set.carry) > 256
            for size in (3, 10**6, 10**30, 10**30):
                a = rand_quot(rng, system, extra_degree=2, size=size)
                full = element_sequence(system, a, 120)
                kinds.add(full.kind)
                n = walk_length(full)
                for cap in sorted({0, 1, 2, 33, n - 1, n, n + 1, 120}):
                    if 0 <= cap <= 120:
                        assert system._orbit(a, cap) == at_cap(full, cap), (system, cap)
        assert kinds == {"finite", "unknown", "eventually-periodic"}

    def test_cycle_found_past_the_cap(self):
        # -150 -> -1 -> -1: the walk meets its first repeat at step 2, and
        # with a cap of 2 only the search past the cap finds it
        system = z("x-300", range(300))
        a = system.qring.from_const(-150)
        full = element_sequence(system, a, 50)
        assert (full.kind, full.preperiod, full.period) == ("eventually-periodic", 1, 1)
        for cap in (1, 2, 3):
            assert system._orbit(a, cap) == element_sequence(system, a, cap)


RUN_SYSTEMS = [
    ("Z d=1", z("3x+2", [0, 1])),
    ("Z d=1 x-digits", z("2x-3", "0, x+1, 2")),
    ("Z d=1 p0<0", z("3x-2", [0, 1])),
    ("Z d=2", example1()),
    ("Z d=2 p0<0", z("x^2+3x-4", range(4))),
    ("Z d=2 x-digits", z("x^2+5x+6", "0, 1, x+2, x+3, 2x+4, 2x+5")),
    ("Z d=3", z("x^3+x^2+x+3", range(3))),
    ("Z[i] d=1", gauss_example()),
    ("Z[i] d=1 monic", zi("x+(1+2i)", range(5))),
    ("Z[i] d=2", zi("2x^2+x+(2+i)", range(5))),
    ("F2 d=2", example2()),
]


class TestRunLoops:
    """Each ``run`` against repeated ``step`` from random states, with
    checkpoints met, missed and of another length."""

    @pytest.mark.parametrize("name, system", RUN_SYSTEMS, ids=[n for n, _ in RUN_SYSTEMS])
    def test_run_matches_repeated_step(self, name, system):
        rng = random.Random(sum(map(ord, name)))
        q, ring, step = system.qring, system.ring, system._step
        position, nil = system.digit_set.position, ring.atoms((ring.zero,) * q.d)
        for trial in range(200):
            a = rand_quot(rng, system, extra_degree=rng.randint(0, 3), size=rng.choice([2, 50, 10**30]))
            v = ring.atoms(q.coords(a))
            if trial % 2:  # a state of d coordinates, which the straight loops take
                for _ in range(len(v) - q.d):
                    v = step(v)[1]
            count = rng.randint(1, 40)
            states, positions = [v], []
            for _ in range(count):
                r, w = step(states[-1])
                positions.append(position[r])
                states.append(w)
            choice = trial // 2 % 4
            if choice == 0:
                checkpoint = states[rng.randint(1, count)]
            elif choice == 1:
                checkpoint = states[0]
            elif choice == 2:
                checkpoint = states[-1] + (ring.atoms((ring.one,))[0],)  # another length
            else:
                checkpoint = ring.atoms(q.coords(rand_quot(rng, system)))
            stop = next(
                (k for k in range(1, count + 1) if states[k] == checkpoint or states[k] == nil),
                count,
            )
            got = []
            assert system._run(v, count, checkpoint, got.append) == (stop, states[stop]), name
            assert got == positions[:stop], name

    def test_zero_stops_the_run(self):
        system = example1()
        q, ring = system.qring, system.ring
        a = q.from_const(12345)
        seq = system.digit_sequence(a)
        assert seq.kind == "finite"
        got = []
        n, state = system._run(ring.atoms(q.coords(a)), seq.steps + 10, (), got.append)
        assert (n, state) == (seq.steps, (0, 0))
        assert [system.digits[i] for i in got] == list(seq.digits)


def test_capped_walk_memory_is_a_multiple_of_its_last_state():
    """A capped walk of the divergent 3x+2 keeps a checkpoint, not its
    states: its peak, less its digit tuple, stays within a fixed multiple
    of its last state, whose size grows with the cap like the record of
    one byte per step does."""
    system = z("3x+2", [0, 1])
    q = system.qring
    a = q.from_const(7)
    start = Z.atoms(q.coords(a))
    for cap in (10**4, 10**5):
        _, last = system._run(start, cap, (), lambda position: None)
        tracemalloc.start()
        try:
            seq = system.digit_sequence(a, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.kind == "unknown" and len(seq.digits) == cap
        assert peak - sys.getsizeof(seq.digits) < 64 * sys.getsizeof(last[0]), cap
