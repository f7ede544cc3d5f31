"""Print the CPU cost of one T step, in microseconds, for each shape of
the dynamics.

A shape is a coefficient ring and a base degree d: Z with d = 1, 2, 3, 4,
Z[i] with d = 1, 2, 3, and F2[y], F3[y] and F131[y].  A second Z[i] shape
with d = 2 has the 17 residues of p0 = 4+i as digits, so its closure
rows, one carry step of T per digit, are the longest.  A second Z shape
with d = 2 ("x-dig") has digits that are not constant in x, so its
closures build their own rows of coordinate deltas, two T steps per
digit, with nothing shared.  A second F3[y] shape with d = 1 ("grow")
has a lead of higher y-degree than p0, so its walk states and closure
members gain about a slot per step, and their quotients outgrow the 63
one-byte slots that F3[y] divides inline: its columns time the long
division, in chunks of 63 slots.  For each, the script
walks fixed seeded starts of a fixed system, records the flat
coordinate states (in atom form) the walks step from, and times the
system's bound step on them: the least CPU time of five passes over the
same states.  It also prints the time per step of the same walks
through ``digit_sequence`` (``us/walk step``).  Those walks step in
segments of the ``run`` loop that ``Ring.dynamics`` binds beside the
step, so the column times the run loops, plus the walker's checkpoint
and the conversion of each start to coordinates and of the recorded
digit positions to digits.  Every Z, Z[i], F2[y] and F3[y] shape here
has the straight-line kernels that ``rings._kernel`` generates for its
ring (over F_p[y], for p = 2 or odd p), d and sign of p0 (up to
``rings.KERNEL_DEGREE``): a step and a run loop that keep the state in
locals and, for a constant digit set, a closure round with no call per
member.  Over F2[y] and F3[y] the division by -p0 is one call of the
divider, which divides the quotients of "grow" past its inline bound
in chunks.  The x-digits of "x-dig"
fold into its carry tables, and its closures take the generic round.
F131[y], whose slots are two bytes wide, takes the generic step,
closure round and run loop.  The ``spread`` columns beside
``us/step`` and ``us/member`` are the largest of the five passes over
the least: a change between two runs smaller than the spread of either
is noise.  The
``walk KB`` column is the tracemalloc peak of one walk of at most 10^4
steps from the first start, less its digit tuple: the walk keeps two
states and one byte per digit, so on the shapes whose orbits grow and
run to the cap it is a small multiple of the last state.
Last, the cost of a witness closure per member it expands: the least CPU
time of five ``witness_closure`` runs of the system from the first four
walk starts, over the members expanded.  From those seeds every closure
crosses its cap, so set-up is a small share of the time.  Each run of
the ``us/member`` column starts with the process-wide tables emptied
(the interned constant digit sets with the closure rows they share, and
the F_p[y] dividers) and the system validated again, so it times a
closure that builds its own rows; the ``warm`` column times the same
closures with the rows a first run left.  Last, the set-up of a system:
the ``us/system`` column is the least CPU time of five
``validate_system`` calls, each with the tables emptied first, so that
it checks its digit set and builds its divisions anew, and the ``warm``
column beside it the same with the digit set of an earlier call
interned.  Last, the ``us/decision`` column is the whole decision that
the benchmark's ``decide_int`` workload times: ``validate_system``,
``decide_fep`` and ``decide_pep`` at closure cap 100 from the seeds of
the default mode (the basis seeds for a constant digit set), with the
tables warm; the least CPU time of five passes of 20 decisions, per
decision.  Two shapes have |p0| < |p_d|: Z with d = 1 (3x+2, digits 0, 1)
and a second Z[i] shape with d = 1 ("wide", a lead of norm 50 over
p0 = 3+2i of norm 13).  Their decisions stop at the root stage, which
builds no closure, so their ``us/decision`` column times that stage
beside ``validate_system``.

    PYTHONPATH=src python3 tools/step_cost.py

The numbers depend on the machine and gate nothing; run it with the
``src/`` of two checkouts to compare them.
"""

from __future__ import annotations

import random
import sys
import time
import tracemalloc

from digsys import (
    Fp, FpPoly, GaussianInt, Z, ZI, decide_fep, decide_pep, parse_poly, validate_system,
    witness_closure,
)
from digsys.ffds import canonical_ff_digits
from digsys.rings import _clear_shared

STATES = 3000  # least states per shape, from as many walks as it takes
CAP = 1000  # steps per walk
PASSES = 5
DIGITS = 60  # decimal digits of the integer start coefficients
Y_DEGREE = 60  # y-degree of the F_p[y] start coefficients
CLOSURE_CAP = 400  # members of a closure before it stops
CLOSURE_SEEDS = 4  # walk starts that seed the closure
WALK_CAP = 10**4  # steps of the walk whose memory peak is printed
DECISION_CAP = 100  # closure cap of the timed decisions
DECISIONS = 20  # decisions per timed pass

F2, F3, F131 = Fp(2), Fp(3), Fp(131)

# (shape, ring, base, digits: values, element literals in one string, or
# None for the canonical F_p[y] digits)
SHAPES = [
    ("Z d=1", Z, "3x+2", [0, 1]),
    ("Z d=2", Z, "3x^2-2x+5", range(5)),
    ("Z d=3", Z, "x^3+x^2+x+3", range(3)),
    ("Z d=4", Z, "x^4+x^3+x^2+x+3", range(3)),
    ("Z[i] d=1", ZI, "(1+i)x+(1+2i)", range(5)),
    ("Z[i] d=1 wide", ZI, "(7+i)x+(3+2i)", ZI.residues(GaussianInt(3, 2))),
    ("Z[i] d=2", ZI, "x^2+2x+(1+i)", [0, 1]),
    ("Z[i] d=2 N17", ZI, "(1+i)x^2+x+(4+i)", ZI.residues(GaussianInt(4, 1))),
    ("Z[i] d=3", ZI, "x^3+x^2+x+(1+2i)", ZI.residues(GaussianInt(1, 2))),
    ("F2[y] d=2", F2, "(y+1)x^2+y*x+(y^2+1)", None),
    ("F3[y] d=3", F3, "(y+1)x^3+2x+y", None),
    ("F3[y] d=1 grow", F3, "(y^2+1)x+(y+2)", None),
    ("F131[y] d=2", F131, "x^2+2x+(3y+7)", range(131)),
    ("Z d=2 x-dig", Z, "x^2+5x+6", "0, 1, x+2, x+3, 2x+4, 2x+5"),
]


def _start(rng: random.Random, ring):
    if ring == Z:
        return rng.randrange(-(10**DIGITS), 10**DIGITS)
    if ring == ZI:
        return GaussianInt(*(rng.randrange(-(10**DIGITS), 10**DIGITS) for _ in range(2)))
    return FpPoly.make(ring.p, [rng.randrange(ring.p) for _ in range(Y_DEGREE + 1)])


def measure(ring, base: str, digits, seed: int = 1) -> tuple:
    """(states, us per step and its spread, us per walk step, KB of a long
    walk, closure members expanded, us per member with the shared tables
    emptied and its spread, and with them warm, us per system set-up
    emptied and warm, us per decision warm) of one shape."""
    modulus = parse_poly(ring, base)
    if digits is None:
        digits = canonical_ff_digits(modulus)
    elif isinstance(digits, str):
        digits = [parse_poly(ring, t) for t in digits.split(",")]

    def validate():
        return validate_system(ring, modulus, digits)

    system = validate()
    q, rng, step = system.qring, random.Random(seed), system._step
    states, starts = [], []
    while len(states) < STATES:
        a = q.from_const(_start(rng, ring))
        starts.append(a)
        # the states the walk steps from: one per digit it emits
        v = ring.atoms(q.coords(a))
        for _ in system.digit_sequence(a, CAP).digits:
            states.append(v)
            v = step(v)[1]

    def steps():
        for v in states:
            step(v)

    def walks():
        for a in starts:
            system.digit_sequence(a, CAP)

    atoms = [ring.atoms(q.coords(a)) for a in starts[:CLOSURE_SEEDS]]
    members = len(witness_closure(system, atoms, CLOSURE_CAP, atoms=True).atom_succ)

    def closure():
        witness_closure(system, atoms, CLOSURE_CAP, atoms=True)

    def fresh():
        # the system holds its digit set and rows, so a cold closure needs a new one
        nonlocal system
        _clear_shared()
        system = validate()

    (per_step, step_spread), (per_walk, _) = _passes(steps), _passes(walks)
    per_step, per_walk = per_step / len(states) * 1e6, per_walk / len(states) * 1e6
    tracemalloc.start()
    try:
        seq = system.digit_sequence(starts[0], WALK_CAP)
        walk_kb = (tracemalloc.get_traced_memory()[1] - sys.getsizeof(seq.digits)) / 1024
    finally:
        tracemalloc.stop()
    cold, cold_spread = _passes(closure, before=fresh)
    cold = cold / members * 1e6
    closure()
    warm = _passes(closure)[0] / members * 1e6
    setup_cold = _passes(validate, before=_clear_shared)[0] * 1e6
    setup_warm = _passes(validate)[0] * 1e6

    def decisions():
        for _ in range(DECISIONS):
            decided = validate()
            decide_fep(decided, closure_cap=DECISION_CAP)
            decide_pep(decided, closure_cap=DECISION_CAP)

    decisions()  # fills the rows the decisions share
    per_decision = _passes(decisions)[0] / DECISIONS * 1e6
    return (
        len(states), per_step, step_spread, per_walk, walk_kb, members, cold, cold_spread,
        warm, setup_cold, setup_warm, per_decision,
    )


def _passes(run, before=None) -> tuple:
    """The least CPU time of PASSES calls of ``run``, in seconds, and the
    largest over it; ``before``, if given, is called untimed ahead of each."""
    times = []
    for _ in range(PASSES):
        if before is not None:
            before()
        t0 = time.thread_time()
        run()
        times.append(time.thread_time() - t0)
    return min(times), max(times) / max(min(times), 1e-9)


def main() -> None:
    print(
        f"{'shape':<14} {'base':<24} {'states':>6} {'us/step':>8} {'spread':>6}"
        f" {'us/walk step':>12} {'walk KB':>7} {'members':>7} {'us/member':>9} {'spread':>6}"
        f" {'warm':>6} {'us/system':>9} {'warm':>6} {'us/decision':>11}"
    )
    for shape, ring, base, digits in SHAPES:
        (
            n, per_step, step_spread, per_walk, walk_kb, members, cold, cold_spread, warm,
            setup, setup_warm, decision,
        ) = measure(ring, base, digits)
        print(
            f"{shape:<14} {base:<24} {n:>6} {per_step:>8.2f} {step_spread:>6.2f}"
            f" {per_walk:>12.2f} {walk_kb:>7.1f} {members:>7} {cold:>9.2f} {cold_spread:>6.2f}"
            f" {warm:>6.2f} {setup:>9.2f} {setup_warm:>6.2f} {decision:>11.2f}"
        )


if __name__ == "__main__":
    main()
