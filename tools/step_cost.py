"""Print the CPU cost of one T step, in microseconds, for each shape of
the dynamics.

A shape is a coefficient ring and a base degree d: Z with d = 1, 2, 3,
Z[i] with d = 1, 2, and F2[y], F3[y] and F131[y].  For each, the script
walks fixed seeded starts of a fixed system, records the flat
coordinate states (in atom form) the walks step from, and times the
system's bound step on them: the least CPU time of five passes over the
same states.  It also prints the time per step of the same walks
through ``digit_sequence``, which adds the walker's bookkeeping and the
conversion of each start to coordinates.  Z with d = 1, 2 and Z[i] with
d = 1 have a straight-line step; the other shapes take the generic one.
Last, the cost of a witness closure per member it expands: the least CPU
time of five ``witness_closure`` runs of the system from the seeds its
decisions use, at a fixed cap, over the members expanded.

    PYTHONPATH=src python3 tools/step_cost.py

The numbers depend on the machine and gate nothing; run it with the
``src/`` of two checkouts to compare them.
"""

from __future__ import annotations

import random
import time

from digsys import Fp, FpPoly, GaussianInt, Z, ZI, parse_poly, validate_system, witness_closure
from digsys.ffds import canonical_ff_digits
from digsys.witness import _seed_atoms, default_mode

STATES = 3000  # least states per shape, from as many walks as it takes
CAP = 1000  # steps per walk
PASSES = 5
DIGITS = 60  # decimal digits of the integer start coefficients
Y_DEGREE = 60  # y-degree of the F_p[y] start coefficients
CLOSURE_CAP = 400  # members of a closure before it stops

F2, F3, F131 = Fp(2), Fp(3), Fp(131)

# (shape, ring, base, digits or None for the canonical F_p[y] digits)
SHAPES = [
    ("Z d=1", Z, "3x+2", [0, 1]),
    ("Z d=2", Z, "3x^2-2x+5", range(5)),
    ("Z d=3", Z, "x^3+x^2+x+3", range(3)),
    ("Z[i] d=1", ZI, "(1+i)x+(1+2i)", range(5)),
    ("Z[i] d=2", ZI, "x^2+2x+(1+i)", [0, 1]),
    ("F2[y] d=2", F2, "(y+1)x^2+y*x+(y^2+1)", None),
    ("F3[y] d=3", F3, "(y+1)x^3+2x+y", None),
    ("F131[y] d=2", F131, "x^2+2x+(3y+7)", range(131)),
]


def _start(rng: random.Random, ring):
    if ring == Z:
        return rng.randrange(-(10**DIGITS), 10**DIGITS)
    if ring == ZI:
        return GaussianInt(*(rng.randrange(-(10**DIGITS), 10**DIGITS) for _ in range(2)))
    return FpPoly.make(ring.p, [rng.randrange(ring.p) for _ in range(Y_DEGREE + 1)])


def measure(ring, base: str, digits, seed: int = 1) -> tuple:
    """(states, us per step, us per walk step, closure members expanded,
    us per member) of one shape."""
    modulus = parse_poly(ring, base)
    system = validate_system(
        ring, modulus, canonical_ff_digits(modulus) if digits is None else digits
    )
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

    atoms = _seed_atoms(system, default_mode(system))
    members = len(witness_closure(system, atoms, CLOSURE_CAP, atoms=True).atom_succ)

    def closure():
        witness_closure(system, atoms, CLOSURE_CAP, atoms=True)

    per_step, per_walk = _best(steps) / len(states) * 1e6, _best(walks) / len(states) * 1e6
    return len(states), per_step, per_walk, members, _best(closure) / members * 1e6


def _best(run) -> float:
    """The least CPU time of PASSES calls of ``run``, in seconds."""
    times = []
    for _ in range(PASSES):
        t0 = time.thread_time()
        run()
        times.append(time.thread_time() - t0)
    return min(times)


def main() -> None:
    print(
        f"{'shape':<12} {'base':<24} {'states':>6} {'us/step':>8} {'us/walk step':>12}"
        f" {'members':>7} {'us/member':>9}"
    )
    for shape, ring, base, digits in SHAPES:
        n, per_step, per_walk, members, per_member = measure(ring, base, digits)
        print(
            f"{shape:<12} {base:<24} {n:>6} {per_step:>8.2f} {per_walk:>12.2f}"
            f" {members:>7} {per_member:>9.2f}"
        )


if __name__ == "__main__":
    main()
