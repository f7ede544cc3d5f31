"""The breadth-first round of every closure kernel against the element
oracle: ``witness_closure`` runs the ``expand`` of ``Ring.dynamics`` (the
straight-line loops of Z with d = 1, 2 and Z[i] with d = 1, 2, the generic
loop otherwise), and ``support.full_row_closure`` steps elements.  Every
cap below the closure's size is compared, so the cap is crossed at T(v),
inside a row, and by the seeds alone."""

import random

import pytest

from digsys import (
    Fp, GaussianInt, Z, ZI, canonical_ff_digits, parse_poly, product_digit_set,
    validate_system, witness,
)
from digsys.rings import _clear_shared

from support import assert_closure_matches_full_rows, rand_quot

F2, F3 = Fp(2), Fp(3)
LISTED = ("0", "1", "x+2", "x+3", "2x+4", "2x+5")

# (name, ring, base, digits: values, element literals, None for the
# canonical F_p[y] digits, or "product" for the product digits of
# (x+2)(x+3)); "straight" marks the shapes with inline loops, "long" one
# whose members at cap 300 have quotients of more than two one-byte chunks
SHAPES = [
    ("Z-d1-straight", Z, "3x+2", [0, 1]),
    ("Z-d1-negative-p0-straight", Z, "2x-5", [0, 1, 2, 3, 4]),
    ("Z-d2-straight", Z, "3x^2-2x+5", range(5)),
    ("Z-d2-symmetric-straight", Z, "3x^2-2x+5", range(-2, 3)),
    ("Z-d2-negative-p0-straight", Z, "-2x^2+x-3", [0, 1, 2]),
    ("Zi-d1-straight", ZI, "(1+i)x+(1+2i)", range(5)),
    ("Zi-d2-straight", ZI, "(1+i)x^2+x+(4+i)", ZI.residues(GaussianInt(4, 1))),
    ("Zi-d2-monic-straight", ZI, "x^2+2x+(1+i)", [0, 1]),
    ("Z-d3", Z, "2x^3+x^2+x+3", range(3)),
    ("Z-d3-negative-p0", Z, "x^3+x^2+x-3", [0, 1, 2]),
    ("F2-d2", F2, "(y+1)x^2+y*x+(y^2+1)", [F2.parse(t) for t in ("1", "y", "y+1", "y^3+y")]),
    ("F2-d2-canonical", F2, "x^2+(y^2+y+1)", None),
    ("F3-d2-canonical", F3, "(y^2+1)x^2+y*x+(y+1)", None),
    ("F3-d3-canonical", F3, "(y+1)x^3+2x+y", None),
    ("F3-d1-canonical-long", F3, "(y^2+1)x+(y+2)", None),
    ("x2+5x+6-listed", Z, "x^2+5x+6", LISTED),
    ("x2+5x+6-product", Z, "x^2+5x+6", "product"),
]
NAMES = [name for name, *_ in SHAPES]


def build(name):
    """The system of shape ``name``, validated after the shared tables
    were emptied, so that its closures build their rows: the straight
    loops pass a member whose row is missing to the generic one."""
    _, ring, base, digits = SHAPES[NAMES.index(name)]
    _clear_shared()
    modulus = parse_poly(ring, base)
    if digits == "product":
        x2, x3 = parse_poly(ring, "x+2"), parse_poly(ring, "x+3")
        system = product_digit_set(ring, x2, [0, 1], x3, [0, 1, 2]).combined
        assert system.modulus == modulus
        return system
    if digits is None:
        digits = canonical_ff_digits(modulus)
    elif digits is LISTED:
        digits = [parse_poly(ring, t) for t in digits]
    return validate_system(ring, modulus, digits)


def seed_sets(system, rng):
    """The basis seeds (constant digits), the power seeds, and the power
    seeds with three seeded random elements, each as sorted atoms."""
    atoms, coords = system.ring.atoms, system.qring.coords
    modes = ("brunotte", "power") if system.digits_constant else ("power",)
    out = [witness._seed_atoms(system, mode) for mode in modes]
    extra = {atoms(coords(rand_quot(rng, system, size=6))) for _ in range(3)}
    return out + [tuple(sorted(set(out[-1]) | extra))]


def crossing(system, seed, cap, closure):
    """How ``closure`` (capped at ``cap``) crossed its cap: "seeds" when
    the seeds alone are more, else "T(v)" when the member that crossed is
    the e = 0 image of the last member expanded, "row" when it is a shift
    image.  Members join in one fixed order, so the one that crossed is
    what the closure at cap - 1 lacks."""
    if len(set(seed)) > cap:
        return "seeds"
    before = witness.witness_closure(system, seed, cap - 1, atoms=True)
    (joined,) = closure.atoms - before.atoms
    return "T(v)" if joined == list(closure.atom_succ.values())[-1] else "row"


@pytest.mark.parametrize("name", NAMES)
def test_matches_full_rows(name):
    system = build(name)
    rng = random.Random(sum(map(ord, name)))
    kinds, longest = set(), 0
    for seed in seed_sets(system, rng):
        # every cap up to the first that stabilises, or 40 members
        for cap in range(0, 41):
            closure = assert_closure_matches_full_rows(system, seed, cap)
            if closure.stabilized:
                break
            kinds.add(crossing(system, seed, cap, closure))
        closure = assert_closure_matches_full_rows(system, seed, 300)
        # the bound step, straight where the loops are, is T as well
        assert all(system._step(v)[1] == w for v, w in closure.atom_succ.items()), name
        if name.endswith("-long"):
            longest = max([longest] + [a.bit_length() for v in closure.atoms for a in v])
    assert "seeds" in kinds and "T(v)" in kinds, name
    if name.endswith("-long"):
        # F3[y] divides quotients longer than 63 slots in chunks of 63
        assert longest > 8 * 2 * 63, longest
    if "canonical" not in name:
        assert "row" in kinds, name  # canonical F_p[y] rows are empty


def test_straight_rounds_meet_residue_parts():
    # the power seeds of a base that is not monic have residue parts, so
    # members of length != d take the generic path inside a straight round
    for name in NAMES:
        if "straight" in name and "monic" not in name:
            system = build(name)
            expanded = [
                v
                for seed in seed_sets(system, random.Random(1))
                for v in witness.witness_closure(system, seed, 300, atoms=True).atom_succ
            ]
            assert any(len(v) != system.qring.d for v in expanded), name
