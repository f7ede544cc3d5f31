"""The breadth-first round of every closure kernel against the element
oracle: ``witness_closure`` runs the ``expand`` of ``Ring.dynamics`` (the
generated straight-line kernels of Z, Z[i] and F_p[y] with d up to
``KERNEL_DEGREE``, the generic loop otherwise), and
``support.full_row_closure`` steps elements.  Every cap below the
closure's size is compared, so the cap is crossed at T(v), inside a row,
and by the seeds alone."""

import random

import pytest

from digsys import (
    Fp, GaussianInt, Z, ZI, canonical_ff_digits, parse_poly, product_digit_set,
    validate_system, witness,
)
from digsys import rings
from digsys.rings import KERNEL_DEGREE, _clear_shared

from support import assert_closure_matches_full_rows, rand_quot

F2, F3 = Fp(2), Fp(3)
LISTED = ("0", "1", "x+2", "x+3", "2x+4", "2x+5")
# the digits r + y*p0 (r != 0) of p0 = y+2 over F3: every residue but 0
# has the carry y, and every member has siblings
F3_CARRIES = [r + F3.parse("y^2+2y") if r else r for r in F3.residues(F3.parse("y+2"))]

# (name, ring, base, digits: values, element literals (in one string),
# None for the canonical F_p[y] digits, or "product" for the product
# digits of (x+2)(x+3)); "long" marks one whose members at cap 300 have
# quotients of more than two one-byte chunks
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
    ("Z-d4", Z, "2x^4+x^3-x^2+x+3", range(3)),
    ("Z-d4-negative-p0", Z, "x^4+x^2+x-3", [0, 1, 2]),
    ("Z-d8-limit", Z, "2x^8+x^5-x^2+x+3", range(-1, 2)),
    ("Z-d9-generic", Z, "x^9+x^4+x+3", range(3)),
    ("Zi-d3", ZI, "(1+i)x^3+x^2+x+(2+i)", ZI.residues(GaussianInt(2, 1))),
    ("Zi-d3-monic", ZI, "x^3+i*x+(2+i)", ZI.residues(GaussianInt(2, 1))),
    ("Z-d3-x-digits", Z, "x^3+x^2+2x+3", "0, x+1, x^2+2"),
    ("Z-d2-x-digits-negative-p0", Z, "x^2+x-3", "0, x+1, x+2"),
    ("F2-d2", F2, "(y+1)x^2+y*x+(y^2+1)", [F2.parse(t) for t in ("1", "y", "y+1", "y^3+y")]),
    ("F2-d2-canonical", F2, "x^2+(y^2+y+1)", None),
    ("F3-d2-canonical", F3, "(y^2+1)x^2+y*x+(y+1)", None),
    ("F3-d3-canonical", F3, "(y+1)x^3+2x+y", None),
    ("F3-d1-canonical-long", F3, "(y^2+1)x+(y+2)", None),
    ("F2-d1-canonical", F2, "(y+1)x+(y^2+y+1)", None),
    ("F2-d3-canonical", F2, "x^3+y*x^2+x+(y^2+1)", None),
    ("F2-d8-limit-canonical", F2, "x^8+y*x^5+x^2+(y+1)x+(y^2+y+1)", None),
    ("F2-d9-generic-canonical", F2, "x^9+x^4+y*x+(y^2+y+1)", None),
    ("F3-d1-canonical", F3, "y*x+(y^2+2)", None),
    ("F3-d2-carries", F3, "(y^2+1)x^2+x+(y+2)", F3_CARRIES),
    ("F3-d8-limit-canonical", F3, "x^8+2x^3+y*x+(y+2)", None),
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
    elif isinstance(digits, str):
        digits = [parse_poly(ring, t) for t in digits.split(",")]
    elif digits is LISTED:
        digits = [parse_poly(ring, t) for t in digits]
    return validate_system(ring, modulus, digits)


def kernel(system):
    """The file name of the generated kernel that steps ``system``, or None
    when the generic ``_build`` does."""
    name = system._step.__code__.co_filename
    return name if name.startswith("<T kernel") else None


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
        # the bound step, generated where the shape has a kernel, is T on elements
        q, ring = system.qring, system.ring
        for v in closure.atoms:
            x = q.from_coords(ring.values(v))
            assert system._step(v)[1] == ring.atoms(q.coords(system.step(x))), name
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
    # members of length != d take the generic path inside a generated round
    for name in NAMES:
        system = build(name)
        if kernel(system) and system.modulus.lead != system.ring.one:
            expanded = [
                v
                for seed in seed_sets(system, random.Random(1))
                for v in witness.witness_closure(system, seed, 300, atoms=True).atom_succ
            ]
            assert any(len(v) != system.qring.d for v in expanded), name


def test_residue_parts_fall_back_mid_round():
    # the power seeds of a lead that is not a unit have residue parts, and
    # sorted among the basis seeds they sit between members of d
    # coordinates in the first round of a generated F_p[y] closure; each
    # round adds, in order, what the generic round of ``_build`` adds
    inside = set()
    for name in NAMES:
        system = build(name)
        if system.ring in (Z, ZI) or not kernel(system) or system.modulus.lead == system.ring.one:
            continue
        q, d = system.qring, system.qring.d
        generic = system.ring._generic(
            system.modulus.coeffs, system.digit_set, system._offsets,
            lambda coords: q.coords(q.from_coords(coords)),
        )[1](system.digit_set)
        straight = witness._grow(system)
        seeds = witness._seed_atoms(system, "power") + witness._seed_atoms(system, "brunotte")
        frontier = sorted(set(seeds))
        members, succ, twin, twin_succ = set(frontier), {}, set(frontier), {}
        for _ in range(6):
            lengths = [len(v) != d for v in frontier]
            if any(lengths[1:-1]) and not all(lengths[1:-1]):
                inside.add(name)
            new = straight(frontier, members, succ, 200)
            assert new == generic(frontier, twin, twin_succ, 200), name
            assert members == twin and list(succ.items()) == list(twin_succ.items()), name
            if not new or len(members) > 200:
                break
            frontier = new
    assert {"F2-d2", "F3-d1-canonical-long", "F3-d2-carries"} <= inside, inside


def test_each_shape_has_its_kernel():
    # Z, Z[i] and F_p[y] up to the degree limit are generated, per sign of
    # p0 over Z and with x-digits folded, and over F_p[y] for a constant
    # digit set, one shape for p = 2 and one for odd p; larger d take the
    # generic kernels
    for name in NAMES:
        system = build(name)
        ring, d, p0 = system.ring, system.qring.d, system.qring.p0
        if ring == Z and d <= KERNEL_DEGREE:
            sign = "p0>0" if p0 > 0 else "p0<0"
            folded = "" if system.digits_constant else " x-digits"
            want = f"<T kernel Z d={d} {sign}{folded}>"
        elif ring == ZI and d <= KERNEL_DEGREE:
            want = f"<T kernel Z[i] d={d}>"
        elif ring == F2 and d <= KERNEL_DEGREE:
            want = f"<T kernel F2[y] d={d}>"
        elif ring == F3 and d <= KERNEL_DEGREE:
            want = f"<T kernel F_p[y] d={d} p>2>"
        else:
            want = None
        assert kernel(system) == want, name
        if want:
            assert system._run.__code__.co_filename == want, name


def test_one_code_object_per_shape():
    a = validate_system(Z, parse_poly(Z, "3x^2-2x+5"), range(5))
    b = validate_system(Z, parse_poly(Z, "x^2+7x+11"), range(11))
    assert a._step.__code__ is b._step.__code__ and a._run.__code__ is b._run.__code__
    c = validate_system(Z, parse_poly(Z, "3x^2-2x-5"), range(5))  # the other sign of p0
    assert c._step.__code__ is not a._step.__code__
    # the cache holds one compiled kernel per shape, however many systems
    rings._kernel.cache_clear()
    for d in range(1, KERNEL_DEGREE + 3):
        for p0 in (3, -3, 5):
            validate_system(Z, parse_poly(Z, f"x^{d}+{p0}"), range(abs(p0)))
        for p0 in ("2+i", "1+2i"):
            validate_system(ZI, parse_poly(ZI, f"x^{d}+({p0})"), range(5))
        for ring, p0s in ((F2, ("y+1", "y^2+y+1")), (F3, ("y+2", "2y^2+1"))):
            for p0 in p0s:
                modulus = parse_poly(ring, f"x^{d}+({p0})")
                validate_system(ring, modulus, canonical_ff_digits(modulus))
    assert rings._kernel.cache_info().currsize == 5 * KERNEL_DEGREE
