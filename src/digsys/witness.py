"""Witness sets: finite certificates for expansion properties.

A witness set for a submodule S of R contains additive generators of S
(with their inverses) and is closed under A -> T(A + e) for every
digit e.  When every witness reaches 0 under T, every element of S
has a finite expansion, and by the reduction theorems for the
power-basis module and the shifted-coefficient basis module this
decides the property for all of R.

The closure operator here also includes e = 0, so plain T-images of
witnesses stay inside the set and orbit checks never leave it.  The
norm bound for closure finiteness is not computed; termination is
detected by set stabilisation under a size cap: the search stops at
the member that crosses it, so a capped closure holds cap + 1 members
(or just its seeds, when they alone are more), and the decisions answer
"unknown".  Over Z and Z[i] they answer "unknown" without a search when
|p0| < |p_d|: P then has a root inside the unit circle, and no closure
can stabilise at any cap (``_root_inside``).  Over F_p[y] every search
runs: the argument needs seeds that generate the module additively.

One breadth-first search builds every closure, one round per call of
the ``expand`` that the system's ``Ring.dynamics`` binds (``rings._build``
writes it): one loop that, for each member v of the frontier, adds T(v)
first, then each distinct T(v + e) != T(v) in digit order, skipping
what the closure holds, as it would add the images of every digit; over
Z, Z[i] and F_p[y] with d up to ``rings.KERNEL_DEGREE`` the loop of a
constant digit set is straight-line code generated for its shape
(``rings._kernel``), with no call per member.  Members are the flat
standard-representation coordinates of ``QuotRing.coords``, for every
digit set and seed, in the atom form of the ring (``Ring.atoms``: the
values over Z, plain ``(re, im)`` int pairs over Z[i], packed ints over
F_p[y]), so set membership and the per-residue tables hash and compare
in C.  The basis w_i has the coordinates e_i, so the decisions build
the basis seeds as +-e_i (and +-i*e_i over Z[i]); only power seeds are
converted.  The round divides the carry of v by p0 once per member; what
T(v + e) adds to T(v) then depends only on its residue r and on e, so
one row of those deltas per residue r, taken from T itself, is built
when r first appears, and a shift image of a constant digit set costs
one addition.  This module passes the system's ``DigitSet``, or the
digits' coordinates when they are not constant.  The rows of a constant
digit set depend only on (ring, p0, its digits), so they live on that
set, interned per key for the process in a table of at most 256 digit
sets and 2^16 entries (``rings._DigitSets``); a shared row is the row a
fresh closure builds, so no closure depends on what the table holds,
and the basis seeds are built once per ring and degree.  The decisions
read the atoms;
they become elements only when ``WitnessClosure.elements`` or a
certificate (the "orbit_steps" mapping of a "yes" too) is first read,
and ring-value coordinates only when ``members`` or ``succ`` is.

The closure records the e = 0 image T(v) of every member it expands
(``WitnessClosure.atom_succ``), so the orbit statuses behind the finite
expansion decision come from one ``digits.orbit_statuses`` pass over that
functional graph, with 0 as its stop, instead of stepping T again, and
convert only the cycles they report.
``decide_fep``, ``decide_pep`` and the CLI share one cached closure per
system: the most recent (system, mode, cap) closure is kept, so deciding
both properties, or listing the closure beside them, builds it once.

Over a polynomial coefficient ring F_p[y] no finite set can additively
generate the module, so a "yes" there rests on the stabilised closure
alone (the verdict says so), while "no" is always backed by an
explicit cycle avoiding 0.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from . import unitcircle
from .digits import DigitSystem, orbit_statuses
from .polyquot import Poly, QuotRing
from .rings import GaussianInt, GaussianIntegerRing, FpPolynomialRing, Z

DEFAULT_CLOSURE_CAP = 10**5


@dataclass(frozen=True)
class WitnessClosure:
    """A witness closure as found.  ``atoms`` are the flat coordinates
    (``QuotRing.coords``) of its elements in the atom form of the ring
    (``Ring.atoms``), ``seed_atoms`` those of its seeds, and ``atom_succ``
    maps each expanded one to that of T(member), totally once stabilised.
    ``members`` and ``succ`` are the same in ring values, ``elements`` and
    ``seed`` the elements; each is converted on first read."""

    atoms: frozenset
    seed_atoms: frozenset
    stabilized: bool
    rounds: int
    cap: int
    qring: QuotRing
    atom_succ: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def seed(self) -> frozenset:
        values, from_coords = self.qring.ring.values, self.qring.from_coords
        return frozenset(from_coords(values(v)) for v in self.seed_atoms)

    @cached_property
    def members(self) -> frozenset:
        return frozenset(map(self.qring.ring.values, self.atoms))

    @cached_property
    def succ(self) -> dict:
        values = self.qring.ring.values
        return {values(v): values(w) for v, w in self.atom_succ.items()}

    @cached_property
    def _element_of(self) -> dict:
        """Atoms -> element, converted once and shared with ``elements``."""
        values, from_coords = self.qring.ring.values, self.qring.from_coords
        return {v: from_coords(values(v)) for v in self.atoms}

    @cached_property
    def elements(self) -> frozenset:
        return frozenset(self._element_of.values())

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass
class Verdict:
    """Answer to an FEP/PEP query with a re-checkable certificate."""

    prop: str  # "fep" | "pep"
    answer: str  # "yes" | "no" | "unknown"
    reason: str
    witnesses: int | None = None
    stabilized: bool | None = None
    certificate: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OrbitGraph:
    """The functional graph of T on a finite set (out-degree one)."""

    system: DigitSystem
    nodes: tuple
    succ: dict

    def edges(self):
        return tuple((v, self.succ[v]) for v in self.nodes)

    def to_dot(self) -> str:
        fmt = self.system.qring.format
        lines = ["digraph T {"]
        for v in self.nodes:
            lines.append(f'  "{fmt(v)}" -> "{fmt(self.succ[v])}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExpandingReport:
    """Where the roots of a base polynomial lie about the unit circle.

    ``status`` is exact: "borderline" when a root lies on |z| = 1,
    otherwise "not-expanding" when a root lies inside and "expanding"
    when every root lies outside.
    """

    status: str  # "expanding" | "not-expanding" | "borderline"
    modulus_sq: Fraction | None  # exact |root|^2 for linear polynomials


def default_mode(system: DigitSystem) -> str:
    """The seeds a decision uses unless told otherwise: the basis module
    of the reduction theorem for a constant digit set, else the powers."""
    return "brunotte" if system.digits_constant else "power"


def seed_witnesses(system: DigitSystem, mode: str = "brunotte") -> frozenset:
    """Additive generators (and inverses) of the reduction module.

    mode "brunotte": the basis w_0..w_{d-1}; requires constant digits.
    mode "power": the powers 1, X, ..., X^{k-1} for the system's k.
    Over the Gaussian integers the i-multiples are included so that the
    seeds really generate additively.
    """
    _check_mode(system, mode)
    qring = system.qring
    if mode == "brunotte":
        gens = list(qring.brunotte_basis())
    else:
        gens = []
        cur = qring.one
        for _ in range(system.k):
            gens.append(cur)
            cur = qring.mul_x(cur)
    if isinstance(system.ring, GaussianIntegerRing):
        gens += [qring.scale(g, GaussianInt(0, 1)) for g in gens]
    out = set()
    for g in gens:
        out.add(g)
        out.add(-g)
    return frozenset(out)


def _check_mode(system: DigitSystem, mode: str) -> None:
    """ValueError unless ``mode`` names seeds that ``system`` has."""
    if mode not in ("brunotte", "power"):
        raise ValueError(f"unknown witness mode {mode!r}")
    if mode == "brunotte" and not system.digits_constant:
        raise ValueError("basis witnesses require a constant digit set")


def witness_closure(
    system: DigitSystem, seed, cap: int = DEFAULT_CLOSURE_CAP, *, atoms: bool = False
) -> WitnessClosure:
    """Least set containing the seed and closed under v -> T(v + e)
    for e in N and e = 0, or a flagged partial set of cap + 1 members (or
    just the seeds, when they are more) when the cap is crossed.  ``seed``
    holds elements, or with ``atoms`` the atoms of their coordinates; a
    negative ``cap`` raises ValueError."""
    if cap < 0:
        raise ValueError("cap must be at least 0")
    qring = system.qring
    if not atoms:
        seed = [system.ring.atoms(qring.coords(v)) for v in seed]
    seed = frozenset(seed)
    expand = _grow(system)
    # breadth first from the sorted seeds: ``rounds`` counts levels, and the
    # members found are the same for every route to the seeds and hash seed
    frontier = sorted(seed)
    elements = set(frontier)
    succ = {}
    rounds = 0
    while frontier and len(elements) <= cap:
        frontier = expand(frontier, elements, succ, cap)
        rounds += 1
    return WitnessClosure(frozenset(elements), seed, not frontier, rounds, cap, qring, succ)


def _grow(system: DigitSystem):
    """The breadth-first round of one closure, ``expand(frontier, members,
    succ, cap)`` of ``Ring.dynamics``, given the system's digit set, or the
    digits' coordinates when they are not constant."""
    if system.digits_constant:
        return system._grow(system.digit_set)
    return system._grow([system.qring.coords(e) for e in system.digits if not e.is_zero])


def _seed_atoms(system: DigitSystem, mode: str) -> tuple:
    """The atoms of ``seed_witnesses(system, mode)``, sorted, so that
    closures list them in one order whatever the hash seed."""
    if mode == "brunotte" and system.digits_constant:
        return _basis_atoms(system.ring, system.qring.d)
    atoms, coords = system.ring.atoms, system.qring.coords
    return tuple(sorted(atoms(coords(g)) for g in seed_witnesses(system, mode)))


@lru_cache(maxsize=64)
def _basis_atoms(ring, d: int) -> tuple:
    """The basis seeds of every base of degree d over ``ring``: w_i has the
    coordinates e_i, so they are +-e_i (and +-i*e_i over Z[i])."""
    units = [ring.one, -ring.one]
    if isinstance(ring, GaussianIntegerRing):
        units += [GaussianInt(0, 1), GaussianInt(0, -1)]
    nil = (ring.zero,) * d
    seeds = (ring.atoms(nil[:i] + (u,) + nil[i + 1 :]) for u in units for i in range(d))
    return tuple(sorted(seeds))


@lru_cache(maxsize=1)
def _closure(system: DigitSystem, mode: str, cap: int) -> WitnessClosure:
    """The closure of the ``mode`` seeds of ``system``, shared by its
    decisions.  Only the latest closure is kept, so memory stays bounded;
    ``DigitSystem`` hashes by identity and the cache holds the system, so
    a key never matches another system.  Callers must not mutate it."""
    return witness_closure(system, _seed_atoms(system, mode), cap, atoms=True)


class _OrbitSteps(Mapping):
    """The "orbit_steps" of a "yes": closure element -> steps to 0, from
    the atom statuses, converted to elements on first lookup or iteration."""

    def __init__(self, closure: WitnessClosure, status: dict):
        self._closure, self._status = closure, status

    @cached_property
    def _steps(self) -> dict:
        element_of, status = self._closure._element_of, self._status
        return {element_of[v]: status[v][1] for v in self._closure.atoms}

    def __getitem__(self, element):
        return self._steps[element]

    def __iter__(self):
        return iter(self._steps)

    def __len__(self) -> int:
        return len(self._closure)


def verify_witness_set(system: DigitSystem, elements, generators) -> tuple[bool, list]:
    """Check generator containment and closure under v -> T(v + e), e in N.

    Returns (ok, violations); violations are ("generator", g) or
    (v, e, image) triples.
    """
    qring = system.qring
    vset = set(elements)
    violations = []
    for g in sorted(set(generators), key=qring.sort_key):
        if g not in vset:
            violations.append(("generator", g))
    for v in sorted(vset, key=qring.sort_key):
        for e in system.digits:
            w = system.step(v + e)
            if w not in vset:
                violations.append((v, e, w))
    return not violations, violations


def _generation_caveat(system: DigitSystem) -> str:
    # no finite set generates the reduction module additively over F_p[y];
    # a positive answer there rests on the stabilised closure alone
    if isinstance(system.ring, FpPolynomialRing):
        return " (positive answers over F_p[y] rest on the stabilised closure)"
    return ""


def _orbit_statuses(system: DigitSystem, closure: WitnessClosure) -> tuple[dict, list]:
    """For each member (its atoms) of a stabilised closure, whether its
    orbit under ``closure.atom_succ`` reaches 0 and in how many steps (for
    orbits that do not, the length of the cycle they enter); also the
    cycles found, as elements rotated to start at their least
    ``sort_key``: one ``orbit_statuses`` pass with 0 as its stop.  Neither
    depends on the order in which members are visited."""
    ring = system.ring
    status = {ring.atoms((ring.zero,) * system.qring.d): (True, 0)}
    cycles = orbit_statuses(closure.atoms, closure.atom_succ.__getitem__, status)
    return status, [system._cycle(c) for c in cycles]


def _root_inside(system: DigitSystem, prop: str, mode: str, cap: int) -> Verdict | None:
    """The "unknown" of a search that cannot stabilise, answered before any
    closure is built, or None when the search must run.

    Over Z and Z[i], if E(p0) < E(p_d) for the Euclidean value E (|.| over
    Z, the norm over Z[i]), the product p0/p_d of the roots of P, up to
    sign, has modulus below 1, so P has a root alpha with |alpha| = r < 1.
    A -> A(alpha) is a ring map of E[x]/(P) into C, and A = e + X*T(A)
    gives |T(A)(alpha)| >= (|A(alpha)| - M)/r with M the largest
    |e(alpha)| over the digits: every A with |A(alpha)| > M/(1 - r) has an
    orbit along which |A(alpha)| strictly grows, which never repeats.  The
    seeds of either mode hold 1 or w_0 = p_d, whose integer multiples they
    generate additively, so such an A lies in their module; a finite
    closure would make every orbit of that module eventually periodic (the
    reduction theorem), so the closure is infinite and exceeds every cap
    (cf. Akiyama, Borbely, Brunotte, Petho and Thuswaldner, Acta Math.
    Hungar. 108 (2005)).  Over F_p[y] no finite set generates the module
    additively, so the search always runs there.  The certificate records
    both values."""
    ring = system.ring
    if isinstance(ring, FpPolynomialRing):
        return None
    value = ring.euclid_value
    value_p0, value_pd = value(system.qring.p0), value(system.qring.pd)
    if value_p0 >= value_pd:
        return None
    return Verdict(
        prop,
        "unknown",
        "|p0| < |p_d| puts a root of P inside the unit circle, where orbits grow "
        "without bound, so by the reduction theorem no witness closure stabilises "
        "at any cap; the search was skipped",
        witnesses=0,
        stabilized=False,
        certificate={
            "cap": cap,
            "mode": mode,
            "root_inside": {"value_p0": value_p0, "value_pd": value_pd},
        },
    )


def _decision_mode(system: DigitSystem, mode: str | None, cap: int) -> str:
    """The seed mode of a decision, after the checks its closure makes: a
    negative cap or a mode without seeds raises ValueError before any
    stage runs."""
    if cap < 0:
        raise ValueError("cap must be at least 0")
    mode = mode or default_mode(system)
    _check_mode(system, mode)
    return mode


def _capped(prop: str, closure: WitnessClosure, mode: str) -> Verdict:
    return Verdict(
        prop,
        "unknown",
        f"witness closure exceeded {closure.cap} elements",
        witnesses=len(closure),
        stabilized=False,
        certificate={"cap": closure.cap, "mode": mode},
    )


def decide_fep(
    system: DigitSystem,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
    mode: str | None = None,
) -> Verdict:
    """Witness-based finite-expansion decision.

    yes: the closure stabilised and every witness orbit reaches 0.
    no: some witness orbit enters a cycle avoiding 0 (the certificate).
    unknown: the closure exceeded its cap, or over Z and Z[i] |p0| < |p_d|
    shows that it would exceed every cap (``_root_inside``), so none is built.
    A negative cap or a mode without seeds raises ValueError first.
    """
    mode = _decision_mode(system, mode, closure_cap)
    inside = _root_inside(system, "fep", mode, closure_cap)
    if inside:
        return inside
    closure = _closure(system, mode, closure_cap)
    if not closure.stabilized:
        return _capped("fep", closure, mode)
    status, cycles = _orbit_statuses(system, closure)
    if cycles:
        cycle = min(cycles, key=lambda c: system.qring.sort_key(c[0]))
        return Verdict(
            "fep",
            "no",
            "a witness orbit enters a cycle that avoids 0",
            witnesses=len(closure),
            stabilized=True,
            certificate={"cycle": cycle, "mode": mode},
        )
    return Verdict(
        "fep",
        "yes",
        "every witness orbit reaches 0" + _generation_caveat(system),
        witnesses=len(closure),
        stabilized=True,
        certificate={"orbit_steps": _OrbitSteps(closure, status), "mode": mode, "closure": closure},
    )


def decide_pep(
    system: DigitSystem,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
    mode: str | None = None,
) -> Verdict:
    """Periodic-expansion decision: yes when the witness closure
    stabilises (every orbit then falls into the finite closed set);
    never answers no, since non-periodicity has no finite certificate.
    unknown: as for ``decide_fep``, the closure exceeded its cap, or
    |p0| < |p_d| over Z and Z[i] shows that it would exceed every cap."""
    mode = _decision_mode(system, mode, closure_cap)
    inside = _root_inside(system, "pep", mode, closure_cap)
    if inside:
        return inside
    closure = _closure(system, mode, closure_cap)
    if not closure.stabilized:
        return _capped("pep", closure, mode)
    return Verdict(
        "pep",
        "yes",
        "the witness closure is finite, so every orbit is eventually periodic"
        + _generation_caveat(system),
        witnesses=len(closure),
        stabilized=True,
        certificate={"rounds": closure.rounds, "mode": mode, "closure": closure},
    )


def orbit_graph(system: DigitSystem, elements, growth_cap: int = 100_000) -> OrbitGraph:
    """The T-action graph on the given set, extended (if needed) until
    every node's image is itself a node; ValueError when that adds more
    than ``growth_cap`` nodes, or the cap is negative."""
    if growth_cap < 0:
        raise ValueError("growth_cap must be at least 0")
    qring = system.qring
    nodes = set(elements)
    succ = {}
    frontier = list(nodes)
    added = 0
    while frontier:
        nxt = []
        for v in frontier:
            w = system.step(v)
            succ[v] = w
            if w not in nodes:
                nodes.add(w)
                nxt.append(w)
                added += 1
                if added > growth_cap:
                    raise ValueError("orbit graph did not close within the growth cap")
        frontier = nxt
    ordered = tuple(sorted(nodes, key=qring.format))
    return OrbitGraph(system, ordered, succ)


def _closure_graph(system: DigitSystem, closure: WitnessClosure) -> OrbitGraph:
    """The ``orbit_graph`` of a stabilised closure's elements, read from
    ``closure.atom_succ`` through its atoms -> element map, without
    stepping."""
    element_of = closure._element_of
    succ = {element_of[v]: element_of[w] for v, w in closure.atom_succ.items()}
    return OrbitGraph(system, tuple(sorted(succ, key=system.qring.format)), succ)


def euclidean_necessary_check(system: DigitSystem) -> Verdict | None:
    """Quick negative test: with small constant digits, a leading
    coefficient at least as large as p0 (in Euclidean value) rules the
    finite expansion property out.  None when inconclusive."""
    if not system.digits_constant:
        return None
    ring = system.ring
    g = ring.euclid_value
    p0 = system.qring.p0
    if not all(g(e) < g(p0) for e in system.constant_digits()):
        return None
    pd = system.qring.pd
    if g(pd) >= g(p0):
        return Verdict(
            "fep",
            "no",
            "the leading coefficient has Euclidean value at least that of p0 while "
            "all digits are smaller than p0, so no nonzero element of the basis "
            "module has a finite expansion",
            certificate={"value_pd": g(pd), "value_p0": g(p0)},
        )
    return None


def expanding_check(modulus: Poly) -> ExpandingReport:
    """Exact expanding test for base polynomials over Z or Z[i].

    The Cayley transform z = (w - i)/(w + i) maps the roots of the base
    P to those of q = A + iB, real A and B, of the same degree d (when
    P(1) = 0, a root lies on the circle).  A real root of gcd(A, B) is a
    root of P on |z| = 1; any other common root pairs a root inside with
    one outside; else P has every root outside exactly when the Cauchy
    index Ind(B/A) is d (Marden, *Geometry of Polynomials*, ch. X).  The
    remainder sequences are the primitive ones of Collins (*J. ACM* 14
    (1967)), on plain ints; see ``digsys.unitcircle``.
    """
    ring = modulus.ring
    if isinstance(ring, FpPolynomialRing):
        raise ValueError("root moduli are defined only for rings embeddable in C")
    if modulus.degree < 1:
        raise ValueError("the polynomial must have degree at least 1")
    if ring == Z:
        coeffs = [(c, 0) for c in modulus.coeffs]
    else:
        coeffs = [(c.re, c.im) for c in modulus.coeffs]
    modulus_sq = None
    if modulus.degree == 1:
        p0, p1 = modulus.coeffs
        if ring == Z:
            modulus_sq = Fraction(p0 * p0, p1 * p1)
        else:
            modulus_sq = Fraction(p0.norm(), p1.norm())
    return ExpandingReport(unitcircle.circle_status(coeffs), modulus_sq)
