"""Digit systems (R, X, N) and the backward-division dynamics.

A digit system couples the quotient ring R = E[x]/(P) with a digit set
N that represents every residue class of R modulo the base X exactly
once; membership is decided by the constant coefficients alone.  The
central map sends A to (A - digit(A)) / X, and iterating it produces
the digit sequence of A.  An element has a finite base-X expansion
exactly when some iterate reaches 0.

The classification of orbits declares "finite" at the first arrival at
0 even when 0 is not itself a digit; the raw digit stream (which keeps
running through the cycle of 0) is available separately via
:meth:`DigitSystem.digit_stream`.

Single orbits (digit sequences, expansions, product expansions and the
zero cycle) are followed by :meth:`DigitSystem._orbit`, which keeps a
checkpoint instead of every state and steps in segments of the ``run``
loop that ``Ring.dynamics`` binds.  Orbits that run into a set of known
states (the periodic set, closure orbit statuses, shift-radix orbits and
window chains) are followed by :func:`walk`, and cycles are put in
canonical order by :func:`rotate`.

Digit sequences, expansions (product expansions too), the zero cycle,
the periodic set and witness closures run T on the flat coordinates
(q, r) of the standard representation A = sum q_i w_i + sum r_i X^i:
T folds r_0 into one carry, shifts q with it and shifts r down, and a
digit e = e_0 + X*f_e that is not constant also takes off the
coordinates of f_e.  Each coordinate is held in the atom form of its
ring (``Ring.atoms``): the value itself over Z, a plain ``(re, im)``
pair of ints over Z[i], the packed int over F_p[y], so that walk states
hash, compare and add without calling Python code.  ``Ring.dynamics``
binds the arithmetic on atoms once per system, and ``rings._build``
writes T out over it for every ring; elements, digits and ring-value
coordinates are rebuilt only for results.  The representation is
unique, so the results equal those of stepping elements with
:meth:`DigitSystem.step`, the definition of T, which ``digit_stream``
and the tests' oracles use.

A system is a ``QuotRing`` plus a ``rings.DigitSet``, what the digits'
constants alone fix: the residue check, the digit of each class and the
carries.  A constant digit set is interned per (ring, p0, constants),
so it is checked once for every base with that p0, and its digits
become elements only when read.  Systems are immutable after
validation; orbit walks from different starts are independent and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import ValidationError
from .polyquot import Poly, QuotElem, QuotRing
from .rings import _DIGIT_SETS, DigitSet, Ring

DEFAULT_STEP_CAP = 10**6


def walk(start, step, known, cap: int | None = None) -> tuple:
    """Follow ``start`` under ``step`` until a state lies in ``known``,
    repeats, or ``cap`` steps were taken (None: no cap), checked in that
    order at every state, the one reached after ``cap`` steps included;
    a negative ``cap`` raises ValueError.

    Returns ``(kind, path, hit)``: ``path`` maps the ``len(path)`` states
    stepped from to their step index, in order; ``kind`` is "known" (``hit``
    the known state), "cycle" (``hit`` the index where the cycle starts)
    or "cap" (``hit`` None)."""
    if cap is not None and cap < 0:
        raise ValueError("cap must be at least 0")
    path: dict = {}
    limit = -1 if cap is None else cap
    state = start
    n = 0
    while state not in known:
        # one lookup both detects a repeat and records a new state
        hit = path.setdefault(state, n)
        if hit != n:
            return "cycle", path, hit
        if n == limit:
            path.popitem()
            return "cap", path, None
        state = step(state)
        n += 1
    return "known", path, state


def _cycle_start(record, t: int, period: int) -> int:
    """Where the cycle of an orbit starts, given that its states t and
    t + period are equal and ``record`` holds its digits' positions up to
    there: a state is its digit plus X times the next one, so states i and
    i + period are equal exactly when states i + 1 and i + 1 + period are
    and digits i and i + period agree."""
    while t and record[t - 1] == record[t - 1 + period]:
        t -= 1
    return t


def rotate(cycle, key=None) -> tuple:
    """The cycle as a tuple starting at its least state under ``key``."""
    cycle = tuple(cycle)
    keys = cycle if key is None else [key(v) for v in cycle]
    start = keys.index(min(keys))
    return cycle[start:] + cycle[:start]


@dataclass(frozen=True)
class DigitSequence:
    """Digit string of an element plus the orbit classification.

    kind is "finite" (steps = minimal n with n-th iterate 0),
    "eventually-periodic" (preperiod, period of the orbit) or
    "unknown" when the cap ran out first.  ``digits`` holds the first
    ``steps`` digits for finite orbits and preperiod + period digits
    for eventually periodic ones.
    """

    digits: tuple
    kind: str
    steps: int | None = None
    preperiod: int | None = None
    period: int | None = None
    cap: int | None = None


@dataclass(frozen=True)
class Expansion:
    """Outcome of asking for a finite base-X expansion."""

    status: str  # "finite" | "proven-non-finite" | "unknown"
    digits: tuple | None
    steps: int
    period: int | None = None


@dataclass(frozen=True)
class ZeroCycle:
    """A shortest digit string summing to 0; its length is the zero period."""

    digits: tuple

    @property
    def period(self) -> int:
        return len(self.digits)


@dataclass(frozen=True)
class PeriodicSetReport:
    """Purely periodic elements reachable from the given seeds."""

    elements: frozenset
    orbits: tuple
    contains_zero: bool
    capped: bool


class DigitSystem:
    """A validated digit system: a ``QuotRing`` plus a ``rings.DigitSet``,
    what the digits' constants alone fix.  Build via :func:`validate_system`."""

    def __init__(self, qring: QuotRing, digit_set: DigitSet, digits=None, top: int = 0):
        # digits, of highest x-degree top: given when not all constant, else built when read
        self.qring = qring
        self.ring = qring.ring
        self.modulus = qring.modulus
        self.digit_set = digit_set
        self.digits_constant = top <= 0
        self.k = max(qring.d, top)
        if digits is not None:
            self.digits = digits
        # by residue class, the coordinates of -f_e = (e_0 - e)/X, what T adds for a non-constant e
        self._offsets = {} if self.digits_constant else {
            r: self.ring.atoms(qring.coords(-qring.divide_by_x(e - qring.from_const(e.constant))))
            for r, e in self._digit.items()
            if e.x_degree > 0
        }
        # T on the atoms of flat coordinates
        self._step, self._grow, self._run = self.ring.dynamics(
            self.modulus.coeffs,
            digit_set,
            self._offsets,
            lambda coords: qring.coords(qring.from_coords(coords)),
        )

    @cached_property
    def digits(self) -> tuple:
        """The digits as elements, in digit order; built when first read,
        as decisions read only the digit set."""
        qring = self.qring
        return tuple(QuotElem(qring, (c,) if c else (), ()) for c in self.digit_set.constants)

    @cached_property
    def _digit(self) -> dict:
        """The digit of each residue atom that ``_step`` returns."""
        return dict(zip(self.digit_set.carry, self.digits))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DigitSystem({self.ring.name}, {self.modulus}, "
            f"{{{', '.join(self.qring.format(d) for d in self.digits)}}})"
        )

    @property
    def zero(self) -> QuotElem:
        return self.qring.zero

    def constant_digits(self) -> tuple:
        if not self.digits_constant:
            raise ValueError("digit set is not constant in x")
        return self.digit_set.constants

    # -- the dynamics ---------------------------------------------------

    def digit_of(self, a: QuotElem) -> QuotElem:
        """The unique digit congruent to ``a`` modulo the base."""
        self.qring._check(a)
        return self._digit[self.ring.atoms(self.qring._divide_p0(a.constant)[:1])[0]]

    def step(self, a: QuotElem) -> QuotElem:
        """One backward-division step (A - digit(A)) / X."""
        return self.qring.divide_by_x(a - self.digit_of(a))

    def digit_stream(self, a: QuotElem) -> Iterator[QuotElem]:
        """The raw, unbounded digit stream of ``a``."""
        cur = a
        while True:
            d = self.digit_of(cur)
            yield d
            cur = self.qring.divide_by_x(cur - d)

    def digit_sequence(self, a: QuotElem, cap: int = DEFAULT_STEP_CAP) -> DigitSequence:
        if cap < 1:
            raise ValueError("cap must be at least 1")
        return self._orbit(a, cap)

    def _orbit(self, a: QuotElem, cap: int) -> DigitSequence:
        """The orbit of ``a`` under T, followed on the atoms of its flat
        coordinates until it reaches 0, repeats a state or has taken
        ``cap`` steps (``cap`` may be 0, a negative one raises ValueError).
        The coordinates are unique, so states and elements correspond one
        to one and the result is that of stepping the elements.

        The walk keeps two states, the current one and a checkpoint, and
        records the position of each digit.  The checkpoint is the state
        after t steps, renewed after max(32, t/8) more; the first return
        to it, n steps in, gives the period n - t, and the digits scanned
        back from t give where the cycle starts (``_cycle_start``).  Past
        the cap, ``_past_cap`` decides whether the state at the cap was a
        repeat."""
        if cap < 0:
            raise ValueError("cap must be at least 0")
        run, atoms = self._run, self.ring.atoms
        state, zero = atoms(self.qring.coords(a)), atoms((self.ring.zero,) * self.qring.d)
        # bytes while the positions fit in one, for the search past the cap
        record = bytearray() if len(self.digit_set.carry) <= 256 else []
        emit = record.append
        # a residue part shifts out one place per step: the first segment
        # takes it off, so that the straight loops take every later one
        n = t = 0
        checkpoint, end = state, len(state) - len(zero) or 32
        while state != zero:
            if n == cap:
                return self._past_cap(state, zero, record, cap)
            k, state = run(state, min(end, cap) - n, checkpoint, emit)
            n += k
            if state == checkpoint:
                return self._periodic(record, _cycle_start(record, t, n - t), n - t)
            if n == end:
                t, checkpoint, end = n, state, n + max(32, n // 8)
        return DigitSequence(self._digits_of(record, n), "finite", steps=n)

    def _past_cap(self, state: tuple, zero: tuple, record, cap: int) -> DigitSequence:
        """The orbit at ``cap`` steps, ``state`` neither 0 nor met again yet.

        The state after ``cap`` steps repeats an earlier one exactly when
        it lies on a cycle of some period p that starts at most cap - p
        steps in.  Its digits then repeat those p places back, so the walk
        goes on from it, in segments of doubling length and for at most
        ``cap`` more steps, only while the digits since the cap occur in
        the record at a shift of at most ``cap``.  It ends on a return to
        that state, at 0 or when no shift fits, and the digits are cut
        back to ``cap``."""
        n, checkpoint, j, size = cap, state, 0, 16
        emit = record.append
        while cap and n < 2 * cap:
            k, state = self._run(state, min(size, 2 * cap - n), checkpoint, emit)
            n += k
            if state == checkpoint:
                start = _cycle_start(record, cap, n - cap)
                if start + n - cap <= cap:
                    return self._periodic(record, start, n - cap)
                break
            if state == zero:
                break
            # the leftmost fitting shift only moves right as the digits grow
            text = record if isinstance(record, bytearray) else "".join(map(chr, record))
            j = text.find(text[cap:n], j, n - 1)
            if j < 0:
                break
            size *= 2
        return DigitSequence(self._digits_of(record, cap), "unknown", cap=cap)

    def _periodic(self, record, start: int, period: int) -> DigitSequence:
        return DigitSequence(
            self._digits_of(record, start + period),
            "eventually-periodic",
            preperiod=start,
            period=period,
        )

    def _digits_of(self, record, n: int) -> tuple:
        """The first ``n`` recorded digit positions as digits."""
        del record[n:]
        return tuple(map(self.digits.__getitem__, record))

    def expand(self, a: QuotElem, cap: int = DEFAULT_STEP_CAP) -> Expansion:
        seq = self.digit_sequence(a, cap)
        if seq.kind == "finite":
            return Expansion("finite", seq.digits, steps=seq.steps)
        if seq.kind == "eventually-periodic":
            # the orbit entered a cycle avoiding 0, so no iterate is ever 0
            return Expansion(
                "proven-non-finite",
                None,
                steps=seq.preperiod + seq.period,
                period=seq.period,
            )
        return Expansion("unknown", None, steps=cap)

    def evaluate(self, digits: Iterable[QuotElem]) -> QuotElem:
        """Horner evaluation of sum(digits[i] * X^i) in R."""
        total = self.qring.zero
        for d in reversed(list(digits)):
            total = self.qring.mul_x(total) + d
        return total

    def zero_cycle(self, cap: int = DEFAULT_STEP_CAP) -> ZeroCycle | None:
        """Shortest digit string summing to 0, from the orbit of 0.

        0 = digit(0) + X*T(0), so the string is digit(0) followed by the
        finite expansion of T(0), if T(0) reaches 0 within cap - 1 steps.
        """
        if cap < 1:
            raise ValueError("cap must be at least 1")
        zero = self.qring.zero
        seq = self._orbit(self.step(zero), cap - 1)
        if seq.kind != "finite":
            return None
        return ZeroCycle((self.digit_of(zero),) + seq.digits)

    def periodic_set(
        self, seeds: Iterable[QuotElem], cap: int = DEFAULT_STEP_CAP
    ) -> PeriodicSetReport:
        """All cycles the orbits of the seeds run into.

        Exhaustive for the whole periodic set only when the seeds cover
        a stabilised witness closure.
        """
        if cap < 0:
            raise ValueError("cap must be at least 0")
        qring, ring, carry_step = self.qring, self.ring, self._step

        def step(v):
            return carry_step(v)[1]

        resolved: set[tuple] = set()
        cycles: list[tuple] = []
        capped = False
        for seed in sorted(seeds, key=qring.sort_key):
            kind, path, hit = walk(ring.atoms(qring.coords(seed)), step, resolved, cap)
            if kind == "cap":
                capped = True
                continue
            if kind == "cycle":
                cycle = [qring.from_coords(ring.values(v)) for v in list(path)[hit:]]
                cycles.append(rotate(cycle, qring.sort_key))
            resolved.update(path)
        cycles.sort(key=lambda c: self.qring.sort_key(c[0]))
        zero = self.qring.zero
        return PeriodicSetReport(
            elements=frozenset(v for c in cycles for v in c),
            orbits=tuple(cycles),
            contains_zero=any(zero in c for c in cycles),
            capped=capped,
        )

    # -- the coordinate form of the dynamics -----------------------------

    def coordinate_step(self, coords: tuple) -> tuple:
        """T on the flat coordinates of ``QuotRing.coords``: a shift with
        one carry, less the x-part of a digit that is not constant."""
        state = tuple(self.ring.coerce(a) for a in coords)
        if len(state) != self.qring.d:
            # a residue part may be unreduced or end in zeros
            state = self.qring.coords(self.qring.from_coords(state))
        return self.ring.values(self._step(self.ring.atoms(state))[1])


def validate_system(ring: Ring, modulus: Poly, digits) -> DigitSystem:
    """Check every digit-system invariant; raise ValidationError listing
    all violations, otherwise return the immutable system.  A set of
    constant digits is checked once per (ring, p0, constants)."""
    if modulus.ring != ring:
        raise ValidationError(["modulus is defined over a different ring"])
    # QuotRing checks the base, raising ValidationError with its violation
    qring = QuotRing(modulus)
    digits = tuple(digits)
    if any(isinstance(d, (QuotElem, Poly)) for d in digits):
        normalized = tuple(_element(qring, d) for d in digits)
        constants = tuple(d.constant for d in normalized)
        top = max(d.x_degree for d in normalized)
    else:  # ring values, the common case: constant digits
        constants, top = tuple(map(ring.coerce, digits)), 0
    if top > 0:
        digit_set = DigitSet(ring, qring.p0, constants, lambda i: qring.format(normalized[i]))
        return DigitSystem(qring, digit_set, normalized, top)
    digit_set = _DIGIT_SETS.get(
        ring, qring.p0, constants, lambda i: qring.format(qring.from_const(constants[i]))
    )
    return DigitSystem(qring, digit_set)


def _element(qring: QuotRing, d) -> QuotElem:
    """A digit (an element, a polynomial or a ring value) as an element."""
    if isinstance(d, QuotElem):
        qring._check(d)
        return QuotElem(qring, d.low, d.tail)
    return qring.normalize(d) if isinstance(d, Poly) else qring.from_const(d)
