"""Digit systems over F_p[y]: the degree criterion and the
zero-cycle window rewriting that transfers finiteness to digit sets
without 0.

For the canonical digit set (all polynomials of y-degree below that of
p0) finiteness and periodicity are decided purely by degree
comparisons.  For a digit set N lacking 0, a finite expansion over the
canonical auxiliary set N' can be rewritten in place: at the lowest
zero digit, add the zero-cycle digits z_0, z_1, ... shifted to that
position.  Once the rewriting front passes the top of the expansion,
its effect on the most significant window of length (zero period - 1)
is a self-map; if every window over N' eventually reaches the all-zero
window, the rewriting terminates for every element and the system has
the finite expansion property.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .digits import DEFAULT_STEP_CAP, DigitSystem, validate_system, walk
from .polyquot import Poly, base_violation, p0_violation
from .rings import MAX_ENUMERATION, FpPolynomialRing


@dataclass(frozen=True)
class FfCriterion:
    fep: bool
    pep: bool
    max_degree: int
    p0_degree: int


@dataclass
class PhiVerdict:
    answer: str  # "yes" | "no" | "unknown"
    reason: str
    zero_cycle: tuple = ()
    window_length: int = 0
    reach_steps: dict = field(default_factory=dict)  # start window -> steps to zero
    cycle: tuple = ()  # a window cycle certifying "no"


@dataclass(frozen=True)
class ConvertResult:
    status: str  # "finite" | "unknown"
    digits: tuple
    rounds: int
    reason: str = ""


def _require_fp(ring) -> FpPolynomialRing:
    if not isinstance(ring, FpPolynomialRing):
        raise ValueError("this operation is defined over F_p[y] only")
    return ring


def ff_criterion(modulus: Poly) -> FfCriterion:
    """Degree test for the canonical digit set: finite expansions exist
    for all elements iff every other coefficient has y-degree strictly
    below deg_y(p0); periodicity iff at most equal."""
    _require_fp(modulus.ring)
    violation = base_violation(modulus)
    if violation:
        raise ValueError(violation)
    top = max(c.degree for c in modulus.coeffs[1:] if c)
    d0 = modulus.constant.degree
    return FfCriterion(fep=top < d0, pep=top <= d0, max_degree=top, p0_degree=d0)


def canonical_ff_digits(modulus: Poly) -> tuple:
    """All p^deg_y(p0) polynomials of y-degree below deg_y(p0)."""
    ring = _require_fp(modulus.ring)
    p0 = modulus.constant
    violation = p0_violation(ring, p0)
    if violation:
        raise ValueError(violation)
    return tuple(ring.residues(p0))


def _cycle_constants(ring, zero_cycle) -> tuple:
    digits = getattr(zero_cycle, "digits", zero_cycle)
    out = []
    for d in digits:
        out.append(d.constant if hasattr(d, "constant") else ring.coerce(d))
    return tuple(out)


class _PhiRewriter:
    """Window dynamics induced by rewriting along a fixed zero cycle."""

    def __init__(self, system: DigitSystem, zc_consts):
        self.ring = system.ring
        self.zc = tuple(zc_consts)
        self.window = len(self.zc) - 1
        self.alphabet = set(system.constant_digits()) | {self.ring.zero}

    def step(self, state: tuple) -> tuple:
        """One window move; raises ValueError when a sum escapes the
        digit alphabet."""
        ring = self.ring
        if state[0]:
            return tuple(list(state[1:]) + [ring.zero])
        out = []
        for c, z in zip(state[1:], self.zc[1:-1]):
            s = c + z
            if s not in self.alphabet:
                raise ValueError(
                    f"window sum {ring.format(s)} leaves the digit alphabet"
                )
            out.append(s)
        out.append(self.zc[-1])
        return tuple(out)


def phi_window_map(system: DigitSystem, zero_cycle, state: tuple) -> tuple:
    """One step of the window dynamics for the given zero cycle."""
    rewriter = _PhiRewriter(system, _cycle_constants(system.ring, zero_cycle))
    if len(state) != rewriter.window:
        raise ValueError(f"expected a window of length {rewriter.window}")
    return rewriter.step(tuple(system.ring.coerce(c) for c in state))


def phi_chain(system: DigitSystem, zero_cycle, start: tuple, cap: int = 10**4) -> list:
    """Window states from ``start`` to the all-zero window, inclusive;
    raises ValueError when the chain cycles or exceeds ``cap`` steps, and
    for a start window whose length is not the window length."""
    ring = system.ring
    rewriter = _PhiRewriter(system, _cycle_constants(ring, zero_cycle))
    if len(start) != rewriter.window:
        raise ValueError(f"expected a window of length {rewriter.window}")
    zero = (ring.zero,) * rewriter.window
    kind, path, hit = walk(tuple(ring.coerce(c) for c in start), rewriter.step, (zero,), cap)
    if kind == "cycle":
        raise ValueError("window chain cycles without reaching the zero window")
    if kind == "cap":
        raise ValueError("window chain did not reach the zero window within the cap")
    return list(path) + [hit]


def prove_fep_via_zero_cycle(
    system: DigitSystem, aux_digits, cap: int = DEFAULT_STEP_CAP
) -> PhiVerdict:
    """Finite-expansion proof for a digit set without 0.

    Preconditions: the auxiliary digit set is the canonical one and
    passes the degree test, and apart from 0 it is contained in the
    target digit set.  The verdict is "yes" when every window over the
    auxiliary digits reaches the all-zero window, "no" when some window
    orbit cycles, "unknown" when sums escape the alphabet, the zero cycle
    is not found within the cap or there are more than MAX_ENUMERATION
    windows.
    """
    ring = _require_fp(system.ring)
    if not system.digits_constant:
        raise ValueError("the target digit set must be constant in x")
    canonical = set(canonical_ff_digits(system.modulus))
    aux = tuple(ring.coerce(a) for a in aux_digits)
    if set(aux) != canonical:
        raise ValueError("the auxiliary digit set must be the canonical one")
    crit = ff_criterion(system.modulus)
    if not crit.fep:
        raise ValueError("the auxiliary system fails the degree test")
    target = set(system.constant_digits())
    if not (canonical - {ring.zero}) <= target:
        raise ValueError(
            "apart from 0, the canonical digits must belong to the target digit set"
        )

    zc = system.zero_cycle(cap)
    if zc is None:
        return PhiVerdict("unknown", f"no zero cycle found within {cap} steps")
    zc_consts = tuple(d.constant for d in zc.digits)
    if zc.period == 1:
        return PhiVerdict(
            "yes",
            "the zero period is 1, so expansions pad with the single zero digit",
            zero_cycle=zc_consts,
            window_length=0,
        )
    rewriter = _PhiRewriter(system, zc_consts)
    ell = rewriter.window

    # explore every window over the auxiliary digits
    windows = len(aux) ** ell
    if windows > MAX_ENUMERATION:
        return PhiVerdict(
            "unknown",
            f"{windows} windows of length {ell}, more than the enumeration limit "
            f"{MAX_ENUMERATION}",
            zero_cycle=zc_consts,
            window_length=ell,
        )
    status = {tuple([ring.zero] * ell): 0}
    reach = {}
    for start in itertools.product(sorted(aux, key=ring.sort_key), repeat=ell):
        try:
            kind, path, hit = walk(start, rewriter.step, status)
        except ValueError as exc:
            return PhiVerdict(
                "unknown",
                f"alphabet closure violated: {exc}",
                zero_cycle=zc_consts,
                window_length=ell,
            )
        if kind == "cycle":
            return PhiVerdict(
                "no",
                "a window orbit cycles without reaching the zero window",
                zero_cycle=zc_consts,
                window_length=ell,
                cycle=tuple(path)[hit:],
            )
        n, known = len(path), status[hit]
        for u, i in path.items():
            status[u] = known + n - i
        reach[start] = status[start]
    return PhiVerdict(
        "yes",
        "every auxiliary window reaches the zero window",
        zero_cycle=zc_consts,
        window_length=ell,
        reach_steps=reach,
    )


def convert_expansion(
    system: DigitSystem, element, aux_digits, cap: int = DEFAULT_STEP_CAP
) -> ConvertResult:
    """Rewrite a canonical-digit expansion into one over the target
    digit set by adding the zero cycle at every lowest zero digit."""
    ring = _require_fp(system.ring)
    if not system.digits_constant:
        raise ValueError("the target digit set must be constant in x")
    aux = tuple(ring.coerce(a) for a in aux_digits)
    target = set(system.constant_digits())
    if not (set(aux) - {ring.zero}) <= target:
        raise ValueError(
            "apart from 0, the auxiliary digits must belong to the target digit set"
        )
    aux_system = validate_system(ring, system.modulus, aux)
    if isinstance(element, Poly):
        element = system.qring.normalize(element)
    if element.is_zero:
        return ConvertResult("finite", (), 0)

    zc = system.zero_cycle(cap)
    if zc is None:
        return ConvertResult("unknown", (), 0, f"no zero cycle found within {cap} steps")
    zc_consts = tuple(d.constant for d in zc.digits)
    alphabet = set(system.constant_digits()) | {ring.zero}

    base = aux_system.expand(element, cap)
    if base.status != "finite":
        return ConvertResult(
            "unknown", (), 0, f"auxiliary expansion did not terminate: {base.status}"
        )
    b = [d.constant for d in base.digits]
    rounds = 0
    while True:
        try:
            i = next(j for j, v in enumerate(b) if not v)
        except StopIteration:
            break
        if rounds >= cap:
            return ConvertResult("unknown", (), rounds, "rewriting cap exceeded")
        if len(b) < i + len(zc_consts):
            b.extend([ring.zero] * (i + len(zc_consts) - len(b)))
        for j, z in enumerate(zc_consts):
            s = b[i + j] + z
            if s not in alphabet:
                return ConvertResult(
                    "unknown",
                    (),
                    rounds,
                    f"sum {ring.format(s)} leaves the digit alphabet",
                )
            b[i + j] = s
        while b and not b[-1]:
            b.pop()
        rounds += 1
    digits = tuple(system.qring.from_const(v) for v in b)
    return ConvertResult("finite", digits, rounds)
