"""Command line front end.

Subcommands: expand, decide, zero-cycle, witness, srs, product, ff.
Each ``_run_*`` computes its answer and returns (system, result,
cap_hit, lines, exit code); ``main`` alone prints it: the text lines by
default, or with --json one report whose keys are, in this order,
"command", "system", "result" and "cap_hit".  ``cap_hit`` is true only
when a step or closure cap stopped the run: an "unknown" of the root
stage builds no closure and never sets it (``witness`` still builds the
closure it lists).  Exit codes: 0 for a definitive verdict or successful
computation, 2 when a cap was hit or an answer is unknown, 1 for input
errors, a file that cannot be written included.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import ffds, product, srs, witness
from .digits import DEFAULT_STEP_CAP, DigitSystem, validate_system
from .errors import ParseError, ValidationError
from .polyquot import parse_poly
from .rings import MAX_ENUMERATION, Fp, ring_from_name

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNKNOWN = 2


def _system_from_args(args) -> DigitSystem:
    ring = ring_from_name(args.ring)
    modulus = parse_poly(ring, args.poly)
    digits = [ring.parse(part) for part in args.digits.split(",")]
    return validate_system(ring, modulus, digits)


def _system_json(system: DigitSystem) -> dict:
    return {
        "ring": system.ring.name,
        "poly": str(system.modulus),
        "digits": [system.qring.format(d) for d in system.digits],
    }


def _verdict_json(system: DigitSystem | None, verdict: witness.Verdict) -> dict:
    fmt = system.qring.format if system is not None else str
    certificate: dict = {}
    cert = verdict.certificate
    if "cycle" in cert:
        certificate["cycle"] = [fmt(v) for v in cert["cycle"]]
    if "orbit_steps" in cert:
        steps = cert["orbit_steps"]
        certificate["orbit_steps"] = {fmt(v): steps[v] for v in sorted(steps, key=fmt)}
    for key in ("cap", "rounds", "mode", "root_inside"):
        if key in cert:
            certificate[key] = cert[key]
    return {
        "property": verdict.prop,
        "answer": verdict.answer,
        "reason": verdict.reason,
        "witnesses": verdict.witnesses,
        "stabilized": verdict.stabilized,
        "certificate": certificate,
    }


def _cap_hit(*verdicts) -> bool:
    # an "unknown" of the root stage built no closure, so it hit no cap
    return any(v and v.answer == "unknown" and "root_inside" not in v.certificate for v in verdicts)


def _run_expand(args) -> tuple:
    system = _system_from_args(args)
    element = system.qring.normalize(parse_poly(system.ring, args.element))
    seq = system.digit_sequence(element, cap=args.cap)
    fmt = system.qring.format
    result = {
        "element": fmt(element),
        "digits": [fmt(d) for d in seq.digits],
        "class": seq.kind,
        "preperiod": seq.preperiod,
        "period": seq.period,
        "steps": seq.steps,
    }
    lines = [
        f"element: {result['element']}",
        f"digits: {', '.join(result['digits']) if result['digits'] else '(empty)'}",
    ]
    if seq.kind == "finite":
        lines.append(f"class: finite ({seq.steps} steps)")
    elif seq.kind == "eventually-periodic":
        lines.append(
            f"class: eventually periodic (preperiod {seq.preperiod}, period {seq.period})"
        )
    else:
        lines.append(f"class: unknown (cap {seq.cap} exhausted)")
    unknown = seq.kind == "unknown"
    return _system_json(system), result, unknown, lines, EXIT_UNKNOWN if unknown else EXIT_OK


def _run_decide(args) -> tuple:
    system = _system_from_args(args)
    fep = witness.decide_fep(system, closure_cap=args.witness_cap, mode=args.mode)
    pep = witness.decide_pep(system, closure_cap=args.witness_cap, mode=args.mode)
    early = witness.euclidean_necessary_check(system)
    result = {
        "fep": _verdict_json(system, fep),
        "pep": _verdict_json(system, pep),
        "euclidean_necessary_check": None if early is None else _verdict_json(system, early),
    }
    lines = [
        f"fep: {fep.answer} ({fep.reason})",
        f"pep: {pep.answer} ({pep.reason})",
    ]
    if early is not None:
        lines.append(f"euclidean check: fep is {early.answer} ({early.reason})")
    code = EXIT_UNKNOWN if "unknown" in (fep.answer, pep.answer) else EXIT_OK
    return _system_json(system), result, _cap_hit(fep, pep), lines, code


def _run_zero_cycle(args) -> tuple:
    system = _system_from_args(args)
    cycle = system.zero_cycle(cap=args.cap)
    fmt = system.qring.format
    result = {
        "found": cycle is not None,
        "digits": [fmt(d) for d in cycle.digits] if cycle else None,
        "period": cycle.period if cycle else None,
    }
    if cycle:
        lines = [
            f"zero cycle: {', '.join(result['digits'])}",
            f"zero period: {cycle.period}",
        ]
    else:
        lines = [f"no zero cycle within {args.cap} steps"]
    return _system_json(system), result, cycle is None, lines, EXIT_OK if cycle else EXIT_UNKNOWN


def _run_witness(args) -> tuple:
    system = _system_from_args(args)
    mode = args.mode or witness.default_mode(system)
    closure = witness._closure(system, mode, args.witness_cap)
    seeds = closure.seed
    fmt = system.qring.format
    fep = witness.decide_fep(system, closure_cap=args.witness_cap, mode=mode)
    pep = witness.decide_pep(system, closure_cap=args.witness_cap, mode=mode)
    dot_text = None
    if closure.stabilized:
        graph = witness._closure_graph(system, closure)
        dot_text = graph.to_dot()
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot_text)
    result = {
        "mode": mode,
        "seeds": sorted(fmt(s) for s in seeds),
        "closure_size": len(closure),
        "stabilized": closure.stabilized,
        "rounds": closure.rounds,
        "elements": sorted(fmt(v) for v in closure.elements),
        "fep": _verdict_json(system, fep),
        "pep": _verdict_json(system, pep),
    }
    lines = [
        f"mode: {mode}",
        f"seeds: {', '.join(sorted(fmt(s) for s in seeds))}",
        f"closure: {len(closure)} elements, stabilized: {closure.stabilized}",
        f"fep: {fep.answer}",
        f"pep: {pep.answer}",
    ]
    if args.dot and dot_text is not None:
        lines.append(f"orbit graph written to {args.dot}")
    unknown = not closure.stabilized or "unknown" in (fep.answer, pep.answer)
    code = EXIT_UNKNOWN if unknown else EXIT_OK
    return _system_json(system), result, not closure.stabilized, lines, code


def _run_srs(args) -> tuple:
    # Fraction would build 10**k in full for an exponent literal
    if any(ch in "eE" for ch in args.r + args.eps):
        raise ValueError("write --r and --eps without an exponent")
    rvec = tuple(Fraction(part) for part in args.r.split(","))
    eps = Fraction(args.eps)
    params = srs.SrsParams(rvec, eps)
    verdict = srs.srs_classify(params, closure_cap=args.witness_cap)
    result = {
        "r": [str(x) for x in params.r],
        "eps": str(params.eps),
        "in_D0": verdict.in_d0,
        "in_D": verdict.in_d,
        "bridge_poly": str(verdict.modulus) if verdict.modulus else None,
        "bridge_digits": list(verdict.digits) if verdict.digits else None,
        "tau_cycle": [list(v) for v in verdict.tau_cycle] if verdict.tau_cycle else None,
        "note": verdict.note,
    }
    lines = [
        f"r: ({', '.join(result['r'])}), eps: {result['eps']}",
        f"in_D0 (orbits ultimately zero): {verdict.in_d0}",
        f"in_D (orbits ultimately periodic): {verdict.in_d}",
    ]
    if verdict.modulus is not None:
        lines.append(f"bridge: P = {verdict.modulus}, digits {result['bridge_digits']}")
    if verdict.tau_cycle:
        lines.append(f"tau cycle: {result['tau_cycle']}")
    system = {"ring": "Z", "poly": result["bridge_poly"], "digits": result["bridge_digits"]}
    code = EXIT_UNKNOWN if verdict.in_d0 == "unknown" else EXIT_OK
    return system, result, _cap_hit(verdict.fep, verdict.pep), lines, code


def _run_product(args) -> tuple:
    ring = ring_from_name(args.ring)
    factors = []
    for part in args.factors.split(";"):
        poly_src, _, digit_src = part.partition(":")
        if not digit_src:
            raise ParseError("factor must look like '<poly>:<digit,digit,...>'", part, 0)
        modulus = parse_poly(ring, poly_src)
        digits = [ring.parse(t) for t in digit_src.split(",")]
        factors.append((modulus, digits))
    psys = product.multi_product_digit_set(ring, factors, closure_cap=args.witness_cap)
    fmt = psys.combined.qring.format
    result = {
        "combined_poly": str(psys.combined.modulus),
        "digit_set": [fmt(d) for d in psys.combined.digits],
        "fep_propagated": psys.fep_propagated,
    }
    exit_code = EXIT_OK
    lines = [
        f"combined: P = {result['combined_poly']}",
        f"digit set: {', '.join(result['digit_set'])}",
        f"fep propagated: {psys.fep_propagated}",
    ]
    if args.element is not None:
        element = parse_poly(ring, args.element)
        pe = product.product_expand(psys, element, cap=args.cap)
        result["expansion"] = {
            "element": str(element),
            "status": pe.status,
            "digits": [fmt(d) for d in pe.digits],
            "preperiod": pe.preperiod,
            "period": pe.period,
        }
        lines.append(f"element {element}: {pe.status}")
        lines.append(f"digits: {', '.join(fmt(d) for d in pe.digits) or '(empty)'}")
        if pe.status == "unknown":
            exit_code = EXIT_UNKNOWN
    system = {"ring": ring.name, "poly": result["combined_poly"], "digits": result["digit_set"]}
    return system, result, exit_code == EXIT_UNKNOWN, lines, exit_code


def _run_ff(args) -> tuple:
    ring = Fp(args.p)
    modulus = parse_poly(ring, args.poly)
    crit = ffds.ff_criterion(modulus)
    # the criterion needs no digits: list them when few enough, and let the
    # enumeration limit refuse a proof or conversion, which walks them
    listed = ring.quotient_size(modulus.constant) <= MAX_ENUMERATION
    needed = args.prove_fep or args.convert is not None
    canonical = ffds.canonical_ff_digits(modulus) if listed or needed else None
    unlisted = f"more than {MAX_ENUMERATION}, not listed"
    result = {
        "criterion": {
            "fep": crit.fep,
            "pep": crit.pep,
            "max_coefficient_degree": crit.max_degree,
            "p0_degree": crit.p0_degree,
        },
        "canonical_digits": None if canonical is None else [ring.format(d) for d in canonical],
    }
    lines = [
        f"degree criterion: fep={'yes' if crit.fep else 'no'}, "
        f"pep={'yes' if crit.pep else 'no'} "
        f"(max deg {crit.max_degree} vs deg p0 {crit.p0_degree})",
        "canonical digits: "
        + (", ".join(result["canonical_digits"]) if canonical else unlisted),
    ]
    exit_code = EXIT_OK
    system = None
    if args.digits:
        digits = [ring.parse(t) for t in args.digits.split(",")]
        system = validate_system(ring, modulus, digits)
    if args.prove_fep:
        if system is None:
            raise ValueError("--prove-fep needs --digits for the target system")
        verdict = ffds.prove_fep_via_zero_cycle(system, canonical, cap=args.cap)
        result["prove_fep"] = {
            "answer": verdict.answer,
            "reason": verdict.reason,
            "zero_cycle": [ring.format(z) for z in verdict.zero_cycle],
            "window_length": verdict.window_length,
            "windows_checked": len(verdict.reach_steps),
        }
        lines.append(f"zero-cycle proof: {verdict.answer} ({verdict.reason})")
        if verdict.answer == "unknown":
            exit_code = EXIT_UNKNOWN
    if args.convert is not None:
        if system is None:
            raise ValueError("--convert needs --digits for the target system")
        element = system.qring.normalize(parse_poly(ring, args.convert))
        conv = ffds.convert_expansion(system, element, canonical, cap=args.cap)
        result["convert"] = {
            "element": system.qring.format(element),
            "status": conv.status,
            "digits": [system.qring.format(d) for d in conv.digits],
            "rounds": conv.rounds,
        }
        lines.append(
            f"conversion of {system.qring.format(element)}: {conv.status} "
            f"({', '.join(system.qring.format(d) for d in conv.digits) or 'empty'})"
        )
        if conv.status == "unknown":
            exit_code = EXIT_UNKNOWN
    if system is None:
        described = {"ring": ring.name, "poly": str(modulus), "digits": result["canonical_digits"]}
    else:
        described = _system_json(system)
    return described, result, exit_code == EXIT_UNKNOWN, lines, exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digsys",
        description="Exact digit systems on quotient rings: expansions, "
        "finiteness and periodicity decisions, shift-radix classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, steps=False, closure=False, system=True):
        # each subcommand gets the caps it reads: steps, closure members
        if system:
            p.add_argument("--ring", required=True, help="Z, Zi or Fp:<p>")
            p.add_argument("--poly", required=True, help="base polynomial in x")
            p.add_argument("--digits", required=True, help="comma-separated digit list")
        if steps:
            p.add_argument("--cap", type=int, default=DEFAULT_STEP_CAP, help="step budget")
        if closure:
            p.add_argument(
                "--witness-cap",
                type=int,
                default=witness.DEFAULT_CLOSURE_CAP,
                help="witness closure size cap",
            )
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("expand", help="digit sequence and classification of an element")
    common(p, steps=True)
    p.add_argument("--element", required=True)
    p.set_defaults(func=_run_expand)

    p = sub.add_parser("decide", help="finite/periodic expansion property verdicts")
    common(p, closure=True)
    p.add_argument("--mode", choices=("brunotte", "power"), default=None)
    p.set_defaults(func=_run_decide)

    p = sub.add_parser("zero-cycle", help="shortest digit string summing to zero")
    common(p, steps=True)
    p.set_defaults(func=_run_zero_cycle)

    p = sub.add_parser("witness", help="witness closure, orbit graph, verdicts")
    common(p, closure=True)
    p.add_argument("--mode", choices=("brunotte", "power"), default=None)
    p.add_argument("--dot", help="write the orbit graph to this DOT file")
    p.set_defaults(func=_run_witness)

    p = sub.add_parser("srs", help="shift-radix membership via the integer bridge")
    common(p, closure=True, system=False)
    p.add_argument("--r", required=True, help="comma-separated fractions, e.g. 3/5,-2/5")
    p.add_argument("--eps", default="0", help="offset in [0,1), e.g. 1/2")
    p.set_defaults(func=_run_srs)

    p = sub.add_parser("product", help="combined digit system on a product modulus")
    common(p, steps=True, closure=True, system=False)
    p.add_argument("--ring", default="Z", help="Z, Zi or Fp:<p>")
    p.add_argument(
        "--factors", required=True, help="semicolon-separated '<poly>:<digits>' pairs"
    )
    p.add_argument("--element", default=None, help="expand this element")
    p.set_defaults(func=_run_product)

    p = sub.add_parser("ff", help="finite-field degree criterion and zero-cycle proof")
    common(p, steps=True, system=False)
    p.add_argument("--p", type=int, required=True, help="field characteristic")
    p.add_argument("--poly", required=True)
    p.add_argument("--digits", default=None, help="target digit set")
    p.add_argument("--prove-fep", action="store_true")
    p.add_argument("--convert", default=None, help="element to convert")
    p.set_defaults(func=_run_ff)

    return parser


_VALUE_FLAGS = {
    "--ring", "--poly", "--digits", "--element", "--cap", "--witness-cap",
    "--mode", "--dot", "--r", "--eps", "--factors", "--p", "--convert",
}


def _join_flag_values(argv: list[str]) -> list[str]:
    # fold "--digits -2,-1,0,1,2" into "--digits=-2,-1,0,1,2" so that
    # values starting with a dash are not mistaken for options
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_flag_values(list(argv)))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        system, result, cap_hit, lines, code = args.func(args)
    except (ParseError, ValidationError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        report = {"command": args.command, "system": system, "result": result, "cap_hit": cap_hit}
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
