"""Print the CLI output of a fixed corpus of invocations.

Runs about fifty ``digsys.cli.main`` invocations over all seven
subcommands -- Z, Z[i], F2[y], F3[y] and F131[y]; monic and non-monic
bases; constant digit sets and the non-constant ones of ``product``;
stabilised and capped closures -- each as text and as ``--json``, and
prints every exit code, stdout, stderr and DOT file.  Then it prints,
through the library, the expansions of a few elements in Z[i] and F3[y]
systems whose digits are not constant in x, which the CLI cannot
express.  Two versions of the library print the same bytes
exactly when their output agrees, so a change that must keep the output
byte-identical is checked with

    PYTHONPATH=<old checkout>/src python3 tools/output_corpus.py > before.txt
    PYTHONPATH=src python3 tools/output_corpus.py > after.txt
    diff before.txt after.txt

The corpus runs twice in one process, and only the first pass is
printed.  The second finds the process-wide tables of the library (the
interned constant digit sets with their closure rows, the F_p[y]
dividers) filled by the first, so it shows that what those tables hold
never changes output.

The exit status is 0 when every invocation returned an exit code of the
CLI (0, 1 or 2), every ``--json`` report parsed, every library system
expanded and the second pass printed the same bytes as the first; it is
1 when one raised or printed anything else, or the passes differed
(their diff goes to stderr).
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

from digsys import ZI, Fp, parse_poly, validate_system
from digsys.cli import main

ZI_GAUSS = ["--ring", "Zi", "--poly", "(1+i)x+(1+2i)", "--digits", "0,1,2,3,4"]
# lead 1+i of norm 2 and p0 = 3-i of norm 10, with the residues of p0
ZI_LEAD2 = ["--ring", "Zi", "--poly", "(1+i)x^2+(1+i)x+(3-i)",
            "--digits", "-1-i,-1,-1+i,-i,0,i,1-i,1,1+i,2+i"]
Z_EX1 = ["--ring", "Z", "--poly", "3x^2-2x+5", "--digits", "0,1,2,3,4"]
Z_SYM = ["--ring", "Z", "--poly", "3x^2-2x+5", "--digits", "-2,-1,0,1,2"]
F2_EX2 = ["--ring", "Fp:2", "--poly", "(y+1)x^2+y*x+(y^2+1)", "--digits", "1,y,y+1,y^3+y"]
F3_SYS = ["--ring", "Fp:3", "--poly", "(y+1)x^2+x+(y^2+2)",
          "--digits", "1,2,y,y+1,y+2,2y,2y+1,2y+2,y^3+2y"]
# p0 = 3y+7 over F131: the 131 constants are its residues, and
# coefficients take two-byte slots
F131_DIGITS = ["--digits", ",".join(map(str, range(131)))]

# (argv, DOT file name or None); each runs once as text and once as --json
CORPUS = [
    # expand
    (["expand", *Z_EX1, "--element", "-1"], None),
    (["expand", *Z_SYM, "--element", "x^3+7"], None),
    (["expand", "--ring", "Z", "--poly", "x^2+x+2", "--digits", "0,1", "--element", "5x-3"], None),
    (["expand", "--ring", "Z", "--poly", "3x+2", "--digits", "0,1", "--element", "x+7",
      "--cap", "300"], None),
    (["expand", *ZI_GAUSS, "--element", "3-i"], None),
    (["expand", "--ring", "Zi", "--poly", "x^2+(2-i)x+(3+i)",
      "--digits", "0,1,2,3,4,5,6,7,8,9", "--element", "7+4i"], None),
    (["expand", *F2_EX2, "--element", "x^2+y"], None),
    (["expand", *F3_SYS, "--element", "(2y+1)x+y^2"], None),
    # decide
    (["decide", *Z_EX1], None),
    (["decide", *Z_SYM, "--mode", "power"], None),
    (["decide", "--ring", "Z", "--poly", "x^2+4x+5", "--digits", "0,1,2,3,4"], None),
    (["decide", "--ring", "Z", "--poly", "3x+2", "--digits", "0,1", "--witness-cap", "100"], None),
    (["decide", *ZI_GAUSS], None),
    (["decide", "--ring", "Zi", "--poly", "x+(2+i)", "--digits", "0,1,2,3,4"], None),
    # leads of norm 2: the power seeds give closure members a residue part
    (["decide", *ZI_GAUSS, "--mode", "power"], None),
    (["decide", *ZI_LEAD2, "--mode", "power"], None),
    (["decide", *F2_EX2], None),
    (["decide", *F3_SYS], None),
    (["decide", *F2_EX2, "--witness-cap", "5"], None),
    (["decide", "--ring", "Fp:131", "--poly", "x^2+2x+(3y+7)", *F131_DIGITS], None),
    (["decide", "--ring", "Fp:131", "--poly", "(2y+1)x^2+5x+(3y+7)", *F131_DIGITS], None),
    # zero-cycle
    (["zero-cycle", *F2_EX2], None),
    (["zero-cycle", *Z_SYM], None),
    (["zero-cycle", *ZI_GAUSS], None),
    # witness, with the orbit graph as DOT
    (["witness", *Z_EX1], "z.dot"),
    (["witness", *ZI_GAUSS], "zi.dot"),
    (["witness", "--ring", "Zi", "--poly", "x^2+2x+(1+i)", "--digits", "0,1",
      "--witness-cap", "200"], "zi2.dot"),
    (["witness", *ZI_GAUSS, "--mode", "power"], "zi3.dot"),
    (["witness", *ZI_LEAD2, "--mode", "power"], "zi4.dot"),
    (["witness", *F2_EX2], "f2.dot"),
    (["witness", *F3_SYS, "--mode", "power"], "f3.dot"),
    (["witness", *F3_SYS, "--witness-cap", "10"], "f3cap.dot"),
    # srs
    (["srs", "--r", "3/5,-2/5", "--eps", "1/2"], None),
    (["srs", "--r", "1/2,3/4"], None),
    (["srs", "--r", "2"], None),
    # product: the combined digit sets are not constant in x
    (["product", "--factors", "x+2:0,1;x+3:0,1,2", "--element", "x"], None),
    (["product", "--factors", "2x+3:0,1,2;x+2:0,1", "--element", "x^2+1"], None),
    (["product", "--ring", "Zi", "--factors", "x+(1+i):0,1;x+(2+i):0,1,2,3,4",
      "--element", "x+i"], None),
    (["product", "--ring", "Fp:2", "--factors", "x+y:0,1;x+(y^2+y+1):0,1,y,y+1"], None),
    (["product", "--ring", "Fp:2", "--factors", "x+y:0,1;x+(y^2+y+1):0,1,y,y+1",
      "--element", "x+y^2"], None),
    # three factors: the expansion walks T of the combined system
    (["product", "--factors", "x+2:0,1;x+2:0,1;x+2:0,1", "--element", "5x^2+7"], None),
    # eventually periodic, capped, an invalid cap, and negative p0 in both factors
    (["product", "--factors", "x+2:0,1;x-2:0,1", "--element", "-1"], None),
    (["product", "--factors", "x+2:0,1;x+3:0,1,2", "--element", "5x+7", "--cap", "3"], None),
    (["product", "--factors", "x+2:0,1;x+3:0,1,2", "--element", "5x+7", "--cap", "-1"], None),
    (["product", "--factors", "x-2:0,1;x+3:-1,0,1", "--element", "3x^4-x+11",
      "--cap", "40"], None),
    # ff
    (["ff", "--p", "2", "--poly", "(y+1)x^2+y*x+(y^2+1)", "--digits", "1,y,y+1,y^3+y",
      "--prove-fep", "--convert", "x+y"], None),
    (["ff", "--p", "3", "--poly", "x+(y^2+1)"], None),
    (["ff", "--p", "2", "--poly", "x+y^18"], None),
    # input errors
    (["decide", "--ring", "Z", "--poly", "x-1", "--digits", "0"], None),
    (["expand", "--ring", "Zi", "--poly", "5", "--digits", "0", "--element", "1"], None),
]


# The CLI reads digits as ring constants, so digit sets that are not
# constant in x reach the orbit walk only through the library: (ring,
# base, digits, elements), each element expanded and its digit sequence
# printed at a cap of 500 steps.  The F3[y] base has the lead y+1, so
# members carry residue parts, which the x-parts of the digits make the
# walk reduce.
LIBRARY = [
    (ZI, "(1+i)x+(1+2i)", "i*x+(-2+3i),i*x^2+(2-7i),-1-2i,i,-2-i",
     ["3-i", "x+2i", "(2+i)x^2-1", "0"]),
    (ZI, "x^2+x+(2+i)", "0,x-1,(-i)x+(1-3i),(1-i)x+1,2x+i", ["5+3i", "x^3+i", "(1+i)x-4"]),
    (Fp(3), "(y+1)x^2+x+(y^2+2)", "0,x+1,2,y*x+y,y+1,y+2,2y,(y+1)x+(2y+1),y*x^2+(2y+2)",
     ["x^2+y", "(2y+1)x+y^2", "y^3*x^3+2", "0"]),
]


def run(argv: list[str], dot: str | None) -> tuple[bool, str]:
    """One invocation in a fresh directory: (ok, printed record)."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + (["--dot", dot] if dot else []))
        except Exception:
            return False, f"raised:\n{traceback.format_exc()}"
        finally:
            os.chdir(here)
        if dot:
            graph = Path(tmp, dot)
            dot_text = graph.read_text(encoding="utf-8") if graph.exists() else "(not written)\n"
    ok = code in (0, 1, 2)
    if "--json" in argv and code != 1:
        try:
            json.loads(out.getvalue())
        except ValueError:
            ok = False
    record = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    if dot:
        record += f"--- {dot}\n{dot_text}"
    return ok, record


def expansions(ring, poly: str, digits: str, elements: list[str]) -> str:
    """The expansions and digit sequences of ``elements`` in one system."""
    digit_polys = [parse_poly(ring, t) for t in digits.split(",")]
    system = validate_system(ring, parse_poly(ring, poly), digit_polys)
    fmt = system.qring.format
    lines = [f"digits: {', '.join(fmt(d) for d in system.digits)}"]
    for text in elements:
        a = system.qring.parse(text)
        exp, seq = system.expand(a, 500), system.digit_sequence(a, 500)
        lines.append(f"element {fmt(a)}: {exp.status}, steps {exp.steps}, period {exp.period}")
        lines.append(f"  digits: {', '.join(fmt(d) for d in exp.digits or ()) or '(none)'}")
        lines.append(
            f"  sequence: {seq.kind}, preperiod {seq.preperiod}, period {seq.period}: "
            f"{', '.join(fmt(d) for d in seq.digits) or '(empty)'}"
        )
    return "\n".join(lines) + "\n"


def corpus_pass() -> tuple[str, int]:
    """The printed corpus, once, and the number of invocations that failed."""
    parts, failed = [], 0
    for argv, dot in CORPUS:
        for extra in ([], ["--json"]):
            ok, record = run(argv + extra, dot)
            parts.append(f"=== digsys {' '.join(argv + extra)}{' --dot ' + dot if dot else ''}\n")
            parts.append(record)
            failed += not ok
    for ring, poly, digits, elements in LIBRARY:
        parts.append(f"=== library {ring.name} {poly} digits {digits}\n")
        try:
            parts.append(expansions(ring, poly, digits, elements))
        except Exception:
            parts.append(f"raised:\n{traceback.format_exc()}")
            failed += 1
    parts.append(f"=== {len(CORPUS)} invocations, text and --json, and {len(LIBRARY)} library "
                 f"systems; {failed} failed\n")
    return "".join(parts), failed


def main_corpus() -> int:
    first, failed = corpus_pass()
    sys.stdout.write(first)
    # the second pass finds the process-wide tables (closure rows, F_p[y]
    # dividers) filled by the first, so a warm table that changed any
    # output would show here
    second, _ = corpus_pass()
    if second != first:
        sys.stderr.writelines(
            difflib.unified_diff(
                first.splitlines(True), second.splitlines(True), "first pass", "second pass"
            )
        )
        print("the second pass printed different bytes", file=sys.stderr)
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_corpus())
