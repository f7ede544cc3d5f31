import json
import os
import subprocess
import sys
import time

import pytest

import digsys
from digsys import DigitSystem, witness
from digsys.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_example1(self, capsys):
        code, out, _ = run(
            capsys,
            "expand",
            "--ring", "Z",
            "--poly", "3x^2-2x+5",
            "--digits", "0,1,2,3,4",
            "--element", "-1",
        )
        assert code == 0
        assert "digits: 4, 3, 1, 3" in out
        assert "finite (4 steps)" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "expand",
            "--ring", "Z",
            "--poly", "3x^2-2x+5",
            "--digits", "0,1,2,3,4",
            "--element", "-1",
            "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "expand"
        assert report["system"] == {
            "ring": "Z",
            "poly": "3*x^2 - 2*x + 5",
            "digits": ["0", "1", "2", "3", "4"],
        }
        assert report["result"]["class"] == "finite"
        assert report["result"]["steps"] == 4
        assert report["result"]["digits"] == ["4", "3", "1", "3"]
        assert report["cap_hit"] is False

    def test_unknown_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            "expand",
            "--ring", "Z",
            "--poly", "3x+2",
            "--digits", "0,1",
            "--element", "3",
            "--cap", "10",
            "--json",
        )
        assert code == 2
        report = json.loads(out)
        assert report["result"]["class"] == "unknown"
        assert report["cap_hit"] is True

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "expand",
            "--ring", "Z",
            "--poly", "3x^2-2x+5",
            "--digits", "0,1,2,3,4",
            "--element", "1+**",
        )
        assert code == 1
        assert "error:" in err

    def test_validation_error_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "expand",
            "--ring", "Z",
            "--poly", "x-1",
            "--digits", "0",
            "--element", "1",
        )
        assert code == 1
        assert "unit" in err

    def test_element_roundtrip(self, capsys):
        _, out, _ = run(
            capsys,
            "expand",
            "--ring", "Fp:2",
            "--poly", "(y+1)x^2+y*x+(y^2+1)",
            "--digits", "1,y,y+1,y^3+y",
            "--element", "y^3+y",
            "--json",
        )
        report = json.loads(out)
        from digsys import Fp, parse_poly, validate_system

        ring = Fp(2)
        system = validate_system(
            ring,
            parse_poly(ring, report["system"]["poly"].replace("X", "x")),
            [ring.parse(t) for t in report["system"]["digits"]],
        )
        for text in report["result"]["digits"]:
            assert system.qring.format(system.qring.parse(text)) == text


class TestDecide:
    def test_example1(self, capsys):
        code, out, _ = run(
            capsys,
            "decide",
            "--ring", "Z",
            "--poly", "3x^2-2x+5",
            "--digits", "0,1,2,3,4",
        )
        assert code == 0
        assert "fep: yes" in out
        assert "pep: yes" in out

    def test_negative_digit_list(self, capsys):
        code, out, _ = run(
            capsys,
            "decide",
            "--ring", "Z",
            "--poly", "3x^2-2x+5",
            "--digits", "-2,-1,0,1,2",
        )
        assert code == 0
        assert "fep: no" in out
        assert "pep: yes" in out

    def test_early_euclidean_no(self, capsys):
        code, out, _ = run(
            capsys,
            "decide",
            "--ring", "Z",
            "--poly", "3x+2",
            "--digits", "0,1",
            "--witness-cap", "100",
            "--json",
        )
        assert code == 2  # |p0| < |p_d|: fep unknown from the root stage
        report = json.loads(out)
        assert report["result"]["euclidean_necessary_check"]["answer"] == "no"
        # the root stage builds no closure, so no cap was hit, and its
        # certificate names the values it compared
        assert report["cap_hit"] is False
        for prop in ("fep", "pep"):
            assert report["result"][prop]["certificate"] == {
                "cap": 100, "mode": "brunotte", "root_inside": {"value_p0": 2, "value_pd": 3}
            }

    def test_cap_hit_only_when_a_closure_is_capped(self, capsys):
        decide = ["decide", "--ring", "Z", "--poly", "3x^2-2x+5", "--digits", "0,1,2,3,4"]
        for argv, want in (
            ([*decide, "--witness-cap", "1"], (2, True)),
            (decide, (0, False)),
            (["srs", "--r", "3/2", "--witness-cap", "100"], (2, False)),  # the root stage
            (["srs", "--r", "3/5,-2/5", "--witness-cap", "1"], (2, True)),
        ):
            code, out, _ = run(capsys, *argv, "--json")
            assert (code, json.loads(out)["cap_hit"]) == want, argv

    def test_negative_witness_cap(self, capsys):
        system = ["--ring", "Z", "--poly", "3x+2", "--digits", "0,1"]
        for argv in (["decide", *system], ["witness", *system], ["srs", "--r", "3/5,-2/5"]):
            code, out, err = run(capsys, *argv, "--witness-cap", "-1")
            assert (code, out) == (1, ""), argv
            assert "cap must be at least 0" in err

    def test_negative_witness_cap_in_the_library(self):
        # 3x+2 takes the root stage, which builds no closure; the cap and
        # the mode are still checked first
        system = digsys.validate_system(digsys.Z, digsys.parse_poly(digsys.Z, "3x+2"), [0, 1])
        for decide in (digsys.decide_fep, digsys.decide_pep):
            with pytest.raises(ValueError, match="cap must be at least 0"):
                decide(system, closure_cap=-1)
            with pytest.raises(ValueError, match="unknown witness mode"):
                decide(system, mode="basis")
            assert decide(system, closure_cap=0).certificate["root_inside"] == {
                "value_p0": 2,
                "value_pd": 3,
            }

    def test_caps_only_where_read(self, capsys):
        # --cap bounds orbit walks and --witness-cap closures; a subcommand
        # rejects the one it does not read
        system = ["--ring", "Z", "--poly", "3x^2-2x+5", "--digits", "0,1,2,3,4"]
        for argv in (
            ["decide", *system, "--cap", "5"],
            ["witness", *system, "--cap", "5"],
            ["srs", "--r", "3/5,-2/5", "--cap", "5"],
            ["expand", *system, "--element", "1", "--witness-cap", "5"],
            ["zero-cycle", *system, "--witness-cap", "5"],
            ["ff", "--p", "2", "--poly", "x^2+(y^2+y+1)", "--witness-cap", "5"],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1 and "unrecognized arguments" in err, argv


class TestZeroCycle:
    def test_example2(self, capsys):
        code, out, _ = run(
            capsys,
            "zero-cycle",
            "--ring", "Fp:2",
            "--poly", "(y+1)x^2+y*x+(y^2+1)",
            "--digits", "1,y,y+1,y^3+y",
        )
        assert code == 0
        assert "zero cycle: y^3+y, 1, 1, 1, y+1" in out
        assert "zero period: 5" in out


class TestWitness:
    def test_dot_export(self, capsys, tmp_path):
        dot = tmp_path / "graph.dot"
        code, out, _ = run(
            capsys,
            "witness",
            "--ring", "Zi",
            "--poly", "(1+i)x+(1+2i)",
            "--digits", "0,1,2,3,4",
            "--dot", str(dot),
        )
        assert code == 0
        assert "fep: yes" in out
        assert dot.read_text() == (
            "digraph T {\n"
            '  "-1+i" -> "1-i";\n'
            '  "-1-i" -> "2";\n'
            '  "-2" -> "3-i";\n'
            '  "-2+2i" -> "2-2i";\n'
            '  "-3+i" -> "4-2i";\n'
            '  "-4+2i" -> "2-2i";\n'
            '  "0" -> "0";\n'
            '  "1+i" -> "1-i";\n'
            '  "1-i" -> "2";\n'
            '  "2" -> "0";\n'
            '  "2-2i" -> "1+i";\n'
            '  "3-i" -> "-1+i";\n'
            '  "4-2i" -> "-2+2i";\n'
            "}\n"
        )

    def test_byte_identical_reruns(self, capsys):
        args = (
            "witness",
            "--ring", "Zi",
            "--poly", "(1+i)x+(1+2i)",
            "--digits", "0,1,2,3,4",
            "--json",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_graph_reads_the_closure(self, capsys, monkeypatch):
        # the orbit graph comes from the closure's recorded images: no
        # T step runs once the closure is built
        calls = {"step": 0, "at_closure": None}
        step, closure = DigitSystem.step, witness.witness_closure

        def counting_step(self, a):
            calls["step"] += 1
            return step(self, a)

        def recording_closure(*args, **kwargs):
            out = closure(*args, **kwargs)
            calls["at_closure"] = calls["step"]
            return out

        monkeypatch.setattr(DigitSystem, "step", counting_step)
        monkeypatch.setattr(witness, "witness_closure", recording_closure)
        code, _, _ = run(
            capsys,
            "witness",
            "--ring", "Zi",
            "--poly", "(1+i)x+(1+2i)",
            "--digits", "0,1,2,3,4",
            "--dot", os.devnull,
        )
        assert code == 0
        assert calls["at_closure"] is not None
        assert calls["step"] - calls["at_closure"] == 0


class TestSrs:
    def test_memberships(self, capsys):
        code, out, _ = run(capsys, "srs", "--r", "3/5,-2/5", "--eps", "1/2", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["in_D0"] == "no"
        assert report["result"]["in_D"] == "yes"
        assert report["result"]["tau_cycle"]

    def test_plain_output(self, capsys):
        code, out, _ = run(capsys, "srs", "--r", "3/5,-2/5")
        assert code == 0
        assert "in_D0 (orbits ultimately zero): yes" in out


    def test_oversized_parameters_refused(self, capsys):
        # an exponent literal is refused before Fraction builds 10**k, and a
        # common denominator above the enumeration limit before its digits
        start = time.perf_counter()
        for argv in (
            ("--r", "1e10000000"),
            ("--r", "1/2,3E-9999999"),
            ("--r", "1/2", "--eps", "1e-10000000"),
            ("--r", "1/100000000"),
        ):
            code, out, err = run(capsys, "srs", *argv)
            assert code == 1 and not out and err.startswith("error:"), argv
        assert time.perf_counter() - start < 1.0

    def test_integer_parameters(self, capsys):
        code, out, _ = run(capsys, "srs", "--r", "2", "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assert (result["in_D0"], result["in_D"]) == ("no", "unknown")
        assert result["bridge_poly"] is None and "injective" in result["note"]


class TestProduct:
    def test_expand_element(self, capsys):
        code, out, _ = run(
            capsys,
            "product",
            "--factors", "x+2:0,1;x+3:0,1,2",
            "--element", "x",
            "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["digit_set"] == [
            "0", "1", "X + 2", "X + 3", "2*X + 4", "2*X + 5",
        ]
        assert report["result"]["expansion"]["digits"] == ["0", "1"]
        assert report["result"]["fep_propagated"] == "yes"

    def test_expand_three_factors(self, capsys):
        code, out, _ = run(
            capsys,
            "product",
            "--factors", "x+2:0,1;x+2:0,1;x+2:0,1",
            "--element", "5x^2+7",
            "--json",
        )
        assert code == 0
        expansion = json.loads(out)["result"]["expansion"]
        assert expansion["status"] == "finite" and len(expansion["digits"]) == 7


class TestFf:
    def test_prove_fep(self, capsys):
        code, out, _ = run(
            capsys,
            "ff",
            "--p", "2",
            "--poly", "(y+1)x^2+y*x+(y^2+1)",
            "--digits", "1,y,y+1,y^3+y",
            "--prove-fep",
            "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["criterion"]["fep"] is True
        assert report["result"]["prove_fep"]["answer"] == "yes"
        assert report["result"]["prove_fep"]["zero_cycle"] == ["y^3+y", "1", "1", "1", "y+1"]

    def test_convert(self, capsys):
        code, out, _ = run(
            capsys,
            "ff",
            "--p", "2",
            "--poly", "(y+1)x^2+y*x+(y^2+1)",
            "--digits", "1,y,y+1,y^3+y",
            "--convert", "x",
            "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["convert"]["status"] == "finite"

    def test_oversized_canonical_digit_set(self, capsys):
        # 2^40 canonical digits: the degree criterion is printed, the digits
        # are not listed
        code, out, err = run(capsys, "ff", "--p", "2", "--poly", "x+y^40", "--json")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["result"]["criterion"] == {
            "fep": True,
            "pep": True,
            "max_coefficient_degree": 0,
            "p0_degree": 40,
        }
        assert report["result"]["canonical_digits"] is None
        assert report["system"]["digits"] is None
        code, out, _ = run(capsys, "ff", "--p", "2", "--poly", "x+y^18")
        assert code == 0
        assert out.splitlines()[1] == "canonical digits: more than 65536, not listed"

    def test_oversized_digit_set_refused_when_needed(self, capsys):
        # the proof and the conversion walk the canonical digits
        for extra in (["--prove-fep"], ["--convert", "x"]):
            argv = ["ff", "--p", "2", "--poly", "x+y^40", "--digits", "1,y", *extra, "--json"]
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert "has 1099511627776 members, more than the enumeration limit 65536" in err


def test_import_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(digsys.__file__)))
    probe = "import sys, digsys.cli; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr or "importing digsys.cli loaded numpy"


def test_output_independent_of_hash_seed(tmp_path):
    """F_p[y] and Z[i] listings and DOT graphs print byte for byte alike
    under two hash seeds: FpPoly and GaussianInt hash (int, int) pairs,
    the atoms of closure members hash ints and int pairs, and every
    listing sorts."""
    zi = ["--ring", "Zi", "--poly", "(1+i)x+(1+2i)", "--digits", "0,1,2,3,4"]
    f2 = ["--ring", "Fp:2", "--poly", "(y+1)x^2+y*x+(y^2+1)", "--digits", "1,y,y+1,y^3+y"]
    f3 = ["--ring", "Fp:3", "--poly", "(y+1)x^2+x+(y^2+2)",
          "--digits", "1,2,y,y+1,y+2,2y,2y+1,2y+2,y^3+2y"]
    commands = [
        ["ff", "--p", "2", "--poly", "(y+1)x^2+y*x+(y^2+1)", "--digits", "1,y,y+1,y^3+y",
         "--prove-fep", "--convert", "x+y"],
        ["ff", "--p", "3", "--poly", "x+(y^2+1)"],
        ["zero-cycle", *f2],
        ["decide", *f2],
        ["decide", *f3],
        ["witness", *f2, "--dot", "f2.dot"],
        ["witness", *f3, "--dot", "f3.dot"],
        ["decide", *zi],
        ["witness", *zi, "--dot", "zi.dot"],
        ["expand", *zi, "--element", "3-i"],
        ["expand", "--ring", "Zi", "--poly", "x^2+(2-i)x+(3+i)", "--digits",
         ",".join(str(k) for k in range(10)), "--element", "7+4i"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from digsys.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv + ['--json'])\n"
        "    print(code, out.getvalue())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(digsys.__file__)))
    runs = []
    for seed in ("0", "1"):
        cwd = tmp_path / seed
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            cwd=cwd,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        dots = [(cwd / f"{name}.dot").read_bytes() for name in ("f2", "f3", "zi")]
        runs.append((proc.stdout, *dots))
    assert runs[0] == runs[1]
    assert runs[0][0].count(b'"command"') == len(commands)
    assert runs[0][2].count(b"->") == 81  # the F3 closure and its cycle
    assert runs[0][3].count(b"->") == 13  # the paper's 13-element Z[i] witness set
