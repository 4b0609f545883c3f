import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from salemrel import cli, factorint, salemkit
from salemrel.cyclo import cyclotomic
from salemrel.polyarith import IntPoly, format_poly, trace_lift
from salemrel.realroots import RootBox
from salemrel.salemkit import (ConstructionFailed, enum_deg6_trace0,
                               pair_sum_enum, trace0_salem)

DEG8 = "x^8-2x^7+x^6-2x^5+x^4-2x^3+x^2-2x+1"
DEG12 = "x^12-4x^10-6x^9-2x^8+4x^7+7x^6+4x^5-2x^4-6x^3-4x^2+1"
# trace lift of h(2x - x^2) with h = u^2 + 2u - 1: its betas pair into sums 2
LIFT = "x^8-4x^7+6x^6-8x^5+9x^4-8x^3+6x^2-4x+1"


def _run_json(capsys, argv):
    code = cli.run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- exit codes ---------------------------------------------------------------------------


def test_exit_code_success(capsys):
    assert cli.run(["salem-check", "x^4+1"]) == 0
    capsys.readouterr()


def test_exit_code_input_errors(capsys):
    assert cli.run(["parse", "x^-1"]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.run(["no-such-command"]) == 1
    capsys.readouterr()
    assert cli.run([]) == 1
    capsys.readouterr()
    assert cli.run(["salem-check", ""]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.run(["relations", "x^4+1", "--max-length", "4"]) == 1
    err = capsys.readouterr().err
    assert "not a Salem minimal polynomial: RootWindowViolation" in err
    assert cli.run(["enum", "--lemma4", "9"]) == 1
    capsys.readouterr()
    assert cli.run(["seq", "--family", "4", "--n", "3"]) == 1
    capsys.readouterr()


def test_exit_code_verification_failure(capsys, monkeypatch):
    original = cli._HANDLERS["parse"]

    def broken(args):
        return dataclasses.replace(original(args),
                                   verify=lambda: ["forced failure"])

    monkeypatch.setitem(cli._HANDLERS, "parse", broken)
    assert cli.run(["parse", "x+1", "--verify"]) == 2
    captured = capsys.readouterr()
    assert "verification failed: forced failure" in captured.err
    # without --verify the same handler exits clean
    assert cli.run(["parse", "x+1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("exc, code", [
    (OverflowError("int too large to convert to float"), 1),
    (RecursionError("maximum recursion depth exceeded"), 1),
    (AssertionError("alpha bracket collapsed"), 2),
    (ConstructionFailed("window pair (4,-1) failed to lift"), 2),
])
def test_escaping_exceptions_exit_with_one_line(capsys, monkeypatch, exc,
                                                code):
    def broken(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "parse", broken)
    assert cli.run(["parse", "x+1"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and type(exc).__name__ in captured.err


def test_python_dash_m_entry_point():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "salemrel", "parse",
                           "x^2+1"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "x^2+1"


def test_every_enumerated_certificate_verifies():
    certs = (list(enum_deg6_trace0()) + list(pair_sum_enum(2).salem)
             + list(pair_sum_enum(3).salem))
    assert len(certs) == 4 + 15 + 30
    for cert in certs:
        assert cli._verify_certificate(cert) == []


def test_verify_factorization_never_takes_the_placement_shortcut(
        monkeypatch):
    # factor proves a monic reciprocal part of even degree irreducible by
    # its root placement; --verify re-proves a certified trace polynomial
    # by factoring it, which must not rest on that argument
    certs = ([trace0_salem(d) for d in range(6, 101, 2)]
             + list(enum_deg6_trace0())
             + [c for k in (2, 3, 4) for c in pair_sum_enum(k).salem])
    for cert in certs:
        g = cert.trace_poly
        assert not (g.is_monic and g.reciprocal() == g
                    and g.degree % 2 == 0), g
    original = factorint._placed_irreducible
    placed = []

    def recording(f):
        placed.append(original(f))
        return placed[-1]

    monkeypatch.setattr(factorint, "_placed_irreducible", recording)
    for cert in certs:
        assert cli._verify_certificate(cert) == []
    assert placed and not any(placed)


def test_verify_flags_reducible_certificate(capsys, monkeypatch):
    # g' = g*(x + 1) for the first sextic's g: its placement holds, so a
    # certifier that skipped the irreducibility test would produce a
    # consistent certificate for f' = trace_lift(g')
    g = IntPoly((-1, -4, 0, 1)) * IntPoly((1, 1))
    f = trace_lift(g)
    monkeypatch.setattr(salemkit, "_placed_reducible", lambda g: False)
    forged = salemkit.salem_check(f)
    assert forged and forged.trace_poly == g and forged.minpoly == f
    assert cli._verify_certificate(forged) == [
        "trace polynomial is not irreducible"]
    assert cli.run(["salem-check", format_poly(f), "--verify"]) == 2
    assert "trace polynomial is not irreducible" in capsys.readouterr().err


def test_verify_flags_beta_box_without_a_root():
    # beta box 1 moved into the gap above box 2: g is +1 at both ends, so
    # the boxes no longer place the roots of g, though a Sturm recount of
    # g itself still finds them where a Salem trace polynomial has them
    cert = trace0_salem(10)
    g, boxes = cert.trace_poly, list(cert.beta_boxes)
    gap_lo, gap_hi = boxes[2].hi, boxes[1].lo
    lo, hi = (2 * gap_lo + gap_hi) / 3, (gap_lo + 2 * gap_hi) / 3
    assert g.sign_at(lo) == g.sign_at(hi) == 1
    boxes[1] = RootBox._from_ends(g, lo.numerator * hi.denominator,
                                  hi.numerator * lo.denominator,
                                  lo.denominator * hi.denominator)
    forged = dataclasses.replace(cert, beta_boxes=tuple(boxes))
    assert cli._verify_certificate(cert) == []
    assert cli._verify_certificate(forged) == [
        "a beta box does not bracket a sign change of the trace polynomial"]


# -- document schema ----------------------------------------------------------------------


def test_salem_check_huge_coefficients(capsys):
    # the root bound's k-th roots of about 10^400 overflow a float
    r = 10 ** 400
    f = trace_lift(IntPoly((r + 1, r - 1, -(r + 1), 1)))
    arg = "[" + ",".join(map(str, f.coeffs)) + "]"
    code, doc = _run_json(capsys, ["salem-check", arg])
    assert code == 0
    assert doc["result"]["is_salem"] is True
    assert len(doc["certificates"]) == 1


def test_salem_check_root_bound_near_the_float_range(capsys):
    # g = x^2 - 10^304 x + 1 has float coefficients, but its root bound over
    # a 2^-17 grid cell overflows a float: the Sturm path certifies it, and
    # the digests are of the output it gives, plain and --json
    f = trace_lift(IntPoly((1, -10 ** 304, 1)))
    arg = "[" + ",".join(map(str, f.coeffs)) + "]"
    for extra, digest in (
            ([], "e0b1bae51d3b5321449d4d360566edce"
                 "81c2cb4d717c67a8120a75b48243002e"),
            (["--json"], "842c500aebfdedaac4c2dbd835f80a92"
                         "858a4ddd6ab07c13383ede23cda7e065")):
        assert cli.run(["salem-check", arg] + extra) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_salem_check_verify_skips_costly_oracle(capsys):
    # the factorization oracle would trial-divide values near 10^21
    r = 10 ** 20
    f = trace_lift(IntPoly((r + 1, r - 1, -(r + 1), 1)))
    arg = "[" + ",".join(map(str, f.coeffs)) + "]"
    start = time.monotonic()
    assert cli.run(["salem-check", arg, "--verify"]) == 0
    assert time.monotonic() - start < 20
    captured = capsys.readouterr()
    assert "verified: all cross-checks passed" in captured.out
    assert "factorization oracle skipped" in captured.err
    # small trace polynomials still go through the oracle
    assert cli.run(["salem-check", DEG8, "--verify"]) == 0
    assert "skipped" not in capsys.readouterr().err


def test_json_document_schema(capsys):
    code, doc = _run_json(capsys, ["salem-check", DEG8])
    assert code == 0
    assert sorted(doc.keys()) == ["certificates", "command", "input",
                                  "reports", "result", "verified"]
    assert doc["command"] == "salem-check"
    assert doc["result"] == {"is_salem": True, "rejection": None}
    assert doc["verified"] is False

    cert = doc["certificates"][0]
    assert cert["minpoly"]["coeffs"] == ["1", "-2", "1", "-2", "1", "-2",
                                         "1", "-2", "1"]
    assert cert["degree"] == 8 and cert["trace"] == 2

    alpha = cert["alpha"]
    for key in ("lo", "hi"):
        num, _, den = alpha[key].partition("/")
        assert num.lstrip("-").isdigit() and den.isdigit()
    assert alpha["approx"]["lo"] == "1.99400419919"
    assert alpha["approx"]["note"] == "approximate (12 significant digits)"
    assert len(cert["beta_boxes"]) == 4


def test_json_rejection_document(capsys):
    code, doc = _run_json(capsys, ["salem-check", "x^4+1"])
    assert code == 0
    assert doc["result"]["is_salem"] is False
    assert doc["result"]["rejection"]["kind"] == "RootWindowViolation"
    assert doc["certificates"] == []


def test_verified_flag_set(capsys):
    code = cli.run(["salem-check", DEG8, "--json", "--verify"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["verified"] is True


# -- subcommand goldens ---------------------------------------------------------------------


def test_trace_poly_and_lift(capsys):
    code, doc = _run_json(capsys, ["trace-poly", DEG12])
    assert code == 0
    assert doc["result"]["trace_poly"]["display"] == "x^6-10x^4-6x^3+23x^2+22x+1"

    code, doc = _run_json(capsys, ["trace-lift", "x^3-5x-3"])
    assert code == 0
    assert doc["result"]["lift"]["display"] == "x^6-2x^4-3x^3-2x^2+1"


def test_lemma4_lift_golden(capsys):
    code, doc = _run_json(capsys, ["lemma4-lift", "x^2+4x+1"])
    assert code == 0
    assert doc["result"]["lift"]["coeffs"] == ["1", "-2", "1", "-2", "1",
                                               "-2", "1", "-2", "1"]
    assert len(doc["certificates"]) == 1

    code, doc = _run_json(capsys, ["lemma4-lift", "x^2+4x+2"])
    assert code == 0
    assert doc["certificates"] == []  # reducible lift: no certificate


def test_factor_golden(capsys):
    code, doc = _run_json(capsys, ["factor", "x^6-10x^4-6x^3+22x^2+18x-3"])
    assert code == 0
    displays = [f["poly"]["display"] for f in doc["result"]["factors"]]
    assert "x^2-3" in displays and "x^4-7x^2-6x+1" in displays


def test_cyclotomic_factors_golden(capsys):
    code, doc = _run_json(capsys, ["cyclotomic-factors", "x^5-x^3-x^2+1"])
    assert code == 0
    hits = [(h["order"], h["multiplicity"]) for h in doc["result"]["hits"]]
    assert hits == [(1, 2), (2, 1), (3, 1)]


def test_factor_and_cyclotomic_factors_of_x600_minus_1(capsys):
    orders = [d for d in range(1, 601) if 600 % d == 0]
    assert len(orders) == 24
    start = time.monotonic()
    code, doc = _run_json(capsys, ["factor", "x^600-1"])
    assert code == 0
    expected = sorted((cyclotomic(d) for d in orders), key=IntPoly.sort_key)
    assert [(f["poly"]["display"], f["multiplicity"])
            for f in doc["result"]["factors"]] == \
        [(format_poly(q), 1) for q in expected]
    code, doc = _run_json(capsys, ["cyclotomic-factors", "x^600-1"])
    assert code == 0
    assert [(h["order"], h["multiplicity"])
            for h in doc["result"]["hits"]] == [(d, 1) for d in orders]
    assert time.monotonic() - start < 5


def test_seq_and_bad_degrees(capsys):
    code, doc = _run_json(capsys, ["seq", "--family", "2", "--n", "4"])
    assert code == 0
    assert doc["result"]["poly"]["display"] == "x^5-x^3-x^2+1"

    code, doc = _run_json(capsys, ["bad-degrees", "--family", "1",
                                   "--max-degree", "40"])
    assert code == 0
    r = doc["result"]
    assert r["degree_shift"] == 3
    assert r["d_progressions"] == [
        {"order": 2, "residues": [1]},
        {"order": 8, "residues": [2]},
        {"order": 12, "residues": [1]},
        {"order": 18, "residues": [17]},
        {"order": 30, "residues": [24]},
    ]
    even_bad = [d for d in r["bad_degrees"] if d % 2 == 0]
    assert even_bad == [10, 18, 24, 26, 34]


def test_trace0_command(capsys):
    code, doc = _run_json(capsys, ["trace0", "--degree", "10"])
    assert code == 0
    assert doc["result"]["family"] == 2 and doc["result"]["n"] == 9
    assert doc["certificates"][0]["trace"] == 0

    assert cli.run(["trace0", "--degree", "26", "--verify"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("verified: all cross-checks passed")

    assert cli.run(["trace0", "--degree", "7"]) == 1
    capsys.readouterr()


def test_enum_deg6(capsys):
    code, doc = _run_json(capsys, ["enum", "--deg6-trace0"])
    assert code == 0
    r = doc["result"]
    assert r["mode"] == "deg6-trace0" and r["count"] == 4
    assert r["pairs"] == [[4, -1], [4, -2], [4, -3], [5, -3], [5, -4],
                          [6, -5], [7, -7]]
    assert [c["display"] for c in r["discarded_cubics"]] == [
        "x^3-4x-3", "x^3-5x-4", "x^3-6x-5"
    ]
    assert [c["minpoly"]["display"] for c in doc["certificates"]] == [
        "x^6-x^4-x^3-x^2+1",
        "x^6-x^4-2x^3-x^2+1",
        "x^6-2x^4-3x^3-2x^2+1",
        "x^6-4x^4-7x^3-4x^2+1",
    ]


def test_enum_lemma4_k2(capsys):
    code, doc = _run_json(capsys, ["enum", "--lemma4", "2"])
    assert code == 0
    assert doc["result"]["salem_count"] == 15
    assert doc["result"]["satisfying_count"] == 24
    assert len(doc["certificates"]) == 15


def test_enum_lemma4_capped(capsys, monkeypatch):
    # k = 6 takes about 10 s and is accepted (the real run is pinned in
    # test_salemkit); k = 7 took about 110 s and stays library-only
    monkeypatch.setattr(cli, "pair_sum_enum",
                        lambda k: salemkit.WindowEnumResult(k, (), ()))
    assert cli.run(["enum", "--lemma4", "6"]) == 0
    assert capsys.readouterr().out == \
        "k=6: 0 window polynomials, 0 Salem certificates\n"
    for k in ("1", "7"):
        assert cli.run(["enum", "--lemma4", k]) == 1
        assert capsys.readouterr().err == (
            "error: --lemma4 K must be between 2 and 6; larger K is "
            "available through the library enumerator\n")


def test_enum_modes_mutually_exclusive(capsys):
    assert cli.run(["enum"]) == 1
    capsys.readouterr()
    assert cli.run(["enum", "--deg6-trace0", "--lemma4", "2"]) == 1
    capsys.readouterr()


def test_relations_command(capsys):
    code, doc = _run_json(capsys, ["relations", DEG8, "--max-length", "8"])
    assert code == 0
    assert len(doc["reports"]) == 1
    rep = doc["reports"][0]
    assert rep["vector"] == ["1", "1", "-1", "-1", "-1", "-1", "1", "1"]
    assert rep["reduced"] == ["1", "-1", "-1", "1"]
    assert rep["status"] == "certified_pairsum"
    assert rep["nontrivial"] is True
    assert rep["precision_bits"] == 64

    code, doc = _run_json(capsys, ["relations", DEG12, "--max-length", "6",
                                   "--precision", "96"])
    assert code == 0
    assert {r["status"] for r in doc["reports"]} == {"certified_quadsplit"}
    assert all(r["precision_bits"] == 96 for r in doc["reports"])

    assert cli.run(["relations", DEG8, "--max-length", "8", "--verify"]) == 0
    capsys.readouterr()


def test_relations_verify_on_quadsplit_and_lift(capsys):
    for poly, expected in (
            (DEG12, ["reduced (0, 1, 1, 0, 0, 1)  length 6  nontrivial  "
                     "certified_quadsplit",
                     "reduced (1, 0, 0, 1, 1, 0)  length 6  nontrivial  "
                     "certified_quadsplit"]),
            (LIFT, ["reduced (1, -1, -1, 1)  length 8  nontrivial  "
                    "certified_pairsum"])):
        assert cli.run(["relations", poly, "--max-length", "8",
                        "--verify"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == expected + [
            "verified: all cross-checks passed"]


def test_relations_verify_refines_only_for_certified_reports(capsys,
                                                             monkeypatch):
    calls = []
    real_refine = cli.refine

    def counting_refine(box, eps):
        calls.append(eps)
        return real_refine(box, eps)

    monkeypatch.setattr(cli, "refine", counting_refine)
    # no relation of length <= 2: nothing to re-screen, so no box is refined
    assert cli.run(["relations", DEG8, "--max-length", "2", "--verify"]) == 0
    assert capsys.readouterr().out == ("no relations found\n"
                                       "verified: all cross-checks passed\n")
    assert calls == []
    # the certified length-4 relation is re-screened on all four beta boxes
    assert cli.run(["relations", DEG8, "--max-length", "8", "--verify"]) == 0
    capsys.readouterr()
    assert calls == [Fraction(1, 1 << 256)] * 4


def test_parse_command(capsys):
    code, doc = _run_json(capsys, ["parse", "[1,0,1]"])
    assert code == 0
    assert doc["result"]["poly"]["display"] == "x^2+1"


# -- size caps: each is checked before any work starts ----------------------------------


def test_seq_n_capped(capsys):
    # without the cap this ran out of memory building a 10^8-term member
    assert cli.run(["seq", "--family", "1", "--n", "100000000"]) == 1
    assert capsys.readouterr().err == "error: --n must be at most 1000000\n"


def test_bad_degrees_max_degree_capped(capsys):
    assert cli.run(["bad-degrees", "--family", "1",
                    "--max-degree", "1000001"]) == 1
    assert capsys.readouterr().err == \
        "error: --max-degree must be at most 1000000\n"


def test_trace0_degree_capped(capsys):
    for degree in ("402", "100000"):
        assert cli.run(["trace0", "--degree", degree]) == 1
        assert capsys.readouterr().err == \
            "error: --degree must be at most 400\n"


@pytest.mark.parametrize("command, at_cap, past_cap", [
    ("salem-check", "x^400+1", "x^402+1"),
    ("trace-poly", "x^400+1", "x^402+1"),
    ("relations", "x^400+1", "x^402+1"),
    # the lift has twice the input's degree
    ("trace-lift", "x^200+1", "x^201+1"),
    # the lift has four times the input's degree
    ("lemma4-lift", "x^100+1", "x^101+1"),
])
def test_trace_map_commands_capped(capsys, command, at_cap, past_cap):
    # trace0 --degree's cap bounds the reciprocal polynomial, input or lift;
    # without it salem-check x^20000+1 ran past 20 s
    extra = ["--max-length", "2"] if command == "relations" else []
    code = cli.run([command, at_cap, *extra])
    assert "must be at most" not in capsys.readouterr().err
    # x^400+1 is no Salem polynomial, so relations refuses it after the cap
    assert code == (1 if command == "relations" else 0)
    for poly in (past_cap, "x^20000+1"):
        start = time.perf_counter()
        assert cli.run([command, poly, *extra]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == \
            "error: reciprocal polynomial degree must be at most 400\n"


@pytest.mark.parametrize("command", ["factor", "cyclotomic-factors"])
def test_factor_commands_capped(capsys, command):
    # both first sweep the cyclotomic orders, quadratic in the degree;
    # without the cap cyclotomic-factors x^20000+1 took 51 s
    assert cli.run([command, "x^3000-1"]) == 0
    assert "must be at most" not in capsys.readouterr().err
    for poly in ("x^3001-1", "x^20000+1"):
        start = time.perf_counter()
        assert cli.run([command, poly]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == \
            "error: polynomial degree must be at most 3000\n"


def test_relations_screen_capped(capsys):
    # s = 50 betas and sum |m_j| <= 12 would screen about 1.2 * 10^15 vectors
    start = time.perf_counter()
    assert cli.run(["relations", "x^100-x^98-x^97-x^3-x^2+1",
                    "--max-length", "24"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: screen of 1235433284005660 reduced vectors exceeds the cap "
        "of 10000000; lower the length bound\n")


def test_relations_refinement_capped(capsys):
    # refining 50 beta boxes to width 2^-2048, and for --verify to 2^-4096,
    # took 4.6 s
    start = time.perf_counter()
    assert cli.run(["relations", "x^100-x^98-x^97-x^3-x^2+1",
                    "--max-length", "2", "--precision", "1024"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: refining 50 beta boxes at 1024 bits costs 10684800 work "
        "units, over the budget of 8000000; lower the precision\n")
    # 200 beta boxes to 2^-256 and 2^-512 took 5.1 s
    assert cli.run(["relations", "x^400-x^398-x^397-x^3-x^2+1",
                    "--max-length", "2", "--precision", "128"]) == 1
    assert capsys.readouterr().err == (
        "error: refining 200 beta boxes at 128 bits costs 16956400 work "
        "units, over the budget of 8000000; lower the precision\n")


@pytest.mark.parametrize("degree, precision", [(20, "1024"), (200, "64")])
def test_relations_refinement_admitted(capsys, degree, precision):
    # refining the beta boxes for the screen and for --verify takes 0.03 s
    # and 0.3 s on 2 cores
    poly = format_poly(trace0_salem(degree).minpoly)
    assert cli.run(["relations", poly, "--max-length", "2",
                    "--precision", precision]) == 0
    assert capsys.readouterr().out == "no relations found\n"


def test_parse_exponent_capped(capsys):
    assert cli.run(["parse", "x^99999999999"]) == 1
    assert capsys.readouterr().err == \
        "error: exponent exceeds 1000000 at offset 2\n"
    assert cli.run(["parse", "x^1000000"]) == 0
    capsys.readouterr()


# -- input plumbing ---------------------------------------------------------------------


def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x^2-3x+1\n"))
    code, doc = _run_json(capsys, ["salem-check", "-"])
    assert code == 0
    assert doc["result"]["rejection"]["kind"] == "DegreeTooSmall"


def test_output_deterministic(capsys):
    cli.run(["enum", "--deg6-trace0", "--json"])
    first = capsys.readouterr().out
    cli.run(["enum", "--deg6-trace0", "--json"])
    second = capsys.readouterr().out
    assert first == second


def _box_digest(capsys, argvs) -> str:
    """sha256 of the alpha and beta boxes, exact ends and approx strings,
    of every certificate the commands print with --json."""
    boxes = []
    for argv in argvs:
        code, doc = _run_json(capsys, argv)
        assert code == 0
        boxes.extend([c["alpha"], c["beta_boxes"]]
                     for c in doc["certificates"])
    text = json.dumps(boxes, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_certificate_boxes_golden(capsys):
    # pins the printed box endpoints, which no other test reads in full
    assert _box_digest(capsys, [["enum", "--deg6-trace0"]]) == (
        "94eff2efee06474a885659d9ba6c93ce18b7b3f9c40f7d6d16b28a97e40c013a")
    assert _box_digest(capsys, [["trace0", "--degree", str(d)]
                                for d in range(6, 101, 2)]) == (
        "6f4d742f65d6bfdeeff7f034c689168c7fa3bfca8edf74dcf909fc9eba017346")


def test_text_mode_lists_certificates(capsys):
    assert cli.run(["salem-check", DEG8]) == 0
    out = capsys.readouterr().out
    assert "Salem" in out
    assert "1.99400419919" in out
