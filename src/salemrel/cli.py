"""Command-line interface.

Every pipeline is exposed as a subcommand; output is human-readable text by
default or a single JSON document with --json.  Exit codes: 0 success, 1 input
error (an OverflowError or RecursionError included), 2 cross-check failure
under --verify or a failed internal exact check (AssertionError,
ConstructionFailed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Sequence

from .cyclo import cyclotomic, cyclotomic_part, seq_poly
from .factorint import factor, kronecker_factor_oracle
from .parsing import parse_poly
from .polyarith import (IntPoly, format_poly, pair_sum_lift,
                        pair_sum_trace_poly, poly_gcd, trace_lift,
                        trace_project)
from .realroots import count_roots, refine
from .relations import NUMERIC_ONLY, _sum_interval, find_relations
from .salemkit import (FAMILIES, ConstructionFailed, SalemCertificate,
                       bad_degrees, enum_deg6_trace0_detail, pair_sum_enum,
                       salem_check, trace0_salem_detail)

_APPROX_NOTE = "approximate (12 significant digits)"


class _InputError(ValueError):
    pass


# caps on the size arguments, checked before any work starts: each command's
# time and memory grow with them without limit (on 2 cores, seq --n 10**6
# takes about 1.5 s, bad-degrees --max-degree 10**6 about 2.5 s and 5 MB of
# output, trace0 --degree 400 about 0.2 s, or 0.9-1.5 s with --verify, which
# factors its degree-200 trace polynomial).  The trace0 cap also bounds the
# reciprocal polynomial, input or lift, of the trace-map commands
_MAX_SEQ_N = 10 ** 6
_MAX_BAD_DEGREE = 10 ** 6
_MAX_TRACE0_DEGREE = 400
# factor and cyclotomic-factors first make a cyclotomic sweep quadratic in
# the degree (on 2 cores 1.0 s on x^3000-1, 2.3 s on x^3000+1, 7.5 s on
# x^6000+1); the cap bounds the sweep, not the rest of factor's work
_MAX_FACTOR_DEGREE = 3000


def _check_cap(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise _InputError(f"{flag} must be at most {cap}")


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract wants 1 for input errors
    def error(self, message):
        raise _InputError(message)


# -- serialization ------------------------------------------------------------------


def _frac_str(fr) -> str:
    fr = Fraction(fr)
    return f"{fr.numerator}/{fr.denominator}"


def _approx12(fr) -> str:
    fr = Fraction(fr)
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(fr.numerator) / Decimal(fr.denominator))


def _poly_doc(p: IntPoly) -> dict:
    return {"coeffs": [str(c) for c in p.coeffs], "display": format_poly(p)}


def _box_doc(box) -> dict:
    return {
        "lo": _frac_str(box.lo),
        "hi": _frac_str(box.hi),
        "exact": _frac_str(box.exact) if box.exact is not None else None,
        "approx": {"lo": _approx12(box.lo), "hi": _approx12(box.hi),
                   "note": _APPROX_NOTE},
    }


def _cert_doc(cert: SalemCertificate) -> dict:
    return {
        "minpoly": _poly_doc(cert.minpoly),
        "degree": cert.degree,
        "trace": cert.trace,
        "alpha": _box_doc(cert.alpha),
        "trace_poly": _poly_doc(cert.trace_poly),
        "beta_boxes": [_box_doc(b) for b in cert.beta_boxes],
    }


def _report_doc(rep) -> dict:
    return {
        "vector": [str(k) for k in rep.vector.coeffs],
        "length": rep.vector.length,
        "reduced": [str(m) for m in rep.reduced],
        "nontrivial": rep.nontrivial,
        "status": rep.status,
        "precision_bits": rep.precision_bits,
    }


def _alpha_line(cert: SalemCertificate) -> str:
    return (f"degree {cert.degree}, trace {cert.trace}, "
            f"alpha ~ {_approx12(cert.alpha.mid)}")


def _rejection_doc(reason) -> dict:
    return {"kind": reason.kind.value, "detail": reason.detail}


# -- verification helpers -----------------------------------------------------------


# the interpolation oracle trial-divides values of the polynomial and searches
# over their divisors, so its work grows with their size; past this bound on
# them it can run for minutes, and it is skipped
_ORACLE_MAX_VALUE = 1 << 32


def _oracle_check(p: IntPoly, fac) -> list[str]:
    """Compare the factorization fac of p with kronecker_factor_oracle(p)
    for degree 1..8.

    The oracle evaluates p at integers |x| <= reach = (deg + 3) // 2, where
    |p(x)| <= sum |c_i| * reach^deg; when that bound passes
    _ORACLE_MAX_VALUE the comparison is skipped with a note on stderr.
    """
    if not 1 <= p.degree <= 8:
        return []
    reach = (p.degree + 3) // 2
    if sum(abs(c) for c in p.coeffs) * reach ** p.degree > _ORACLE_MAX_VALUE:
        print("note: factorization oracle skipped: coefficients too large "
              "for trial division", file=sys.stderr)
        return []
    oracle = kronecker_factor_oracle(p)
    if sorted(q.coeffs for q, _ in fac.factors) != \
            sorted(q.coeffs for q, _ in oracle.factors):
        return ["factorization disagrees with the interpolation oracle"]
    return []


def _verify_certificate(cert: SalemCertificate) -> list[str]:
    fails = []
    f, g = cert.minpoly, cert.trace_poly
    if trace_project(f) != g:
        fails.append("trace polynomial does not project from minpoly")
    if trace_lift(g) != f:
        fails.append("minpoly does not lift from trace polynomial")
    if f.reciprocal() != f:
        fails.append("minpoly is not reciprocal")
    if cert.trace != -f[f.degree - 1] or cert.trace != -g[g.degree - 1]:
        fails.append("trace mismatch between minpoly and trace polynomial")
    # s disjoint boxes, each with a strict sign change of the degree-s g,
    # hold its s roots one apiece: this re-proves the placement below
    boxes = cert.beta_boxes
    if len(boxes) != g.degree:
        fails.append("beta box count differs from the trace polynomial's "
                     "degree")
    if any(g.sign_at(b.lo) * g.sign_at(b.hi) >= 0 for b in boxes):
        fails.append("a beta box does not bracket a sign change of the "
                     "trace polynomial")
    ends = sorted((b.lo, b.hi) for b in boxes)
    if any(a[1] > b[0] for a, b in zip(ends, ends[1:])):
        fails.append("beta boxes overlap")
    up = [b for b in boxes if b.lo > 2]
    if len(up) != 1 or up[0] is not boxes[0]:
        fails.append("beta boxes do not show exactly one root beyond 2")
    if any(not (-2 < b.lo and b.hi < 2) for b in boxes[1:]):
        fails.append("a beta box strays outside (-2, 2)")
    if f.sign_at(cert.alpha.lo) * f.sign_at(cert.alpha.hi) >= 0:
        fails.append("alpha box does not bracket a sign change of minpoly")
    # certification decides irreducibility by Kronecker's theorem; the full
    # factorization is an independent check of it at every degree.  factor
    # skips its modular pipeline, by the same kind of argument, only on a
    # part that is monic, reciprocal and of even degree; no trace polynomial
    # certified by trace0 6..100, enum --deg6-trace0 or --lemma4 2..4 is one
    # (a test pins this), so there this check does not reuse the argument
    fac = factor(g)
    if abs(fac.content) != 1 or [m for _, m in fac.factors] != [1]:
        fails.append("trace polynomial is not irreducible")
    fails.extend(_oracle_check(g, fac))
    return fails


def _verify_factorization(p: IntPoly, fac) -> list[str]:
    fails = []
    if fac.expand() != p:
        fails.append("product of factors does not reproduce the input")
    fails.extend(_oracle_check(p, fac))
    return fails


# -- subcommand handlers ------------------------------------------------------------


@dataclass(frozen=True)
class _Reply:
    """What a subcommand handler returns: the input and result documents,
    the text lines, the --verify check (a list of failures), and the
    certificates and relation reports the JSON document lists."""

    input: dict
    result: dict
    lines: list[str]
    verify: Callable[[], list[str]]
    certs: Sequence[SalemCertificate] = ()
    reports: Sequence = ()


def _read_poly(arg: str) -> IntPoly:
    text = sys.stdin.read() if arg == "-" else arg
    return parse_poly(text)


def _read_reciprocal(arg: str, lift: int = 1) -> IntPoly:
    """The input of a trace-map command, whose reciprocal polynomial has
    lift times its degree, refused above the trace0 degree cap."""
    p = _read_poly(arg)
    _check_cap("reciprocal polynomial degree", lift * p.degree,
               _MAX_TRACE0_DEGREE)
    return p


def _cmd_salem_check(args):
    p = _read_reciprocal(args.poly)
    outcome = salem_check(p)
    if outcome:
        result = {"is_salem": True, "rejection": None}
        lines = [f"Salem minimal polynomial: {format_poly(p)}",
                 _alpha_line(outcome)]
    else:
        result = {"is_salem": False, "rejection": _rejection_doc(outcome)}
        lines = [f"not a Salem minimal polynomial: {outcome.kind.value}"
                 + (f" ({outcome.detail})" if outcome.detail else "")]
    return _Reply({"poly": format_poly(p)}, result, lines, lambda: [],
                  certs=[outcome] if outcome else [])


def _cmd_trace_poly(args):
    p = _read_reciprocal(args.poly)
    g = trace_project(p)
    lines = [format_poly(g)]

    def verify():
        fails = []
        if trace_lift(g) != p:
            fails.append("lift of the trace polynomial does not reproduce input")
        if p.degree >= 2 and g.degree >= 1 and -p[p.degree - 1] != -g[g.degree - 1]:
            fails.append("trace changed under projection")
        return fails

    return _Reply({"poly": format_poly(p)}, {"trace_poly": _poly_doc(g)},
                  lines, verify)


def _cmd_trace_lift(args):
    g = _read_reciprocal(args.poly, 2)
    f = trace_lift(g)
    lines = [format_poly(f)]

    def verify():
        return ([] if trace_project(f) == g
                else ["projection of the lift does not reproduce input"])

    return _Reply({"poly": format_poly(g)}, {"lift": _poly_doc(f)},
                  lines, verify)


def _cmd_lemma4_lift(args):
    h = _read_reciprocal(args.poly, 4)
    f = pair_sum_lift(h)
    g = pair_sum_trace_poly(h)
    outcome = salem_check(f)
    certs = [outcome] if outcome else []
    lines = [format_poly(f)]
    if outcome:
        lines.append(_alpha_line(outcome))
    else:
        lines.append(f"lift is not a Salem minimal polynomial "
                     f"({outcome.kind.value})")

    def verify():
        fails = []
        k = h.degree
        sign = -1 if k % 2 else 1
        composed = h.compose(IntPoly((0, 1, -1))) * sign
        if composed != g:
            fails.append("h(x(1-x)) identity failed")
        if trace_project(f) != g:
            fails.append("lift does not project back to h(x(1-x))")
        return fails

    result = {"lift": _poly_doc(f), "trace_poly": _poly_doc(g),
              "is_salem": bool(outcome),
              "rejection": None if outcome else _rejection_doc(outcome)}
    return _Reply({"poly": format_poly(h)}, result, lines, verify, certs=certs)


def _cmd_factor(args):
    p = _read_poly(args.poly)
    _check_cap("polynomial degree", p.degree, _MAX_FACTOR_DEGREE)
    fac = factor(p)
    result = {
        "content": str(fac.content),
        "factors": [{"poly": _poly_doc(q), "multiplicity": m}
                    for q, m in fac.factors],
    }
    pieces = [str(fac.content)] if fac.content != 1 else []
    for q, m in fac.factors:
        text = format_poly(q)
        pieces.append(f"({text})^{m}" if m > 1 else f"({text})")
    lines = [" * ".join(pieces) if pieces else "1"]
    return _Reply({"poly": format_poly(p)}, result, lines,
                  lambda: _verify_factorization(p, fac))


def _cmd_cyclotomic_factors(args):
    p = _read_poly(args.poly)
    _check_cap("polynomial degree", p.degree, _MAX_FACTOR_DEGREE)
    hits = cyclotomic_part(p)
    result = {"hits": [{"order": h.order, "multiplicity": h.multiplicity,
                        "poly": _poly_doc(cyclotomic(h.order))}
                       for h in hits],
              "cyclotomic_free": not hits}
    if hits:
        lines = [f"Phi_{h.order}^{h.multiplicity}" if h.multiplicity > 1
                 else f"Phi_{h.order}" for h in hits]
    else:
        lines = ["no cyclotomic factors"]

    def verify():
        fails = []
        rem = p
        for h in hits:
            q = cyclotomic(h.order)
            for _ in range(h.multiplicity):
                quo, r = divmod(rem, q)
                if not r.is_zero:
                    fails.append(f"Phi_{h.order} does not divide as claimed")
                    break
                rem = quo
            else:
                _, r = divmod(rem, q)
                if r.is_zero:
                    fails.append(f"Phi_{h.order} multiplicity understated")
        return fails

    return _Reply({"poly": format_poly(p)}, result, lines, verify)


def _cmd_seq(args):
    _check_cap("--n", args.n, _MAX_SEQ_N)
    seq = FAMILIES[args.family - 1]
    g = seq_poly(seq, args.n)
    lines = [format_poly(g)]

    def verify():
        member = seq.f.shift_mul(args.n) + seq.f_reversed * seq.eps
        if seq.divide_by_x_minus_1:
            quo, rem = divmod(member, IntPoly((-1, 1)))
            if not rem.is_zero:
                return ["x-1 does not divide the sequence member"]
            member = quo
        return [] if member == g else ["sequence member reconstruction failed"]

    return _Reply({"family": args.family, "n": args.n},
                  {"poly": _poly_doc(g), "degree": g.degree}, lines, verify)


def _cmd_bad_degrees(args):
    _check_cap("--max-degree", args.max_degree, _MAX_BAD_DEGREE)
    rep = bad_degrees(args.family, args.max_degree)
    result = {
        "family": rep.family,
        "degree_shift": rep.shift,
        "n_progressions": [{"order": o, "residues": list(r)}
                           for o, r in rep.n_entries],
        "d_progressions": [{"order": o, "residues": list(r)}
                           for o, r in rep.d_entries],
        "sporadic_n": list(rep.sporadic_n),
        "sporadic_d": list(rep.sporadic_d),
        "bad_degrees": list(rep.bad_degrees),
    }
    lines = [f"family {rep.family}: d = n + {rep.shift}"]
    for o, r in rep.d_entries:
        lines.append(f"  d == {','.join(map(str, r))} (mod {o})")
    if rep.sporadic_d:
        lines.append(f"  sporadic d: {', '.join(map(str, rep.sporadic_d))}")
    lines.append("bad degrees up to {}: {}".format(
        args.max_degree, ", ".join(map(str, rep.bad_degrees))))

    def verify():
        fails = []
        seq = FAMILIES[args.family - 1]
        top_n = min(args.max_degree - rep.shift, 60)
        for n in range(2, top_n + 1):
            g = seq_poly(seq, n)
            for order, residues in rep.n_entries:
                hit = poly_gcd(g, cyclotomic(order)).degree >= 1
                if hit != (n % order in residues):
                    fails.append(
                        f"order {order} prediction wrong at n={n}")
        return fails

    return _Reply({"family": args.family, "max_degree": args.max_degree},
                  result, lines, verify)


def _cmd_trace0(args):
    _check_cap("--degree", args.degree, _MAX_TRACE0_DEGREE)
    det = trace0_salem_detail(args.degree)
    cert = det.certificate
    result = {
        "degree": cert.degree,
        "family": det.family,
        "n": det.n,
        "attempts": [{"family": fam, "n": n, "rejection": kind}
                     for fam, n, kind in det.attempts],
    }
    lines = []
    for fam, n, kind in det.attempts:
        lines.append(f"family {fam} (n={n}): rejected ({kind})")
    source = ("degree-6 enumeration" if det.family == 0
              else f"family {det.family} (n={det.n})")
    lines.append(f"{source}: {format_poly(cert.minpoly)}")
    lines.append(_alpha_line(cert))

    def verify():
        fails = []
        if cert.trace != 0:
            fails.append("certificate trace is not zero")
        if cert.degree != args.degree:
            fails.append("certificate degree mismatch")
        if det.family:
            seq = FAMILIES[det.family - 1]
            if seq_poly(seq, det.n) != cert.minpoly:
                fails.append("family member reconstruction failed")
        return fails

    return _Reply({"degree": args.degree}, result, lines, verify, certs=[cert])


def _cmd_enum(args):
    if args.deg6_trace0:
        det = enum_deg6_trace0_detail()
        certs = list(det.certificates)
        result = {
            "mode": "deg6-trace0",
            "pairs": [list(ab) for ab in det.pairs],
            "discarded_cubics": [_poly_doc(c) for c in det.discarded_cubics],
            "count": len(certs),
        }
        lines = ["window pairs (a, b): "
                 + ", ".join(f"({a},{b})" for a, b in det.pairs)]
        lines.append("discarded reducible cubics: "
                     + ", ".join(format_poly(c) for c in det.discarded_cubics))
        for c in certs:
            lines.append(format_poly(c.minpoly))

        def verify():
            fails = ["sextic certificate has wrong shape" for c in certs
                     if c.trace != 0 or c.degree != 6]
            if len(det.pairs) != 7 or len(det.discarded_cubics) != 3 \
                    or len(certs) != 4:
                fails.append("enumeration counts changed")
            return fails

        return _Reply({"mode": "deg6-trace0"}, result, lines, verify,
                      certs=certs)

    if not 2 <= args.lemma4 <= 6:
        raise _InputError("--lemma4 K must be between 2 and 6; larger K is "
                          "available through the library enumerator")
    res = pair_sum_enum(args.lemma4)
    certs = list(res.salem)
    result = {
        "mode": "lemma4",
        "k": res.k,
        "satisfying": [_poly_doc(h) for h in res.satisfying],
        "satisfying_count": len(res.satisfying),
        "salem_count": len(certs),
    }
    lines = [f"k={res.k}: {len(res.satisfying)} window polynomials, "
             f"{len(certs)} Salem certificates"]
    for c in certs:
        lines.append(format_poly(c.minpoly))

    def verify():
        fails = []
        traces = {pair_sum_trace_poly(h).coeffs for h in res.satisfying}
        for c in certs:
            if c.trace_poly.coeffs not in traces:
                fails.append("certificate does not match any window polynomial")
        quarter = Fraction(1, 4)
        for h in res.satisfying:
            if count_roots(h, -2, quarter) != res.k - 1 \
                    or count_roots(h, -6, -2) != 1:
                fails.append("window recount failed for "
                             + format_poly(h))
        return fails

    return _Reply({"mode": "lemma4", "k": args.lemma4}, result, lines,
                  verify, certs=certs)


def _cmd_relations(args):
    p = _read_reciprocal(args.poly)
    outcome = salem_check(p)
    if not outcome:
        raise _InputError("not a Salem minimal polynomial: "
                          + outcome.kind.value)
    reports = find_relations(outcome, args.max_length, args.precision)
    result = {"max_length": args.max_length,
              "precision_bits": args.precision,
              "report_count": len(reports)}
    lines = []
    for rep in reports:
        kind = "nontrivial" if rep.nontrivial else "trivial"
        lines.append(f"reduced {rep.reduced}  length {rep.vector.length}  "
                     f"{kind}  {rep.status}")
    if not reports:
        lines.append("no relations found")

    def verify():
        certified = [rep for rep in reports if rep.status != NUMERIC_ONLY]
        if not certified:
            return []
        width = Fraction(1, 1 << (4 * args.precision))
        boxes = [refine(b, width) for b in outcome.beta_boxes]
        fails = []
        for rep in certified:
            lo, hi = _sum_interval(boxes, rep.reduced)
            if not lo <= 0 <= hi:
                fails.append(f"certified relation {rep.reduced} fails "
                             "screening at doubled precision")
        return fails

    return _Reply({"poly": format_poly(p), "max_length": args.max_length,
                   "precision_bits": args.precision},
                  result, lines, verify, certs=[outcome], reports=reports)


def _cmd_parse(args):
    p = _read_poly(args.poly)
    lines = [format_poly(p), "ascending coefficients: "
             + "[" + ", ".join(str(c) for c in p.coeffs) + "]"]

    def verify():
        return ([] if parse_poly(format_poly(p)) == p
                else ["canonical form does not round-trip"])

    return _Reply({"poly": args.poly}, {"poly": _poly_doc(p)}, lines, verify)


# -- driver -------------------------------------------------------------------------


# parsing leaves the parser unchanged, so one serves every run() call
@functools.cache
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="salemrel",
        description="Exact Salem-number construction, certification, "
                    "enumeration, and conjugate-relation search.")
    common = _ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a single JSON document")
    common.add_argument("--verify", action="store_true",
                        help="run oracles and cross-checks before output")
    sub = parser.add_subparsers(dest="command", required=True)

    def poly_cmd(name, help_text):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.add_argument("poly", help="polynomial expression, coefficient "
                                     "list [c0,c1,...], or - for stdin")
        return sp

    poly_cmd("salem-check", "certify a Salem minimal polynomial")
    poly_cmd("trace-poly", "project a reciprocal polynomial to its trace polynomial")
    poly_cmd("trace-lift", "lift g to x^s g(x + 1/x)")
    poly_cmd("lemma4-lift", "lift a root-window polynomial h to degree 4k")
    poly_cmd("factor", "factor over the integers")
    poly_cmd("cyclotomic-factors", "list cyclotomic factors with multiplicity")

    sp = sub.add_parser("seq", parents=[common],
                        help="Salem sequence member")
    sp.add_argument("--family", type=int, choices=(1, 2, 3), required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("bad-degrees", parents=[common],
                        help="degrees where a family keeps cyclotomic factors")
    sp.add_argument("--family", type=int, choices=(1, 2, 3), required=True)
    sp.add_argument("--max-degree", type=int, required=True)

    sp = sub.add_parser("trace0", parents=[common],
                        help="trace-0 Salem certificate of a given even degree")
    sp.add_argument("--degree", type=int, required=True)

    sp = sub.add_parser("enum", parents=[common], help="exhaustive enumerations")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--deg6-trace0", action="store_true",
                       help="all trace-0 Salem sextics")
    group.add_argument("--lemma4", type=int, metavar="K",
                       help="degree-4K enumeration from window polynomials "
                       "(2 <= K <= 6)")

    sp = sub.add_parser("relations", parents=[common],
                        help="search conjugate relations of a Salem polynomial")
    sp.add_argument("poly")
    sp.add_argument("--max-length", type=int, required=True)
    sp.add_argument("--precision", type=int, default=64)

    poly_cmd("parse", "parse and canonically print a polynomial")
    return parser


_HANDLERS = {
    "salem-check": _cmd_salem_check,
    "trace-poly": _cmd_trace_poly,
    "trace-lift": _cmd_trace_lift,
    "lemma4-lift": _cmd_lemma4_lift,
    "factor": _cmd_factor,
    "cyclotomic-factors": _cmd_cyclotomic_factors,
    "seq": _cmd_seq,
    "bad-degrees": _cmd_bad_degrees,
    "trace0": _cmd_trace0,
    "enum": _cmd_enum,
    "relations": _cmd_relations,
    "parse": _cmd_parse,
}


def _one_line(exc: BaseException) -> str:
    """Exception class and the first line of its message."""
    lines = str(exc).splitlines()
    return f"{type(exc).__name__}: {lines[0]}" if lines else type(exc).__name__


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        out = _HANDLERS[args.command](args)
    except (SyntaxError, ValueError) as exc:
        msg = getattr(exc, "msg", None) or str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 1

    verified = False
    if args.verify:
        failures = [fail for cert in out.certs
                    for fail in _verify_certificate(cert)] + out.verify()
        if failures:
            for failure in failures:
                print(f"verification failed: {failure}", file=sys.stderr)
            return 2
        verified = True

    if args.json:
        doc = {
            "command": args.command,
            "input": out.input,
            "result": out.result,
            "certificates": [_cert_doc(c) for c in out.certs],
            "reports": [_report_doc(r) for r in out.reports],
            "verified": verified,
        }
        print(json.dumps(doc, indent=2))
    else:
        for line in out.lines:
            print(line)
        if verified:
            print("verified: all cross-checks passed")
    return 0


def run(argv=None) -> int:
    try:
        return _run(argv)
    except (OverflowError, RecursionError) as exc:
        # work too large or too deep for the interpreter: an input error
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 1
    except (AssertionError, ConstructionFailed) as exc:
        # an internal exact check failed
        print(f"error: internal check failed: {_one_line(exc)}",
              file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
