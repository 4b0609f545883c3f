"""The benchmark's workloads: item lists and the output check of every item.

An item is one salemrel CLI command, run in-process with ``--json``.  Its
check reads the JSON document the command printed and compares it with facts
that come from the paper or from ``polycheck``, never from salemrel itself.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import polycheck as pc

WORKLOADS = ("enum-window", "certify-trace0", "relations-screen",
             "factor-cyclo")


@dataclass
class Item:
    id: str
    argv: list[str]
    check: Callable[[dict], list[str]]


# -- checks shared by several workloads ---------------------------------------


def _coeffs(poly_doc) -> tuple[int, ...]:
    return tuple(int(c) for c in poly_doc["coeffs"])


def _poly_arg(p) -> str:
    return "[" + ",".join(map(str, p)) + "]"


def check_certificate(cert: dict) -> list[str]:
    """Re-derive a Salem certificate's root placement from its own data.

    Disjoint boxes with a strict sign change of the trace polynomial g, one
    beyond 2 and s-1 inside (-2, 2), prove that g has its s roots where a
    Salem trace polynomial must; a sign change of the minimal polynomial over
    the alpha box (past 1) locates alpha.
    """
    fails = []
    f = _coeffs(cert["minpoly"])
    g = _coeffs(cert["trace_poly"])
    s = len(g) - 1
    if len(f) - 1 != cert["degree"] or cert["degree"] != 2 * s:
        fails.append("certificate degree is inconsistent")
    if f[-1] != 1 or not pc.is_palindromic(f):
        fails.append("minpoly is not monic and reciprocal")
    if pc.trace_lift(g) != f:
        fails.append("minpoly is not the trace lift of the trace polynomial")
    if cert["trace"] != -f[-2]:
        fails.append("stated trace differs from the minpoly's")
    boxes = [(pc.frac(b["lo"]), pc.frac(b["hi"])) for b in cert["beta_boxes"]]
    if len(boxes) != s:
        fails.append(f"{len(boxes)} beta boxes for degree {s}")
        return fails
    for lo, hi in boxes:
        if not lo < hi or pc.sign_at(g, lo) * pc.sign_at(g, hi) >= 0:
            fails.append("a beta box does not bracket a sign change")
    if boxes and not boxes[0][0] > 2:
        fails.append("first beta box is not beyond 2")
    if any(not (-2 < lo and hi < 2) for lo, hi in boxes[1:]):
        fails.append("a beta box strays outside (-2, 2)")
    ordered = sorted(boxes)
    if any(a[1] >= b[0] for a, b in zip(ordered, ordered[1:])):
        fails.append("beta boxes overlap")
    alo, ahi = pc.frac(cert["alpha"]["lo"]), pc.frac(cert["alpha"]["hi"])
    if not 1 < alo < ahi or pc.sign_at(f, alo) * pc.sign_at(f, ahi) >= 0:
        fails.append("alpha box does not bracket a root past 1")
    return fails


def _certs(doc) -> list[str]:
    fails = []
    for cert in doc["certificates"]:
        fails.extend(check_certificate(cert))
    return fails


def _digest(polys) -> str:
    text = ";".join(",".join(map(str, p)) for p in sorted(polys))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- enum-window --------------------------------------------------------------

SEXTICS = ((1, 0, -1, -1, -1, 0, 1), (1, 0, -1, -2, -1, 0, 1),
           (1, 0, -2, -3, -2, 0, 1), (1, 0, -4, -7, -4, 0, 1))

# (satisfying h, Salem certificates, digest of the sorted certificate
# minpolys); the certificate counts are the paper's 15/30/20
LEMMA4 = {2: (24, 15, "eff695a6e443fc51"),
          3: (73, 30, "10030e238082a015"),
          4: (109, 20, "02d414a2000e32f1")}


def _check_deg6(doc) -> list[str]:
    fails = _certs(doc)
    res = doc["result"]
    if res["pairs"] != [[4, -1], [4, -2], [4, -3], [5, -3], [5, -4],
                        [6, -5], [7, -7]]:
        fails.append("window pairs differ from the paper's seven")
    if [_coeffs(c) for c in res["discarded_cubics"]] != [
            (-3, -4, 0, 1), (-4, -5, 0, 1), (-5, -6, 0, 1)]:
        fails.append("discarded cubics differ from the paper's three")
    if tuple(_coeffs(c["minpoly"]) for c in doc["certificates"]) != SEXTICS:
        fails.append("sextics differ from the paper's four")
    return fails


def _check_lemma4(k: int):
    n_sat, n_salem, digest = LEMMA4[k]

    def check(doc) -> list[str]:
        fails = _certs(doc)
        res = doc["result"]
        sat = [_coeffs(h) for h in res["satisfying"]]
        minpolys = [_coeffs(c["minpoly"]) for c in doc["certificates"]]
        if (res["satisfying_count"], len(sat)) != (n_sat, n_sat):
            fails.append(f"{len(sat)} window polynomials, expected {n_sat}")
        if (res["salem_count"], len(minpolys)) != (n_salem, n_salem):
            fails.append(f"{len(minpolys)} certificates, expected {n_salem}")
        if _digest(minpolys) != digest:
            fails.append("certificate set differs from the known family")
        sign = -1 if k % 2 else 1
        traces = {pc.scale(pc.compose_y_minus_y2(h), sign) for h in sat}
        for cert in doc["certificates"]:
            if cert["degree"] != 4 * k:
                fails.append("certificate of the wrong degree")
            if _coeffs(cert["trace_poly"]) not in traces:
                fails.append("certificate matches no window polynomial")
        if k == 2:
            if (1, 4, 1) not in sat:
                fails.append("x^2+4x+1 missing from the window polynomials")
            if (1, -2, 1, -2, 1, -2, 1, -2, 1) not in minpolys:
                fails.append("known degree-8 member missing")
        return fails

    return check


def _enum_window(rng) -> tuple[list[Item], str]:
    items = [Item("enum-deg6", ["enum", "--deg6-trace0"], _check_deg6)]
    for k in (2, 3, 4):
        items.append(Item(f"enum-lemma4-{k}", ["enum", "--lemma4", str(k)],
                          _check_lemma4(k)))
    return items, "enum-lemma4-4"


# -- certify-trace0 -----------------------------------------------------------

# degrees whose first families are rejected, as the paper reports
TRACE0_ATTEMPTS = {10: [[1, 7, "Reducible"]],
                   26: [[1, 23, "Reducible"], [2, 25, "Reducible"]]}


def _check_trace0(d: int):
    def check(doc) -> list[str]:
        fails = _certs(doc)
        res = doc["result"]
        if len(doc["certificates"]) != 1:
            return fails + ["expected exactly one certificate"]
        cert = doc["certificates"][0]
        minpoly = _coeffs(cert["minpoly"])
        if res["degree"] != d or cert["degree"] != d or cert["trace"] != 0:
            fails.append("certificate is not of degree d and trace 0")
        fam, n = res["family"], res["n"]
        if d == 6:
            if fam != 0 or minpoly != SEXTICS[0]:
                fails.append("degree 6 is not the first sextic")
        elif fam not in pc.FAMILIES or n != d - pc.family_shift(fam):
            fails.append(f"family {fam}, n={n} cannot give degree {d}")
        elif minpoly != pc.family_member(fam, n):
            fails.append("minpoly is not the claimed family member")
        if d in TRACE0_ATTEMPTS and res["attempts"] != [
                {"family": a, "n": b, "rejection": r}
                for a, b, r in TRACE0_ATTEMPTS[d]]:
            fails.append("rejected attempts differ from the paper's")
        return fails

    return check


def _certify_trace0(rng) -> tuple[list[Item], str]:
    items = [Item(f"trace0-{d}", ["trace0", "--degree", str(d)],
                  _check_trace0(d)) for d in range(6, 101, 2)]
    return items, "trace0-100"


# -- relations-screen ---------------------------------------------------------

DEG8_PAIRSUM = (1, -2, 1, -2, 1, -2, 1, -2, 1)
DEG12_NORMFORM = (1, 0, -4, -6, -2, 4, 7, 4, -2, -6, -4, 0, 1)


def _check_reports(expected: list[tuple[int, bool, str]], max_length: int,
                   nontrivial_only: bool = False):
    """expected lists (length, nontrivial, status) per report; every report
    must also hold numerically on the certificate's own beta boxes."""

    def check(doc) -> list[str]:
        fails = _certs(doc)
        cert = doc["certificates"][0]
        boxes = [(pc.frac(b["lo"]), pc.frac(b["hi"]))
                 for b in cert["beta_boxes"]]
        seen = []
        for rep in doc["reports"]:
            vec = [int(v) for v in rep["vector"]]
            red = [int(m) for m in rep["reduced"]]
            if vec[::2] != red or vec[1::2] != red:
                fails.append("vector does not interleave its reduction")
            if rep["length"] != sum(map(abs, vec)) \
                    or rep["length"] > max_length:
                fails.append("report length is wrong")
            lo = sum(m * (b[0] if m > 0 else b[1]) for m, b in zip(red, boxes))
            hi = sum(m * (b[1] if m > 0 else b[0]) for m, b in zip(red, boxes))
            if not lo <= 0 <= hi:
                fails.append(f"relation {red} fails on the beta boxes")
            if rep["nontrivial"] != (len(set(red)) > 1):
                fails.append("nontrivial flag is wrong")
            if rep["nontrivial"] or not nontrivial_only:
                seen.append((rep["length"], rep["nontrivial"], rep["status"]))
        if seen != expected:
            fails.append(f"reports {seen}, expected {expected}")
        if doc["result"]["report_count"] != len(doc["reports"]):
            fails.append("report_count disagrees with the reports")
        return fails

    return check


def _relations_screen(rng) -> tuple[list[Item], str]:
    deg20 = pc.family_member(1, 17)  # trace0 --degree 20 certifies it
    items = [
        # the constant relation has length 20, so nothing is found below 12
        Item("relations-deg20", ["relations", _poly_arg(deg20),
                                 "--max-length", "12"],
             _check_reports([], 12)),
        Item("relations-deg12", ["relations", _poly_arg(DEG12_NORMFORM),
                                 "--max-length", "6"],
             _check_reports([(6, True, "certified_quadsplit")] * 2, 6, True)),
        Item("relations-deg8", ["relations", _poly_arg(DEG8_PAIRSUM),
                                "--max-length", "8"],
             _check_reports([(8, True, "certified_pairsum")], 8, True)),
    ]
    for i, sextic in enumerate(SEXTICS, start=1):
        items.append(Item(f"relations-sextic{i}",
                          ["relations", _poly_arg(sextic),
                           "--max-length", "10"],
                          _check_reports([(6, False, "certified_trace")], 10)))
    return items, "relations-deg20"


# -- factor-cyclo -------------------------------------------------------------

MEMBER_NS = range(20, 91, 10)


def _check_factor(expected: dict[tuple[int, ...], int]):
    def check(doc) -> list[str]:
        res = doc["result"]
        got = {_coeffs(f["poly"]): f["multiplicity"] for f in res["factors"]}
        if res["content"] != "1" or got != expected:
            return ["factorization differs from the construction"]
        return []

    return check


def _check_cyclo(expected: list[tuple[int, int]]):
    def check(doc) -> list[str]:
        res = doc["result"]
        got = [(h["order"], h["multiplicity"]) for h in res["hits"]]
        fails = []
        if got != expected or res["cyclotomic_free"] != (not expected):
            fails.append(f"cyclotomic orders {got}, expected {expected}")
        for h in res["hits"]:
            if _coeffs(h["poly"]) != pc.cyclotomic(h["order"]):
                fails.append(f"Phi_{h['order']} printed wrongly")
        return fails

    return check


def _check_member_factor(member, orders: list[int]):
    """Factors of a family member: the predicted cyclotomic factors once
    each, times one more factor with a root past 1, multiplying back."""

    def check(doc) -> list[str]:
        res = doc["result"]
        factors = [(_coeffs(f["poly"]), f["multiplicity"])
                   for f in res["factors"]]
        prod = (int(res["content"]),)
        for q, m in factors:
            prod = pc.mul(prod, pc.power(q, m))
        fails = [] if prod == member else ["factors do not multiply back"]
        cyclo = {pc.cyclotomic(o) for o in orders}
        rest = [(q, m) for q, m in factors if q not in cyclo]
        if sorted(q for q, m in factors if q in cyclo) != sorted(cyclo) \
                or any(m != 1 for _, m in factors):
            fails.append("cyclotomic factors differ from the prediction")
        if len(rest) != 1 or pc.sign_at(rest[0][0], Fraction(1)) >= 0:
            fails.append("expected one non-cyclotomic factor")
        return fails

    return check


def _eisenstein(rng) -> tuple[int, ...]:
    """A monic polynomial that is irreducible by Eisenstein's criterion."""
    p = rng.choice((2, 3, 5, 7))
    k = rng.randint(3, 5)
    coeffs = [p * rng.randint(-3, 3) for _ in range(k)]
    coeffs[0] = p * rng.choice([c for c in range(-3, 4) if c % p])
    return tuple(coeffs) + (1,)


def _factor_cyclo(rng) -> tuple[list[Item], str]:
    items = []
    for i in range(10):
        orders = sorted(rng.randint(1, 24) for _ in range(3))
        e = _eisenstein(rng)
        prod = e
        for o in orders:
            prod = pc.mul(prod, pc.cyclotomic(o))
        expected = {e: 1}
        for o in orders:
            expected[pc.cyclotomic(o)] = orders.count(o)
        hits = sorted({(o, orders.count(o)) for o in orders})
        arg = _poly_arg(prod)
        items.append(Item(f"factor-product{i}", ["factor", arg],
                          _check_factor(expected)))
        items.append(Item(f"cyclo-product{i}", ["cyclotomic-factors", arg],
                          _check_cyclo(hits)))
    for fam in pc.FAMILIES:
        for n in MEMBER_NS:
            member = pc.family_member(fam, n)
            orders = pc.predicted_cyclotomic_orders(fam, len(member) - 1)
            arg = _poly_arg(member)
            items.append(Item(f"factor-f{fam}n{n}", ["factor", arg],
                              _check_member_factor(member, orders)))
            items.append(Item(f"cyclo-f{fam}n{n}", ["cyclotomic-factors", arg],
                              _check_cyclo([(o, 1) for o in orders])))
    # the slowest item whose time does not depend on what earlier items left
    # in the cyclotomic cache (cyclotomic-factors items do)
    return items, "factor-f3n90"


_ITEM_LISTS = {"enum-window": _enum_window,
               "certify-trace0": _certify_trace0,
               "relations-screen": _relations_screen,
               "factor-cyclo": _factor_cyclo}


def build(workload: str, seed: int) -> tuple[list[Item], str]:
    """The workload's items in seeded order, and the id of its largest item."""
    rng = random.Random(f"{workload}:{seed}")
    items, largest = _ITEM_LISTS[workload](rng)
    rng.shuffle(items)
    return items, largest
