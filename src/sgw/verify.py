"""Machine-checked reproduction reports for the headline results.

Each verifier returns a Report whose entries carry the expected value,
the computed value, and a pass flag set only after the supporting
certificate (homomorphism, coloring, or exhaustion record) has been
re-validated independently of the solver that produced it.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from .constructions import (
    build_grid,
    coloring_target,
    fig1c_grid,
    grid_hom_spal5star,
    kpq_coloring,
    make,
)
from .core import SignedGraph
from .errors import BoundExceededError, GuardExceededError
from .homomorphism import (
    TARGET_ORDER_CAP,
    chromatic_number,
    signed_isomorphic,
    validate,
)
from .product import cartesian_product
from .switching import CycleClass

CYCLE_TABLE = {
    # (row class, column class) -> chromatic number, per the cycle table
    (CycleClass.BC_EVEN, CycleClass.BC_EVEN): 2,
    (CycleClass.BC_EVEN, CycleClass.BC_ODD): 3,
    (CycleClass.BC_EVEN, CycleClass.UC_EVEN): 4,
    (CycleClass.BC_EVEN, CycleClass.UC_ODD): 3,
    (CycleClass.BC_ODD, CycleClass.BC_EVEN): 3,
    (CycleClass.BC_ODD, CycleClass.BC_ODD): 3,
    (CycleClass.BC_ODD, CycleClass.UC_EVEN): 5,
    (CycleClass.BC_ODD, CycleClass.UC_ODD): 5,
    (CycleClass.UC_EVEN, CycleClass.BC_EVEN): 4,
    (CycleClass.UC_EVEN, CycleClass.BC_ODD): 5,
    (CycleClass.UC_EVEN, CycleClass.UC_EVEN): 4,
    (CycleClass.UC_EVEN, CycleClass.UC_ODD): 5,
    (CycleClass.UC_ODD, CycleClass.BC_EVEN): 3,
    (CycleClass.UC_ODD, CycleClass.BC_ODD): 5,
    (CycleClass.UC_ODD, CycleClass.UC_EVEN): 5,
    (CycleClass.UC_ODD, CycleClass.UC_ODD): 3,
}

_CLASS_LENGTHS = {
    CycleClass.BC_EVEN: (4, 6),
    CycleClass.BC_ODD: (3, 5),
    CycleClass.UC_EVEN: (4, 6),
    CycleClass.UC_ODD: (3, 5),
}


@dataclass(frozen=True)
class ReportEntry:
    claim: str
    parameters: dict
    expected: object
    computed: object
    passed: bool
    elapsed: float


@dataclass
class Report:
    name: str
    entries: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def summary(self) -> dict:
        ok = sum(1 for e in self.entries if e.passed)
        return {"total": len(self.entries), "passed": ok,
                "failed": len(self.entries) - ok}

    def to_dict(self) -> dict:
        return {
            "report": self.name,
            "summary": self.summary(),
            "entries": [
                {
                    "claim": e.claim,
                    "parameters": e.parameters,
                    "expected": e.expected,
                    "computed": e.computed,
                    "pass": e.passed,
                    "elapsed": round(e.elapsed, 3),
                }
                for e in self.entries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"report: {self.name}"]
        for e in self.entries:
            mark = "PASS" if e.passed else "FAIL"
            params = ", ".join(f"{k}={v}" for k, v in e.parameters.items())
            lines.append(
                f"  [{mark}] {e.claim} ({params}): "
                f"expected {e.expected}, computed {e.computed} "
                f"[{e.elapsed:.2f}s]"
            )
        s = self.summary()
        lines.append(f"  {s['passed']}/{s['total']} passed")
        return "\n".join(lines)


def _entry(claim: str, parameters: dict, expected, work) -> ReportEntry:
    """Report entry for ``work()``, which returns (computed, passed); only
    ``work`` is timed."""
    start = time.perf_counter()
    computed, passed = work()
    return ReportEntry(claim, parameters, expected, computed, passed,
                       time.perf_counter() - start)


def _checked_chi(g: SignedGraph, expected: int) -> tuple[int, bool]:
    """Exact chromatic number with certificate re-validation."""
    cert = chromatic_number(g)
    if not validate(g, cert.target, cert.hom):
        return cert.k, False
    # the lower-bound evidence must cover every smaller order
    exhausted = cert.lower_bound_evidence["exhausted_orders"]
    base = cert.lower_bound_evidence["underlying_chromatic"]
    covered = all(k in exhausted or k < base for k in range(1, cert.k))
    return cert.k, covered and cert.k == expected


def verify_cycle_table(max_len: int = 6) -> Report:
    """Chromatic numbers of products of signed cycles versus the table."""
    if max_len > 6:
        raise GuardExceededError("cycle table guarded at lengths <= 6")
    if max_len < 3:
        raise GuardExceededError("cycles need length >= 3")
    report = Report("cycle_table")
    chi_cache: dict = {}

    def cycle(cls: CycleClass, length: int) -> SignedGraph:
        return make("UC" if cls.value.startswith("UC") else "BC", length)

    def entry(ca, la, cb, lb) -> ReportEntry:
        expected = CYCLE_TABLE[(ca, cb)]

        def work():
            key = tuple(sorted([(ca.value, la), (cb.value, lb)]))
            if key not in chi_cache:
                g, _ = cartesian_product(cycle(ca, la), cycle(cb, lb))
                chi_cache[key] = _checked_chi(g, expected)
            return chi_cache[key]

        return _entry("chi_s of signed cycle product",
                      {"left": f"{ca.value}({la})", "right": f"{cb.value}({lb})"},
                      expected, work)

    report.entries = [
        entry(ca, la, cb, lb)
        for ca, lens_a in _CLASS_LENGTHS.items()
        for cb, lens_b in _CLASS_LENGTHS.items()
        for la in lens_a
        if la <= max_len
        for lb in lens_b
        if lb <= max_len
    ]
    return report


def verify_kpq(max_p: int, max_q: int) -> Report:
    """chi_s(K_p+ box K_q-) = ceil(pq/2): constructive upper bound plus
    exhaustive lower bound, for every entry whose value is at most the
    largest target order, pq <= 2 * TARGET_ORDER_CAP."""
    if min(max_p, max_q) < 2:
        raise GuardExceededError("K_p+ box K_q- needs p, q >= 2")
    if max_p * max_q > 2 * TARGET_ORDER_CAP:
        raise GuardExceededError(
            f"exact lower bounds guarded at pq <= {2 * TARGET_ORDER_CAP}"
        )
    report = Report("kpq")

    def entry(p, q) -> ReportEntry:
        expected = math.ceil(p * q / 2)

        def work():
            g, _ = cartesian_product(make("K_plus", p), make("K_minus", q))
            colors, switch = kpq_coloring(p, q)
            target, hom = coloring_target(g, colors, switch)
            upper_ok = validate(g, target, hom) and len(set(colors)) == expected
            computed, lower_ok = _checked_chi(g, expected)
            return computed, upper_ok and lower_ok

        return _entry("chi_s(K_p+ box K_q-) = ceil(pq/2)", {"p": p, "q": q},
                      expected, work)

    report.entries = [
        entry(p, q)
        for p in range(2, max_p + 1)
        for q in range(2, max_q + 1)
    ]
    return report


def verify_uc_bc_gap(max_q: int, max_p: int) -> Report:
    """chi_s(UC_q box BC_odd) > 4: no homomorphism to any order-4 target."""
    if min(max_q, max_p) < 3:
        raise GuardExceededError("UC_q box BC_odd needs q, odd >= 3")
    if max_q * max_p > 30:
        raise GuardExceededError("gap verification guarded at products <= 30 vertices")
    report = Report("uc_bc_gap")

    def entry(q, odd) -> ReportEntry:
        def work():
            g, _ = cartesian_product(make("UC", q), make("BC", odd))
            try:
                cert = chromatic_number(g, hi=4)
            except BoundExceededError as exc:
                return f"no target of order <= 4 (chi_s >= {exc.lo})", exc.lo >= 5
            return cert.k, False

        return _entry("chi_s(UC_q box BC_odd) > 4", {"q": q, "odd": odd},
                      "> 4", work)

    report.entries = [
        entry(q, odd)
        for q in range(3, max_q + 1)
        for odd in range(3, max_p + 1, 2)
    ]
    return report


def verify_grid_fig1c() -> Report:
    """The 3x4 grid of the counterexample has chromatic number exactly 5."""
    report = Report("grid_fig1c")

    def palette():
        g = fig1c_grid()
        valid = validate(g, make("SPal5_star"), grid_hom_spal5star(g, 3, 4))
        return valid, valid is True

    report.entries = [
        _entry("chi_s of the counterexample grid", {"rows": 3, "cols": 4}, 5,
               lambda: _checked_chi(fig1c_grid(), 5)),
        _entry("chi_s of the all-positive grid", {"rows": 3, "cols": 4}, 2,
               lambda: _checked_chi(build_grid(3, 4), 2)),
        _entry("counterexample grid maps into SPal5*", {"rows": 3, "cols": 4},
               True, palette),
    ]
    return report


def verify_k4_classes() -> Report:
    """All 64 signatures of K4 fall into exactly 3 switching classes."""
    report = Report("k4_classes")

    def work():
        pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        reps: list[SignedGraph] = []
        for bits in range(64):
            g = SignedGraph(
                4,
                [(u, v, -1 if bits >> i & 1 else 1)
                 for i, (u, v) in enumerate(pairs)],
            )
            if not any(signed_isomorphic(g, r) for r in reps):
                reps.append(g)
        named = [make("K_plus", 4), make("K_minus", 4), make("K4_mixed")]
        matched = all(
            sum(1 for r in reps if signed_isomorphic(r, h)) == 1 for h in named
        )
        return len(reps), len(reps) == 3 and matched

    report.entries = [_entry("switching classes of K4", {"signatures": 64}, 3, work)]
    return report


def verify_k18(unbounded: bool = False) -> Report:
    """The chi_s(K18 box K2) = 25 claim; far beyond desk scale.

    Without ``unbounded`` this refuses to run.  With it, the data is
    checked and the solver reports the best interval it can prove, which
    stops at the underlying-chromatic lower bound; the entry is honestly
    marked failed because the claim itself stays unverified here.
    """
    if not unbounded:
        raise GuardExceededError(
            "verify_k18 needs order-25 targets; rerun with unbounded=True "
            "to attempt it anyway"
        )
    report = Report("k18")
    counts = (18, 153, 69)

    def data():
        g = make("K18")
        computed = (g.n, g.m, len(g.negative_edges()))
        return computed, computed == counts

    def chi():
        g, _ = cartesian_product(make("K18"), make("K_plus", 2))
        try:
            return f"chi_s = {chromatic_number(g).k}", False
        except BoundExceededError as exc:
            return f"interval [{exc.lo}, unknown]", False

    report.entries = [
        _entry("K18 data integrity", {}, counts, data),
        _entry("chi_s(K18 box K2) = 25",
               {"note": "beyond desk scale; order-25 targets needed"}, 25, chi),
    ]
    return report
