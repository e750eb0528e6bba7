"""Seeded workloads over sgw's public API, each with independent answer checks.

Every workload is a list of operations.  ``Op.run`` makes only the library
calls whose time is measured; ``Op.check`` judges the answer afterwards,
untimed, against a reference that does not come from the solver's own
claims.  Inputs are built here from the seed before any timing, so the
library only ever receives finished graphs.  Library functions are
looked up on their modules at call time, so a tracer's wrappers see them.

See NOTES.md for why each workload exists and what it leaves out.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from sgw import constructions, homomorphism, product, s_factor, switching, verify
from sgw.core import SignedGraph
from sgw.switching import CycleClass

@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]  # the measured library calls
    check: Callable[[object], bool]  # untimed answer check
    inputs: tuple = ()  # the generated inputs, for the determinism self-test


def build(name: str, seed: int, smoke: bool = False) -> list[Op]:
    """The operations of one pass of workload ``name`` for ``seed``.

    ``smoke`` gives a slice that runs in seconds, for the self-tests.
    """
    rng = random.Random(f"{name}/{seed}")
    return _BUILDERS[name](rng, smoke)


def warm_up(name: str):
    """One call per lazy table the workload uses (the measured set-up)."""
    if name == "decompose":
        s_factor.s_decompose(_complete(2, 1))
        return
    top = {"chi_cycles": 5, "chi_sparse": 3}[name]
    for j in range(1, top + 1):
        homomorphism.chromatic_number(_complete(j, 1))
    if name == "chi_sparse":
        homomorphism.find_homomorphism(_complete(2, 1), constructions.make("SPal5_star"))


# -- input construction -----------------------------------------------


def _cycle(n: int, signs) -> SignedGraph:
    return SignedGraph(n, [(i, (i + 1) % n, signs[i]) for i in range(n)])


def _random_cycle(rng, n: int, unbalanced: Optional[bool] = None) -> SignedGraph:
    """Cycle with random signs; ``unbalanced`` fixes the parity of negatives."""
    signs = [rng.choice((1, -1)) for _ in range(n)]
    if unbalanced is not None and (signs.count(-1) % 2 == 1) != unbalanced:
        signs[rng.randrange(n)] *= -1
    return _cycle(n, signs)


def _complete(p: int, sign: int) -> SignedGraph:
    return SignedGraph(p, [(u, v, sign) for u in range(p) for v in range(u + 1, p)])


def _grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return edges


def _balanced(rng, n: int, edges) -> SignedGraph:
    """Balanced signature: sign(uv) = p(u) p(v) for random potentials p."""
    p = [rng.choice((1, -1)) for _ in range(n)]
    return SignedGraph(n, [(u, v, p[u] * p[v]) for u, v in edges])


def _random_signs(rng, g: SignedGraph) -> SignedGraph:
    return SignedGraph(g.n, [(u, v, rng.choice((1, -1))) for u, v, _ in g.edges])


def _flip_one(rng, g: SignedGraph) -> SignedGraph:
    i = rng.randrange(g.m)
    return SignedGraph(g.n, [(u, v, -s if j == i else s) for j, (u, v, s) in enumerate(g.edges)])


def _random_subset(rng, n: int) -> frozenset:
    return frozenset(v for v in range(n) if rng.random() < 0.5)


# -- chromatic-number checks ------------------------------------------


def _chi_ok(g: SignedGraph, cert, expected: int) -> bool:
    """Value against a known reference, homomorphism re-validated, and the
    lower-bound evidence covering every smaller order (verify._checked_chi's rule)."""
    if cert.k != expected or cert.target.n != cert.k:
        return False
    if not homomorphism.validate(g, cert.target, cert.hom):
        return False
    evidence = cert.lower_bound_evidence
    exhausted = evidence["exhausted_orders"]
    base = evidence["underlying_chromatic"]
    return all(k in exhausted or k < base for k in range(1, cert.k))


def _chi_op(label: str, g: SignedGraph, expected: int) -> Op:
    return Op(
        label,
        run=lambda: homomorphism.chromatic_number(g),
        check=lambda cert: _chi_ok(g, cert, expected),
        inputs=(g,),
    )


# -- chi_cycles: the paper's cycle table and verify suites ---------------


_CYCLE_CLASS = {
    (False, 0): CycleClass.BC_EVEN,
    (False, 1): CycleClass.BC_ODD,
    (True, 0): CycleClass.UC_EVEN,
    (True, 1): CycleClass.UC_ODD,
}


def _chi_cycles(rng, smoke):
    # the paper's table is fixed, so the seed does not change these inputs:
    # UC_n has one negative edge, BC_n none, as in verify_cycle_table.  8
    # cycles (balanced or not, lengths 3..6) give 36 unordered products;
    # UC6 x UC5 alone outlasts a run and is left out (see NOTES.md)
    cycles = [(unb, n) for unb in (False, True) for n in (3, 4, 5, 6)]
    pairs = [
        (a, b)
        for i, a in enumerate(cycles)
        for b in cycles[i:]
        if {a, b} != {(True, 5), (True, 6)}
    ]
    if smoke:
        pairs = pairs[:4]
    ops = []
    for (ua, na), (ub, nb) in pairs:
        a = _cycle(na, [-1 if ua and i == 0 else 1 for i in range(na)])
        b = _cycle(nb, [-1 if ub and i == 0 else 1 for i in range(nb)])
        expected = verify.CYCLE_TABLE[(_CYCLE_CLASS[ua, na % 2], _CYCLE_CLASS[ub, nb % 2])]
        label = f"{'UC' if ua else 'BC'}{na}x{'UC' if ub else 'BC'}{nb}"
        ops.append(_cycle_product_op(label, a, b, expected))
    # the acceptance-gate suites that need targets of order <= 5 only
    suites = [
        ("verify_kpq(3,3)", lambda: verify.verify_kpq(3, 3), 4),
        ("verify_grid_fig1c", lambda: verify.verify_grid_fig1c(), 3),
        ("verify_k4_classes", lambda: verify.verify_k4_classes(), 1),
    ]
    ops += [Op(label, run, lambda report, n=entries: _report_ok(report, n))
            for label, run, entries in suites]
    return ops


def _cycle_product_op(label, a, b, expected) -> Op:
    def run():
        g, _ = product.cartesian_product(a, b)
        return g, homomorphism.chromatic_number(g)

    return Op(label, run, lambda out: _chi_ok(out[0], out[1], expected), inputs=(a, b))


def _report_ok(report, entries: int) -> bool:
    return (
        len(report.entries) == entries
        and report.passed
        and all(e.passed and e.computed == e.expected for e in report.entries)
    )


# -- decompose: product round trips through the s-decomposition ---------

def _decompose(rng, smoke):
    # the seed picks a factor's signs but not its switching class, which is
    # a cycle's balance or K_p's sign: the class moved an operation's time
    # by up to 30 %
    unbalanced = itertools.cycle((True, False))

    def cycle(n):
        return _random_cycle(rng, n, next(unbalanced))

    def complete(p):
        return _complete(p, -1 if next(unbalanced) else 1)

    k2 = _complete(2, 1)
    if smoke:
        products = [[cycle(5), cycle(7)], [k2] * 4]
        perturbed = [_flip_one(rng, product.product_many([cycle(5), cycle(6)])[0])]
        circulants = [(31, 7)]
    else:
        # shapes are fixed, and every operation takes 0.1 s or more; the
        # seed picks signs within a fixed switching class, flipped edges,
        # random signatures and switch sets
        # product signatures: the s-prime factors are the inputs themselves
        products = [
            [cycle(8) for _ in range(4)],  # n = 4096
            [k2] * 6 + [cycle(5), cycle(5)],
            [k2] * 7 + [cycle(7)],
            [complete(5), complete(6), cycle(11)],
            [cycle(7), cycle(11), cycle(13)],
            [cycle(31), cycle(37)],
        ]
        # one edge flipped or all signs random: colors merge in s_decompose
        perturbed = [
            _flip_one(rng, product.product_many([cycle(10) for _ in range(3)])[0]),
            _flip_one(rng, product.product_many([complete(5), cycle(11), cycle(13)])[0]),
            _random_signs(rng, product.product_many([cycle(9), cycle(11), _complete(5, 1)])[0]),
            _random_signs(rng, product.product_many([k2] * 8)[0]),
        ]
        # circulants C_p(1, b) with p prime: Cartesian-prime because |V| is
        # prime, and locally square-rich, so factorize takes its merge retry.
        # The chord b is fixed: it moves the time by up to 40 %.  So is
        # the signature, like the 16x16 grid's switching in chi_sparse
        circulants = [(503, 97), (1009, 211)]
    ops = []
    for factors in products:
        expected = sorted((f.n, f.m) for f in factors)
        label = "prod:" + "x".join(_factor_name(f) for f in factors)
        ops.append(_decompose_op(label, rng, factors=factors, expected=expected))
    for g in perturbed:
        ops.append(_decompose_op(f"perturbed:n{g.n}", rng, graph=g))
    for p, b in circulants:
        g = _random_signs(random.Random(f"circulant/{p}"), SignedGraph(p, sorted(
            {(min(i, (i + d) % p), max(i, (i + d) % p), 1) for i in range(p) for d in (1, b)})))
        ops.append(_decompose_op(f"circulant:C{p}(1,{b})", rng, graph=g, expected=[(g.n, g.m)]))
    return ops


def _factor_name(f: SignedGraph) -> str:
    return f"K{f.n}" if f.m == f.n * (f.n - 1) // 2 else f"C{f.n}"


def _decompose_op(label, rng, factors=None, graph=None, expected=None) -> Op:
    n = graph.n if graph is not None else math.prod(f.n for f in factors)
    x = _random_subset(rng, n)
    y = _random_subset(rng, n)

    def run():
        g = product.product_many(factors)[0] if factors is not None else graph
        g = switching.switch(g, x)
        return (g, s_factor.s_decompose(g), s_factor.is_s_prime(g),
                switching.canonical_form(g))

    def check(out):
        g, dec, prime, (canon, canon_set) = out
        if expected is not None and sorted((f.n, f.m) for f in dec.factors) != expected:
            return False
        if prime != (len(dec.factors) == 1):
            return False
        # the product of the factors, mapped through the coordinates, is
        # the input switched by the returned set, edge for edge
        rebuilt, coords = product.product_many(dec.factors)
        if rebuilt.n != g.n:
            return False
        index = dec.coords.index
        mapped = SignedGraph(g.n, [
            (index[coords.coords[u]], index[coords.coords[v]], s)
            for u, v, s in rebuilt.edges
        ])
        if mapped != switching.switch(g, dec.switch_set):
            return False
        # one representative per switching class
        return (switching.switch(g, canon_set) == canon
                and switching.canonical_form(switching.switch(g, y))[0] == canon)

    return Op(label, run, check, inputs=(graph, tuple(factors or ()), x, y))


# -- chi_sparse: large sparse inputs decided at a low order -------------


HOM_BATCH = 8  # grids mapped into SPal5* per operation


def _chi_sparse(rng, smoke):
    if smoke:
        cycles, grids, odd, homs = (40,), (6,), 21, (8,)
    else:
        # grids below 16x16 are left out: how fast local search colours a
        # randomly switched one is luck, from 0.01 s to 0.6 s by the seed
        cycles, grids, odd, homs = (200, 300, 400), (16,), 201, (16, 24, 28, 31)
    # the seed does not change these inputs: their signs and switchings
    # come from generators seeded by the operation's name.  How fast local
    # search finds a colouring depends on them by luck: 1.0 or 1.7 s for
    # the 16x16 grid's switching, 1.0-1.4 s for the 300-cycle's, 1.4 or
    # 2.3 s for the odd cycle's signs.  Drawn from the seed, they swamped
    # the metrics
    ops = []
    for n in cycles:  # randomly switched balanced even cycles: chi = 2
        fixed = random.Random(f"balanced_cycle/{n}")
        g = _balanced(fixed, n, [(i, (i + 1) % n) for i in range(n)])
        ops.append(_chi_op(f"balanced_cycle:{n}", g, 2))
    for side in grids:  # randomly switched balanced grids: chi = 2
        fixed = random.Random(f"balanced_grid/{side}")
        g = _balanced(fixed, side * side, _grid_edges(side, side))
        ops.append(_chi_op(f"balanced_grid:{side}x{side}", g, 2))
    # an odd cycle needs 3 colors; this one is unbalanced (a balanced one
    # takes about 10 % longer)
    fixed = random.Random(f"odd_cycle/{odd}")
    ops.append(_chi_op(f"odd_cycle:{odd}:unbalanced", _random_cycle(fixed, odd, True), 3))
    # every signed grid maps to SPal5*.  One grid takes 7-75 ms, so an
    # operation maps a batch of them.  Sides stop at 31 (961 vertices):
    # past 1000 the recursive search raises RecursionError, which
    # recursion_probe reports instead of a failing operation
    target = constructions.make("SPal5_star")
    for side in homs:
        fixed = random.Random(f"grids_to_spal5star/{side}")
        grids = tuple(_random_grid(fixed, side) for _ in range(HOM_BATCH))
        ops.append(Op(
            f"grids_to_spal5star:{HOM_BATCH}x{side}x{side}",
            run=lambda grids=grids: [homomorphism.find_homomorphism(g, target) for g in grids],
            check=lambda phis, grids=grids: all(
                phi is not None and homomorphism.validate(g, target, phi)
                for g, phi in zip(grids, phis)),
            inputs=grids,
        ))
    return ops


def _random_grid(rng, side: int) -> SignedGraph:
    edges = _grid_edges(side, side)
    return SignedGraph(side * side, [(u, v, rng.choice((1, -1))) for u, v in edges])


def recursion_probe() -> Optional[bool]:
    """Map one fixed signed 32x32 grid (1024 vertices) into SPal5*.

    Today this raises RecursionError, a known defect: the search recurses
    once per vertex, past Python's default limit of 1000.  It is no
    workload's operation, since an operation that fails today would make
    every run's failure count depend on how many rounds fit in it; the
    traced run reports it as a per-layer metric instead.  Returns True if
    it raised RecursionError, False if it gave a valid homomorphism, and
    None for any other outcome.  Other exceptions propagate.
    """
    g = _random_grid(random.Random("recursion_probe"), 32)
    target = constructions.make("SPal5_star")
    try:
        phi = homomorphism.find_homomorphism(g, target)
    except RecursionError:
        return True
    return False if phi is not None and homomorphism.validate(g, target, phi) else None


_BUILDERS = {
    "chi_cycles": _chi_cycles,
    "decompose": _decompose,
    "chi_sparse": _chi_sparse,
}
