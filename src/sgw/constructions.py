"""Named signed graphs and the constructive colorings behind the bounds.

Contents: the cycle/complete-graph families, the SPal5 / SPal5* palette
targets (positive pentagon, negative pentagram, optional all-positive
hub), the 3x4 grid with chromatic number 5, the order-18 complete signed
graph K18, the inductive grid homomorphisms into SPal5* (any grid) and
SPal5 (at most 4 rows), and the recursive ceil(pq/2)-coloring of
K_p+ box K_q-.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .core import SignedGraph
from .errors import (
    BadParameterError,
    InternalInvariantViolation,
    NotAGridError,
    TooManyRowsError,
)
from .homomorphism import SignedHomomorphism
from .switching import _switch_flags

# Negative edges of the order-18 complete signed graph K18 (all other
# pairs are positive edges).  Frozen data; see tests for the checksum.
K18_NEGATIVE_EDGES = (
    (0, 5), (0, 8), (0, 13), (0, 16), (0, 17), (1, 6), (1, 7), (1, 10),
    (1, 11), (1, 15), (1, 16), (2, 4), (2, 5), (2, 10), (2, 11), (2, 12),
    (2, 13), (2, 15), (2, 17), (3, 6), (3, 9), (3, 10), (3, 13), (3, 14),
    (3, 16), (3, 17), (4, 5), (4, 6), (4, 10), (4, 12), (5, 6), (5, 7),
    (5, 8), (5, 9), (5, 11), (5, 12), (5, 13), (5, 17), (6, 9), (6, 10),
    (6, 12), (6, 13), (6, 14), (6, 16), (7, 11), (7, 12), (7, 15),
    (7, 17), (8, 9), (8, 10), (8, 13), (8, 14), (9, 10), (9, 11),
    (9, 15), (10, 11), (10, 13), (10, 14), (11, 14), (11, 16), (12, 13),
    (12, 14), (12, 16), (13, 14), (13, 15), (13, 17), (14, 15), (14, 17),
    (15, 17),
)

MAKE_NAMES = ("BC", "UC", "K_plus", "K_minus", "K4_mixed", "SPal5",
              "SPal5_star", "K18")


def make(name: str, *params: int) -> SignedGraph:
    """Construct a named signed graph from the catalog.

    ``BC``/``UC`` take the cycle length (>= 3), ``K_plus``/``K_minus``
    the order (>= 1); the remaining names take no parameters.
    """
    if name in ("BC", "UC"):
        (n,) = _params(name, params, 1)
        if n < 3:
            raise BadParameterError(f"{name} needs length >= 3, got {n}")
        neg = {(0, 1)} if name == "UC" else set()
        return SignedGraph(
            n,
            [
                (i, (i + 1) % n, -1 if _key(i, (i + 1) % n) in neg else 1)
                for i in range(n)
            ],
        )
    if name in ("K_plus", "K_minus"):
        (p,) = _params(name, params, 1)
        if p < 1:
            raise BadParameterError(f"{name} needs order >= 1, got {p}")
        s = 1 if name == "K_plus" else -1
        return SignedGraph(p, [(u, v, s) for u in range(p) for v in range(u + 1, p)])
    _params(name, params, 0)
    if name == "K4_mixed":
        return SignedGraph(
            4,
            [(u, v, -1 if (u, v) == (0, 1) else 1)
             for u in range(4) for v in range(u + 1, 4)],
        )
    if name == "SPal5":
        return _spal5()
    if name == "SPal5_star":
        return _spal5_star()
    if name == "K18":
        neg = set(K18_NEGATIVE_EDGES)
        return SignedGraph(
            18,
            [(u, v, -1 if (u, v) in neg else 1)
             for u in range(18) for v in range(u + 1, 18)],
        )
    raise BadParameterError(f"unknown construction {name!r}; choose from {MAKE_NAMES}")


def _params(name, params, want):
    if len(params) != want:
        raise BadParameterError(f"{name} takes {want} parameter(s), got {len(params)}")
    if not all(isinstance(x, int) for x in params):
        raise BadParameterError(f"{name} takes integer parameters, got {params!r}")
    return params


def _key(u, v):
    return (u, v) if u < v else (v, u)


def _spal5() -> SignedGraph:
    edges = [(i, (i + 1) % 5, 1) for i in range(5)]  # pentagon, positive
    edges += [(i, (i + 2) % 5, -1) for i in range(5)]  # pentagram, negative
    return SignedGraph(5, [(min(u, v), max(u, v), s) for u, v, s in edges])


def _spal5_star() -> SignedGraph:
    base = _spal5()
    edges = list(base.edges) + [(i, 5, 1) for i in range(5)]  # hub, positive
    return SignedGraph(6, edges)


# -- property (P) and 4-cycle candidates ------------------------------


def _square_candidates(t: SignedGraph, x: int, y: int, z: int, eps: int) -> list[int]:
    """Fourth vertices u closing the walk x y z u with sign ``eps``.

    ``u`` must avoid its neighbors x and z on the walk but may equal y
    (the walk closes over a repeated vertex); with x == z the walk
    degenerates and its sign is always +1.
    """
    out = []
    for u in range(t.n):
        if u in (x, z):
            continue
        if not (t.has_edge(z, u) and t.has_edge(u, x)):
            continue
        if t.sign(x, y) * t.sign(y, z) * t.sign(z, u) * t.sign(u, x) == eps:
            out.append(u)
    return out


def property_P_check(g: SignedGraph) -> bool:
    """Exhaustive check of property (P): every path x-y-z and sign eps
    (skipping x == z with eps = -1) admits two distinct closing vertices."""
    for y, row in enumerate(g.adjacency):
        for x, _ in row:
            for z, _ in row:
                for eps in (1, -1):
                    if x == z and eps == -1:
                        continue
                    if len(_square_candidates(g, x, y, z, eps)) < 2:
                        return False
    return True


# -- signed grids -----------------------------------------------------


def grid_edges(n: int, m: int) -> list[tuple[int, int]]:
    """Underlying edges of P_n box P_m with vertex (i,j) at (i-1)*m + (j-1)."""
    if n < 1 or m < 1:
        raise BadParameterError("grid needs n, m >= 1")
    edges = []
    for i in range(n):
        for j in range(m):
            vid = i * m + j
            if j + 1 < m:
                edges.append((vid, vid + 1))
            if i + 1 < n:
                edges.append((vid, vid + m))
    return sorted(edges)


def build_grid(n: int, m: int, signs=None) -> SignedGraph:
    """Signed n x m grid; ``signs`` is a mapping keyed by canonical edge
    pairs or a sequence aligned with grid_edges order (default all +1)."""
    edges = grid_edges(n, m)
    if signs is None:
        signs = [1] * len(edges)
    if isinstance(signs, Mapping):
        try:
            signs = [signs[e] for e in edges]
        except KeyError as exc:
            raise BadParameterError(f"no sign for grid edge {exc.args[0]}") from None
    if len(signs) != len(edges):
        raise BadParameterError("one sign per grid edge required")
    return SignedGraph(n * m, [(u, v, s) for (u, v), s in zip(edges, signs)])


def fig1c_grid() -> SignedGraph:
    """The 3x4 signed grid with chromatic number exactly 5."""
    signs = {}
    for (u, v) in grid_edges(3, 4):
        signs[(u, v)] = 1 if v - u == 4 else None  # vertical edges positive
    horizontal = {1: (-1, 1, -1), 2: (1, 1, 1), 3: (-1, -1, -1)}
    for row, row_signs in horizontal.items():
        for col, s in enumerate(row_signs, start=1):
            u = (row - 1) * 4 + (col - 1)
            signs[(u, u + 1)] = s
    return build_grid(3, 4, signs)


def _check_grid(g: SignedGraph, n: int, m: int):
    if g.n != n * m or g.underlying_edges() != tuple(grid_edges(n, m)):
        raise NotAGridError(f"input is not a {n}x{m} grid in row-major layout")


def _square_sign(g: SignedGraph, i: int, j: int, m: int) -> int:
    """Sign of the grid square with bottom-right cell (i, j), 1-indexed."""
    a = (i - 2) * m + (j - 2)  # (i-1, j-1)
    b = a + 1  # (i-1, j)
    c = a + m  # (i, j-1)
    d = c + 1  # (i, j)
    return g.sign(a, b) * g.sign(b, d) * g.sign(d, c) * g.sign(c, a)


def _with_switch_set(g: SignedGraph, t: SignedGraph, phi) -> SignedHomomorphism:
    """The homomorphism g -> t with vertex map ``phi``: its switch set
    makes the ratio signing s(uv) t(phi u, phi v) all positive, the only
    such set on a connected g that leaves vertex 0 unswitched.  Raises
    when an edge lands on a non-edge or the ratio is unbalanced."""
    ratio = []
    for u, row in enumerate(g.adjacency):
        ratio.append([])
        for v, s in row:
            if not t.has_edge(phi[u], phi[v]):
                raise InternalInvariantViolation(f"edge ({u},{v}) lands on a non-edge")
            ratio[u].append((v, s * t.sign(phi[u], phi[v])))
    switched, _, bad = _switch_flags(g, ratio)
    if bad is not None:
        raise InternalInvariantViolation(f"no switch set fits edge {bad}")
    return SignedHomomorphism(tuple(phi), switched)


def grid_hom_spal5star(g: SignedGraph, n: int, m: int) -> SignedHomomorphism:
    """Cell-by-cell homomorphism of a signed n x m grid into SPal5*.

    Each interior cell keeps the unused second candidate guaranteed by
    property (P); the degenerate unbalanced-square collision revises the
    previous cell to that alternative, which is always one step.
    """
    _check_grid(g, n, m)
    t = _spal5_star()
    adjacency = t.adjacency
    phi = [0] * g.n
    alt = [1] * g.n

    def vid(i, j):
        return (i - 1) * m + (j - 1)

    def place_simple(i, j, anchor_i, anchor_j):
        """Cell with a single assigned neighbor: take its two smallest
        neighbors in the target as choice and recorded alternative."""
        u, a = vid(i, j), vid(anchor_i, anchor_j)
        (phi[u], _), (alt[u], _) = adjacency[phi[a]][:2]

    def place_square(i, j):
        u, left, up = vid(i, j), vid(i, j - 1), vid(i - 1, j)
        x, y, z = phi[left], phi[vid(i - 1, j - 1)], phi[up]
        eps = _square_sign(g, i, j, m)
        if x == z and eps == -1:
            # collision case: redo the previous cell with its alternative
            phi[left], alt[left] = alt[left], phi[left]
            x = phi[left]
            if x == z:
                raise InternalInvariantViolation("collision survived revision")
        cands = _square_candidates(t, x, y, z, eps)
        if len(cands) < 2:
            raise InternalInvariantViolation("property (P) failed on the target")
        phi[u], alt[u] = cands[0], cands[1]

    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if i == 1 and j == 1:
                continue  # phi[0] = 0, with alternative 1
            if i == 1:
                place_simple(i, j, i, j - 1)
            elif j == 1:
                place_simple(i, j, i - 1, j)
            else:
                place_square(i, j)
    return _with_switch_set(g, t, phi)


def grid4_hom_spal5(g: SignedGraph, n: int, m: int) -> SignedHomomorphism:
    """Column-by-column homomorphism of a signed grid with n <= 4 rows
    into SPal5, using the exclusion rule phi(x_{k,j}) != phi(x_{k+1,j-1})
    plus in-column backtracking."""
    if n > 4:
        raise TooManyRowsError(f"SPal5 grid mapping needs n <= 4, got {n}")
    _check_grid(g, n, m)
    t = _spal5()
    phi = [-1] * g.n

    def vid(i, j):
        return (i - 1) * m + (j - 1)

    # first column: a path, mapped to distinct vertices 0..n-1
    for i in range(1, n + 1):
        phi[vid(i, 1)] = i - 1

    def column_candidates(i, j):
        left = phi[vid(i, j - 1)]
        if i == 1:
            cands = [w for w in range(t.n) if w != left]
        else:
            x, y, z = left, phi[vid(i - 1, j - 1)], phi[vid(i - 1, j)]
            cands = _square_candidates(t, x, y, z, _square_sign(g, i, j, m))
        if i < n:  # exclusion rule against the next row's left neighbor
            below_left = phi[vid(i + 1, j - 1)]
            cands = [w for w in cands if w != below_left]
        return cands

    def fill_column(j, i):
        if i > n:
            return True
        u = vid(i, j)
        for w in column_candidates(i, j):
            phi[u] = w
            if fill_column(j, i + 1):
                return True
        phi[u] = -1
        return False

    for j in range(2, m + 1):
        if not fill_column(j, 1):
            raise InternalInvariantViolation(f"column {j} admits no extension")
    return _with_switch_set(g, t, phi)


# -- coloring of K_p+ box K_q- ----------------------------------------

# Figure-derived 5-coloring of K_3+ box K_3- (vertex (a,b) at id 3a+b)
_KPQ33_COLORS = (0, 1, 2, 3, 0, 1, 2, 4, 3)
_KPQ33_SWITCH = frozenset({0, 1, 2, 3})


def kpq_coloring(p: int, q: int) -> tuple[tuple[int, ...], frozenset]:
    """ceil(pq/2)-coloring of K_p+ box K_q- (vertex (i,j) at id i*q+j).

    Recursive switch-and-identify construction: switch row 0, give each
    identified pair {v_(0,j), v_(1,j+1)} a fresh color, and color the
    remaining rows as K_(p-2)+ box K_q-.  Base cases p=2 (balanced C4),
    (3,2) (prism 3-coloring) and (3,3) (figure scheme); p < q reduces to
    (q, p) by negating every sign and transposing.
    """
    if p < 2 or q < 2:
        raise BadParameterError(f"need p, q >= 2, got ({p}, {q})")
    if p < q:
        sub_colors, sub_switch = kpq_coloring(q, p)
        colors = tuple(sub_colors[b * p + a] for a in range(p) for b in range(q))
        switch = frozenset(a * q + b for a in range(p) for b in range(q)
                           if b * p + a in sub_switch)
        return colors, switch
    if p == 2:  # q == 2: the product is a balanced C4
        return (0, 1, 1, 0), frozenset({1, 3})
    if p == 3 and q == 2:  # switch one K2- endpoint per row: positive prism
        return (0, 1, 1, 2, 2, 0), frozenset({1, 3, 5})
    if p == 3 and q == 3:
        return _KPQ33_COLORS, _KPQ33_SWITCH
    sub_colors, sub_switch = kpq_coloring(p - 2, q)
    colors = [0] * (p * q)
    for j in range(q):
        colors[j] = j  # v_(0,j), switched
        colors[q + (j + 1) % q] = j  # its identified partner v_(1,j+1)
    for i in range(2, p):
        for j in range(q):
            colors[i * q + j] = q + sub_colors[(i - 2) * q + j]
    switch = frozenset(range(q)) | frozenset(v + 2 * q for v in sub_switch)
    return tuple(colors), switch


def coloring_target(
    g: SignedGraph, colors: Sequence[int], switch_set: frozenset
) -> tuple[SignedGraph, SignedHomomorphism]:
    """Induced target of a signed coloring, plus the coloring as a
    homomorphism onto it.  Raises if the coloring is improper or some
    color pair sees both signs after switching."""
    k = max(colors) + 1
    pair_sign: dict[tuple[int, int], int] = {}
    for u, v, s in g.edges:
        cu, cv = colors[u], colors[v]
        if cu == cv:
            raise InternalInvariantViolation(f"edge ({u},{v}) inside color {cu}")
        if (u in switch_set) != (v in switch_set):
            s = -s
        key = _key(cu, cv)
        if pair_sign.setdefault(key, s) != s:
            raise InternalInvariantViolation(f"color pair {key} sees both signs")
    target = SignedGraph(k, [(u, v, s) for (u, v), s in sorted(pair_sign.items())])
    return target, SignedHomomorphism(tuple(colors), frozenset(switch_set))
