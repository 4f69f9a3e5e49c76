"""Independent brute-force references the fast implementations are tested
against.  Everything here enumerates permutations or sums series directly
and must stay free of the code paths it checks."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from tourlab.core import Tournament


def all_labeled(h: int):
    m = h * (h - 1) // 2
    for x in range(1 << m):
        yield Tournament(h, format(x, f"0{m}b") if m else "")


def brute_canonical(t: Tournament) -> str:
    return min(t.relabel(p).bits for p in permutations(range(t.h)))


def brute_isomorphic(a: Tournament, b: Tournament) -> bool:
    return any(a.relabel(p).bits == b.bits for p in _degree_preserving(a, b))


def _degree_preserving(a: Tournament, b: Tournament):
    """Every relabeling p of a with outdeg_a(v) == outdeg_b(p[v]) for all v.

    An isomorphism keeps out-degrees, so these include all of them."""
    da, db = a.out_degrees(), b.out_degrees()
    if sorted(da) != sorted(db):
        return
    degrees = sorted(set(da))
    sources = [[v for v in range(a.h) if da[v] == d] for d in degrees]
    targets = [[w for w in range(b.h) if db[w] == d] for d in degrees]
    for images in product(*(permutations(t) for t in targets)):
        p = [0] * a.h
        for source, image in zip(sources, images):
            for v, w in zip(source, image):
                p[v] = w
        yield p


def brute_aut(t: Tournament) -> int:
    return sum(1 for p in permutations(range(t.h)) if t.relabel(p).bits == t.bits)


def labeled_copies(t: Tournament) -> int:
    return len({t.relabel(p).bits for p in permutations(range(t.h))})


def forward_edges(t: Tournament, order) -> int:
    pos = {v: i for i, v in enumerate(order)}
    return sum(
        1
        for u in range(t.h)
        for v in range(t.h)
        if u != v and t.has_edge(u, v) and pos[u] < pos[v]
    )


def brute_histogram(t: Tournament) -> tuple[int, ...]:
    m = t.m
    counts = [0] * (m + 1)
    for order in permutations(range(t.h)):
        counts[forward_edges(t, order)] += 1
    return tuple(counts)


def brute_max_forward(t: Tournament) -> int:
    return max(forward_edges(t, order) for order in permutations(range(t.h)))


def brute_bias_coeffs(t: Tournament, aut: int) -> dict[int, Fraction]:
    """B(H,x) by expanding the permutation sum with plain Fraction algebra."""
    m = t.m
    total = [Fraction(0)] * (m + 1)
    half = Fraction(1, 2)
    for order in permutations(range(t.h)):
        k = forward_edges(t, order)
        term = [Fraction(1)]
        for _ in range(k):
            term = _poly_mul(term, [half, Fraction(1)])
        for _ in range(m - k):
            term = _poly_mul(term, [half, Fraction(-1)])
        for e, c in enumerate(term):
            total[e] += c
    return {e: c / aut for e, c in enumerate(total) if c}


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def brute_density(g, pattern: Tournament) -> Fraction:
    """Exact density by checking isomorphism of every induced subset."""
    from tourlab.core import induced

    n = g.h if isinstance(g, Tournament) else g.n
    hits = 0
    total = 0
    for subset in combinations(range(n), pattern.h):
        total += 1
        if brute_isomorphic(induced(g, subset), pattern):
            hits += 1
    return Fraction(hits, total)


def exp_bounds(y: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= e^y <= hi for y >= 0, from the Taylor partial sum of
    sum_k y^k/k!, each term rounded down (lo) or up (hi) to a multiple of
    2^-bits, and in hi the geometric tail bound: past a term t_N with
    N + 1 > y, the rest is at most t_N * y / (N + 1 - y).  Rounding adds at
    most (N + 1) e^y units of 2^-bits to hi - lo, so give bits a margin."""
    n, d = y.numerator, y.denominator
    scale = 1 << bits
    term_lo = term_hi = sum_lo = sum_hi = scale  # k = 0
    k = 0
    while term_hi > 1 or (k + 1) * d < 2 * n:  # stop once the tail is at most one unit
        k += 1
        term_lo = term_lo * n // (k * d)
        term_hi = -(-term_hi * n // (k * d))
        sum_lo += term_lo
        sum_hi += term_hi
    tail = -(-term_hi * n // ((k + 1) * d - n))
    return Fraction(sum_lo, scale), Fraction(sum_hi + tail, scale)
