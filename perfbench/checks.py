"""Output checks for the benchmark's tourlab commands.

Nothing here imports tourlab: every check is derived from stdlib, numpy and
known counts, so a bug in the program cannot also hide in its check.  Each
check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb, factorial, sqrt
from pathlib import Path

import numpy as np

# Isomorphism classes on h vertices (OEIS A000568) and how many of them have
# a strict local density minimum at zero bias.
CLASSES = {4: 4, 5: 12, 6: 56, 8: 6880}
BIAS_SUBSET = {4: 1, 5: 6, 6: 25, 8: 2769}

# sha256 of stdout, pinned at the commit that introduced the benchmark.
# fas-table bytes must not depend on --threads; the dominance-check hosts are
# built from a fixed seed, so their exact census output is fixed too.
FAS_TABLE_SHA256 = {
    6: "14c01fbb96b0312effe6e8f8e30f2d6ef397170fcd62c02268dc37070e168493",
    8: "1aeee81b75dc48cd165282ade3387474c332c2a48e6f1387603fa9b19adc4dcb",
}
DOMINANCE_SHA256 = {
    30: "fc02580c7cbaf29a197f4d8ae365efeed32d4cb56a9cb4cb65b864c469b5e8b8",
    60: "63e3f25748b8b094e8611b88acc644cacaf23bcebf0147cbbc5bfb5d05135c97",
}

FAS_COLUMNS = ["h", "canon", "aut", "d_num", "d_den", "fas", "in_Bh", "coeffs",
               "max_forward", "witness"]
MC_COLUMNS = ["pattern_canon", "n", "mode", "samples", "estimate", "stderr",
              "typical_num", "typical_den", "ratio_approx", "margin"]


class CheckFailed(Exception):
    """A command's output is wrong."""


def _expect(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _pairs(h: int) -> list[tuple[int, int]]:
    return list(combinations(range(h), 2))


@cache
def reference_catalog(h: int) -> dict[str, int]:
    """{canonical bits: automorphism count} for every class on h vertices.

    Brute force: relabel all 2^C(h,2) labeled tournaments by all h!
    permutations at once and keep the smallest bit string of each, which is
    the lexicographically minimal canonical form.  Feasible for h <= 6.
    """
    pairs = _pairs(h)
    m = len(pairs)
    index = {pair: k for k, pair in enumerate(pairs)}
    labeled = np.arange(1 << m, dtype=np.int64)
    bit = [(labeled >> (m - 1 - k)) & 1 for k in range(m)]
    flipped = [1 - b for b in bit]
    canon = np.full(1 << m, 1 << m, dtype=np.int64)
    for perm in permutations(range(h)):
        value = np.zeros(1 << m, dtype=np.int64)
        for k, (a, b) in enumerate(pairs):
            u, v = perm[a], perm[b]
            column = bit[index[u, v]] if u < v else flipped[index[v, u]]
            value |= column << (m - 1 - k)
        np.minimum(canon, value, out=canon)
    classes, orbit = np.unique(canon, return_counts=True)
    return {
        format(c, f"0{m}b"): factorial(h) // size
        for c, size in zip(classes.tolist(), orbit.tolist())
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv_rows(stdout: bytes, columns: list[str]) -> list[dict[str, str]]:
    reader = csv.DictReader(io.StringIO(stdout.decode()))
    _expect(reader.fieldnames == columns, f"CSV header {reader.fieldnames}")
    return list(reader)


def _catalog_file(cache_dir: Path, h: int) -> list[str]:
    lines = (cache_dir / f"tournaments_h{h}.txt").read_text().splitlines()
    _expect(lines[:1] == [f"h={h}"], f"catalog h={h} header {lines[:1]}")
    return lines[1:]


def check_enumerate(stdout: bytes, h: int, cache_dir: Path) -> None:
    _expect(stdout == f"h={h} classes={CLASSES[h]}\n".encode(), f"enumerate stdout {stdout!r}")
    body = _catalog_file(cache_dir, h)
    m = comb(h, 2)
    _expect(len(body) == CLASSES[h], f"catalog h={h} has {len(body)} lines")
    _expect(all(len(line) == m and not line.strip("01") for line in body),
            f"catalog h={h} has a malformed line")
    _expect(body == sorted(set(body)), f"catalog h={h} not sorted and unique")
    if h <= 6:
        _expect(set(body) == set(reference_catalog(h)), f"catalog h={h} != brute force")


def _forward_edges(canon: str, order: list[int], h: int) -> int:
    position = {v: i for i, v in enumerate(order)}
    forward = 0
    for bit, (u, v) in zip(canon, _pairs(h)):
        tail, head = (u, v) if bit == "1" else (v, u)
        forward += position[tail] < position[head]
    return forward


def check_fas_table(stdout: bytes, h: int, cache_dir: Path) -> None:
    """Invariants of every row, then the pinned bytes."""
    rows = _csv_rows(stdout, FAS_COLUMNS)
    m = comb(h, 2)
    canons = [row["canon"] for row in rows]
    _expect(len(rows) == CLASSES[h], f"fas-table h={h} has {len(rows)} rows")
    _expect(canons == sorted(set(canons)), "fas-table canon column not sorted and unique")
    _expect(canons == _catalog_file(cache_dir, h), "fas-table rows != cached catalog")
    reference = reference_catalog(h) if h <= 6 else None
    mass = 0
    in_bh = 0
    for row in rows:
        canon, aut = row["canon"], int(row["aut"])
        _expect(row["h"] == str(h) and len(canon) == m, f"row {canon}: bad h or width")
        mass += Fraction(factorial(h), aut)
        in_bh += int(row["in_Bh"])
        fas, forward = int(row["fas"]), int(row["max_forward"])
        _expect(fas + forward == m, f"row {canon}: fas + max_forward != {m}")
        order = [int(v) - 1 for v in row["witness"].split()]
        _expect(sorted(order) == list(range(h)), f"row {canon}: witness not a permutation")
        _expect(_forward_edges(canon, order, h) == forward, f"row {canon}: witness forward count")
        density = Fraction(factorial(h), aut << m)
        _expect((int(row["d_num"]), int(row["d_den"])) == (density.numerator, density.denominator),
                f"row {canon}: typical density")
        _expect(row["coeffs"].startswith(f"0:{density.numerator}/{density.denominator} "),
                f"row {canon}: constant coefficient != typical density")
        if reference is not None:
            _expect(reference.get(canon) == aut, f"row {canon}: aut != brute force")
    _expect(mass == 1 << m, f"labeled mass {mass} != 2^{m}")
    _expect(in_bh == BIAS_SUBSET[h], f"|B_h| = {in_bh}, expected {BIAS_SUBSET[h]}")
    _expect(_sha256(stdout) == FAS_TABLE_SHA256[h], f"fas-table h={h} bytes changed")


def _big_tournament_bits(path: Path, n: int, provenance: dict) -> np.ndarray:
    lines = path.read_text().splitlines()
    _expect(lines[:1] == [f"n={n}"], f"{path.name}: header {lines[:1]}")
    _expect(json.loads(lines[1]) == provenance, f"{path.name}: provenance {lines[1]}")
    _expect(all(len(line) <= 512 for line in lines[2:]), f"{path.name}: line wider than 512")
    text = "".join(lines[2:])
    _expect(len(text) == comb(n, 2) and not text.strip("01"), f"{path.name}: orientation bits")
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")


def check_construct_tnp(stdout: bytes, n: int, seed: int, out: Path) -> None:
    _expect(stdout == f"kind=tnp n={n} out={out}\n".encode(), f"construct stdout {stdout!r}")
    bits = _big_tournament_bits(out, n, {"kind": "tnp", "n": n, "p": "3/5", "seed": seed})
    m = len(bits)
    ones = int(bits.sum())
    _expect(abs(ones - 0.6 * m) <= 6 * sqrt(0.24 * m), f"tnp: {ones} of {m} edges forward")


def check_construct_transversal(stdout: bytes, n: int, parts: int, k: int, seed: int,
                                out: Path) -> None:
    """The transitive pattern T_k is planted: every pair between two of the
    first k classes points from the lower class to the higher."""
    _expect(stdout == f"kind=transversal n={n} out={out}\n".encode(),
            f"construct stdout {stdout!r}")
    provenance = {"kind": "transversal", "n": n, "h": parts, "pattern_h": k,
                  "pattern": "1" * comb(k, 2), "seed": seed}
    bits = _big_tournament_bits(out, n, provenance)
    size = n // parts
    for i, j in combinations(range(k), 2):
        us = np.repeat(np.arange(i * size, (i + 1) * size), size)
        vs = np.tile(np.arange(j * size, (j + 1) * size), size)
        idx = us * (n - 1) - us * (us - 1) // 2 + (vs - us - 1)
        _expect(bool(bits[idx].all()), f"transversal: classes {i},{j} not planted")


def check_density_mc(stdout: bytes, h: int, n: int, samples: int) -> None:
    """Invariants only: the sample stream may change on purpose."""
    rows = _csv_rows(stdout, MC_COLUMNS)
    reference = reference_catalog(h)
    _expect(len(rows) == CLASSES[h], f"density: {len(rows)} rows")
    _expect({row["pattern_canon"] for row in rows} == set(reference),
            "density: pattern set != brute-force catalog")
    hits = 0
    for row in rows:
        canon = row["pattern_canon"]
        _expect((row["n"], row["mode"], row["samples"]) == (str(n), "montecarlo", str(samples)),
                f"density row {canon}: n/mode/samples")
        count = float(row["estimate"]) * samples
        _expect(abs(count - round(count)) < 1e-6, f"density row {canon}: estimate not k/samples")
        hits += round(count)
        typical = Fraction(factorial(h), reference[canon] << comb(h, 2))
        _expect((int(row["typical_num"]), int(row["typical_den"]))
                == (typical.numerator, typical.denominator), f"density row {canon}: typical")
    _expect(hits == samples, f"density: counts sum to {hits}, not {samples}")


def check_dominance(stdout: bytes, n: int) -> None:
    _expect(_sha256(stdout) == DOMINANCE_SHA256[n], f"dominance-check n={n} bytes changed")
