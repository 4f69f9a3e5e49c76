"""Isomorph-free generation of all tournaments on h vertices, with caching.

Generation extends each (h-1)-vertex class by a new vertex, canonicalizes,
and deduplicates.  Only the orientation patterns that give the new vertex
the minimum score (out-degree) of the child are canonicalized: deleting a
minimum-score vertex from any class leaves some (h-1)-vertex class, whose
extension by that vertex's pattern is such a pattern, so no class is lost.
The labeled-mass identity sum(h!/aut) = 2^C(h,2) over the catalog guards
completeness and is checked in the test suite.  A cache file is read back
only if every line is its own canonical form.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .core import Tournament, pair_count
from .core import _canon_search, _canonical_data

__all__ = [
    "TournamentCatalog",
    "Unsupported",
    "CorruptCacheWarning",
    "enumerate_tournaments",
    "load_or_enumerate",
    "cache_path",
]


# Isomorphism classes on h = 1..9 vertices (OEIS A000568); a cache file
# must list exactly this many.
_CLASS_COUNTS = (1, 1, 2, 4, 12, 56, 456, 6880, 191536)


class Unsupported(ValueError):
    """Enumeration requested beyond the supported vertex range."""


class CorruptCacheWarning(UserWarning):
    """A cache file was present but malformed; it will be regenerated."""


@dataclass(frozen=True)
class TournamentCatalog:
    """All isomorphism classes on h vertices, each item in canonical form,
    sorted by canon bit sequence."""

    h: int
    items: tuple[Tournament, ...]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


def _extend_all(h: int, parents: list[str]) -> tuple[set[int], int]:
    """Extend (h-1)-vertex canonical forms by one vertex and return the set
    of canon ints reached, with the number of canonical searches run.

    Only patterns that give the new vertex the minimum score (out-degree)
    of the child are searched.  That loses no class: a class C with a
    minimum-score vertex v is reached from the parent isomorphic to C - v
    with v's pattern, and there the new vertex has the minimum score.

    Pattern bit v is 1 when parent vertex v beats the new vertex, whose
    score is then d = h-1-popcount(pattern).  A parent vertex of score
    below d-1 cannot reach d, so d is at most the least parent score plus
    one; the parent vertices of score d-1 (``must[d]``) must beat the new
    vertex.
    """
    found: set[int] = set()
    searched = 0
    full_old = (1 << (h - 1)) - 1
    for bits in parents:
        parent = Tournament(h - 1, bits).out_masks
        scores = [mask.bit_count() for mask in parent]
        top = min(scores) + 1
        must = [0] * h
        for v, score in enumerate(scores):
            must[score + 1] |= 1 << v
        for pattern in range(1 << (h - 1)):
            d = h - 1 - pattern.bit_count()
            if d > top or pattern & must[d] != must[d]:
                continue
            masks = [
                parent[v] | (((pattern >> v) & 1) << (h - 1)) for v in range(h - 1)
            ]
            masks.append(~pattern & full_old)
            found.add(_canon_search(h, tuple(masks))[0])
            searched += 1
    return found, searched


def _check_range(h: int) -> None:
    if not 1 <= h <= len(_CLASS_COUNTS):
        cost = (": its 9,733,056 classes would take an estimated 30 minutes to "
                "enumerate and about 10 hours to classify on one thread") if h == 10 else ""
        raise Unsupported(f"enumeration supports 1 <= h <= 9, got {h}{cost}")


def enumerate_tournaments(
    h: int,
    threads: int = 1,
    progress: Callable[[str], None] | None = None,
) -> TournamentCatalog:
    """Complete catalog of tournaments on h vertices up to isomorphism.

    Deterministic order (sorted canonical bit sequences) regardless of
    ``threads``; parents are partitioned across workers and the result
    sets merged.  ``progress`` receives one status line per level.
    """
    _check_range(h)
    level: list[str] = [""]
    for k in range(2, h + 1):
        if threads > 1 and len(level) >= 4 * threads:
            chunks = [level[i::threads] for i in range(threads)]
            canons: set[int] = set()
            searched = 0
            with ProcessPoolExecutor(max_workers=threads) as pool:
                for part, count in pool.map(_extend_all, [k] * threads, chunks):
                    canons |= part
                    searched += count
        else:
            canons, searched = _extend_all(k, level)
        if progress is not None:
            progress(f"level h={k}: {len(canons)} classes, {searched} of "
                     f"{len(level) << (k - 1)} extensions searched")
        m = pair_count(k)
        level = [format(value, f"0{m}b") for value in sorted(canons)]
    items = tuple(Tournament(h, bits) for bits in level)
    return TournamentCatalog(h, items)


def cache_path(h: int, cache_dir: Path | str) -> Path:
    return Path(cache_dir) / f"tournaments_h{h}.txt"


def _read_cache(path: Path, h: int) -> TournamentCatalog:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != f"h={h}":
        raise ValueError(f"bad or missing header in {path}")
    m = pair_count(h)
    body = lines[1:]
    if len(body) != _CLASS_COUNTS[h - 1]:
        raise ValueError(f"{path} lists {len(body)} classes, not {_CLASS_COUNTS[h - 1]}")
    for line in body:
        if len(line) != m or line.strip("01"):
            raise ValueError(f"malformed tournament line in {path}: {line!r}")
    if body != sorted(set(body)):
        raise ValueError(f"catalog in {path} is not sorted and duplicate-free")
    # One lru-cached search per line; classification reuses it for aut(H).
    for line in body:
        if _canonical_data(h, line)[0] != line:
            raise ValueError(f"tournament line in {path} is not canonical: {line!r}")
    return TournamentCatalog(h, tuple(Tournament(h, bits) for bits in body))


def _write_cache(path: Path, catalog: TournamentCatalog) -> None:
    """Write an 'h=<h>' header and one canon per line, through a temporary
    file beside ``path`` so that no reader ever sees a partial catalog."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"h={catalog.h}"] + [t.bits for t in catalog.items]
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_or_enumerate(
    h: int,
    cache_dir: Path | str,
    threads: int = 1,
    progress: Callable[[str], None] | None = None,
) -> TournamentCatalog:
    """Read the catalog from cache if present and well-formed, else
    enumerate and write it.  A malformed cache file is reported with a
    CorruptCacheWarning and regenerated."""
    _check_range(h)
    path = cache_path(h, cache_dir)
    if path.exists():
        try:
            return _read_cache(path, h)
        except ValueError as exc:
            warnings.warn(f"regenerating corrupt cache: {exc}", CorruptCacheWarning)
    catalog = enumerate_tournaments(h, threads=threads, progress=progress)
    _write_cache(path, catalog)
    return catalog
