"""Isomorph-free generation of all tournaments on h vertices, with caching.

Generation extends each (h-1)-vertex class by a new vertex, canonicalizes,
and deduplicates.  Only the orientation patterns that give the new vertex
the least key of the child are canonicalized, a vertex's key being its score
(out-degree) and then the score sum of its out-neighbours, which is C(score,
2) plus the 3-cycles through it: deleting a least-key vertex from any class
leaves some (h-1)-vertex class, whose extension by that vertex's pattern is
such a pattern, so no class is lost.  At h=8 that is 7,942 searches for
6,880 classes.
Each search also gives aut(H), a class invariant, so the catalog records
it beside each item.  The labeled-mass identity sum(h!/aut) = 2^C(h,2) over
the catalog guards completeness and is checked in the test suite.  The
cache holds two files per h, the catalog and its aut counts; a cache hit is
both, each byte-identical to its pinned file, and anything else is
enumerated again.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, TextIO

from . import core
from .core import _VERTICES, Tournament, _bits, _canon_search, pair_count, parse

__all__ = [
    "TournamentCatalog",
    "Unsupported",
    "CorruptCacheWarning",
    "enumerate_tournaments",
    "load_or_enumerate",
    "cache_path",
]


# sha256 of the cache file that _write_cache writes for h = 1..9: the
# header and the sorted canonical forms of all 1, 1, 2, 4, 12, 56, 456,
# 6880, 191536 classes (OEIS A000568).  A cache file is read back only if
# it has this digest.
_CATALOG_SHA256 = (
    "a4121cceabf8965b63b6aecbb2770c0231696b697d337f9503768a039d4d66bd",
    "b1da2622df6870a3bbf8e8e2a78262907257209288ad1a083183fdd468e4895c",
    "9dbc6057bb7cc783c5aad8ffc9f0e2d3d947a5b9a5ad3852ede4955bff3e733e",
    "9e873e0837c24293afee71112c56418afda6a2d666e2d155bc52037f653250ee",
    "bb0d42e73bac4f7b1837c0eabcb6f098c5bbd9e31715d067b4c123010d1a3672",
    "e3f46394b1808e500c3ba3e562926638d10549966e3b9fc2df6d0b419b0e34e6",
    "445b033aa07ead6b8d09da8217d6a17c38156bae7df6f03a225c0b3e9f3b0677",
    "909bd1715ae7462a44f1abf91963d4788ffeaff6e02283fd191be7a14eb264b4",
    "d239d4cf1d8c2b222eb002a4f6e8cdd5e65f8297cc013b20d76b7d6ecb8fec17",
)

# sha256 of the aut file that _write_auts writes beside that catalog for
# h = 1..9: aut(H) of each class in catalog order, one decimal per line,
# recorded from core.aut_size over each pinned catalog, not from the searches
# of enumeration.  An aut file is read back only if it has this digest.
_AUT_SHA256 = (
    "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "8391e9ff91c3c6402f9596a8c9e82d4ceaa7815687f5854f7e1a23b194be4968",
    "298d85a1e3333533958e1b569496b2f005b775cbd4aa57463b4fa8d1fa601df7",
    "77091771a8a3f5f8716ab5cf7ea2e6834c144975bc5e51fb4db55f91056240c4",
    "0c95d21d5fa5715308385dd81ac066f54228286eb5a4cc18ef26f07c0b1e51eb",
    "37cfa09bdb00bc7a13d837224dbf9b713fc2246949112546ecd111c1c723e96b",
    "d4584f7e921a3e511585273cf49f9803f6a0755f3e535f67f2974d7800ef26db",
    "fd2fe80730ed9e3a2898f01dd79ff2d574e7ae41b01c7891549cf0c205e9be16",
)


class Unsupported(ValueError):
    """Enumeration requested beyond the supported vertex range."""


class CorruptCacheWarning(UserWarning):
    """A cache file was present but malformed; it will be regenerated."""


@dataclass(frozen=True)
class TournamentCatalog:
    """All isomorphism classes on h vertices, each item in canonical form,
    sorted by canon bit sequence, and aut(H) of each item in item order.

    Built by hand without ``auts``, the catalog runs one canonical search per
    item for them, and raises ValueError for an item not in canonical form."""

    h: int
    items: tuple[Tournament, ...]
    auts: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.auts is None:
            auts = []
            for t in self.items:
                code, aut = _canon_search(self.h, t.out_masks)
                if code != int("0" + t.bits, 2):
                    raise ValueError(f"catalog item {t.bits} is not in canonical form")
                auts.append(aut)
            object.__setattr__(self, "auts", tuple(auts))
        elif len(self.auts) != len(self.items):
            raise ValueError(f"{len(self.auts)} aut counts for {len(self.items)} items")

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


# The largest process pool this process started, reported by `tourlab --stats`.
_peak_workers = 1


def _pool_size(threads: int) -> int:
    """Workers for a ``threads`` request: at most one per CPU, since output
    never depends on the count and more processes would only contend."""
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    return min(threads, os.cpu_count() or 1)


def _process_pool(workers: int):
    """A ProcessPoolExecutor of ``workers`` processes.  Imported here, not at
    module level: only a multi-worker run needs multiprocessing."""
    global _peak_workers
    from concurrent.futures import ProcessPoolExecutor
    _peak_workers = max(_peak_workers, workers)
    return ProcessPoolExecutor(max_workers=workers)


def _extend_all(h: int, parents: list[str]) -> tuple[dict[int, int], int]:
    """Extend (h-1)-vertex canonical forms by one vertex and return the
    canon ints reached, each mapped to the aut its search found (aut is a
    class invariant, so every search that reaches the class agrees), with
    the number of canonical searches run.

    A vertex's key is its score (out-degree) and then s2, the sum of the
    scores of its out-neighbours: s2 = C(score, 2) + the 3-cycles through
    the vertex, so the key is an invariant of the vertex in its class.
    Only patterns that give the new vertex the least key of the child are
    searched.  That loses no class: a class C with a least-key vertex v is
    reached from the parent isomorphic to C - v with v's pattern, and there
    the new vertex has the least key.

    Pattern bit v is 1 when parent vertex v beats the new vertex, whose
    score is then d = h-1-popcount(pattern).  A parent vertex of score
    below d-1 cannot reach d, so d is at most the least parent score plus
    one; the parent vertices of score d-1 (``must[d]``) must beat the new
    vertex, and with the parent vertices of score d (``eq[d]``) that it
    beats they tie its score.  Every s2 comes from the parent: the new vertex's is the
    parent score sum over ~pattern, as the vertices it beats keep their
    scores; a tied vertex u's is ``nsum[u]``, its out-neighbours' parent
    score sum, plus those of them that beat the new vertex, plus d if u
    beats it too.
    """
    found: dict[int, int] = {}
    searched = 0
    full_old = (1 << (h - 1)) - 1
    for bits in parents:
        parent = Tournament(h - 1, bits).out_masks
        scores = [mask.bit_count() for mask in parent]
        top = min(scores) + 1
        must, eq = [0] * h, [0] * h
        taken = [0]  # [mask]: the parent score sum over the vertices in mask
        for v, score in enumerate(scores):
            must[score + 1] |= 1 << v
            eq[score] |= 1 << v
            taken += [total + score for total in taken]
        nsum = [taken[mask] for mask in parent]
        for pattern in range(1 << (h - 1)):
            d = h - 1 - pattern.bit_count()
            if d > top or pattern & must[d] != must[d]:
                continue
            s2 = taken[~pattern & full_old]
            ties = must[d] | (eq[d] & ~pattern)
            if any(nsum[u] + (parent[u] & pattern).bit_count() + d * (pattern >> u & 1) < s2
                   for u in _VERTICES[ties]):
                continue
            masks = [
                parent[v] | (((pattern >> v) & 1) << (h - 1)) for v in range(h - 1)
            ]
            masks.append(~pattern & full_old)
            code, aut = _canon_search(h, tuple(masks))
            found[code] = aut
            searched += 1
    return found, searched


def _check_range(h: int) -> None:
    if h < 1:
        raise ValueError(f"enumeration needs h >= 1, got {h}")
    if h > len(_CATALOG_SHA256):
        # scaled, one thread of a 2-vCPU host: 2000 random h=9 parents extended
        # in 6.5-6.8 s (10.4-10.9 min for all 191,536); the subset DP took 0.73 ms
        # a sampled h=10 class (2.0 hours for 9,733,056); all but 17 MB of the
        # 124 MB peak of classifying h=9 (catalog, masks, DP memo) grows 50.8x
        cost = (": its 9,733,056 classes would take an estimated 11 minutes to "
                "enumerate, and about 2 hours and some 6 GB of memory to classify, "
                "on one thread (scaled from samples)") if h == 10 else ""
        raise Unsupported(f"enumeration supports 1 <= h <= 9, got {h}{cost}")


def enumerate_tournaments(
    h: int,
    threads: int = 1,
    progress: Callable[[str], None] | None = None,
) -> TournamentCatalog:
    """Complete catalog of tournaments on h vertices up to isomorphism.

    Deterministic order (sorted canonical bit sequences) regardless of
    ``threads``; parents are partitioned across min(threads, CPUs) worker
    processes and the results merged.  ``progress`` receives one status
    line per level.
    """
    _check_range(h)
    workers = _pool_size(threads)
    found = {0: 1}  # the one 1-vertex class
    for k in range(2, h + 1):
        level = [_bits(value, pair_count(k - 1)) for value in sorted(found)]
        if workers > 1 and len(level) >= 4 * workers:
            chunks = [level[i::workers] for i in range(workers)]
            found, searched = {}, 0
            with _process_pool(workers) as pool:
                for part, count in pool.map(_extend_all, [k] * workers, chunks):
                    found.update(part)
                    searched += count
            core._canon_searches += searched  # run in the workers, counted here
        else:
            found, searched = _extend_all(k, level)
        if progress is not None:
            progress(f"level h={k}: {len(found)} classes, {searched} of "
                     f"{len(level) << (k - 1)} extensions searched")
    codes = sorted(found)
    items = tuple(Tournament(h, _bits(value, pair_count(h))) for value in codes)
    return TournamentCatalog(h, items, tuple(found[value] for value in codes))


def cache_path(h: int, cache_dir: Path | str) -> Path:
    return Path(cache_dir) / f"tournaments_h{h}.txt"


def _cached_text(path: Path, digest: str, claim: str) -> str | None:
    """The text of the cache file ``path`` if its sha256 is ``digest``; None
    if the file is missing, and None with a CorruptCacheWarning stating
    ``claim`` if it differs."""
    if not path.exists():
        return None
    import hashlib  # here, not at module level: only a cache read needs OpenSSL
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() == digest:
        return data.decode()
    warnings.warn(f"regenerating corrupt cache: {claim}: its sha256 differs from the "
                  f"pinned file", CorruptCacheWarning)
    return None


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """A text stream to a temporary file beside ``path`` that replaces
    ``path`` when the block ends without error, so that no reader ever sees
    a partial file; the temporary file never outlives the block."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as stream:
            yield stream
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_cache(path: Path, catalog: TournamentCatalog) -> None:
    """Write an 'h=<h>' header and one canon per line, atomically."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"h={catalog.h}"] + [t.bits for t in catalog.items]
    with _replacing(path) as stream:
        stream.write("\n".join(lines) + "\n")


def _write_auts(path: Path, catalog: TournamentCatalog) -> None:
    """Write aut(H) of each item, one decimal per line, atomically."""
    with _replacing(path) as stream:
        stream.write("".join(f"{aut}\n" for aut in catalog.auts))


def _read_tournaments(path: Path, h: int | None, text: str | None = None) -> list[Tournament]:
    """The tournaments of a file in _write_cache's format, or one written by
    hand: an optional 'h=<k>' header, which overrides h, then one bit string
    per line.  For h >= 2 blank lines are skipped; for h = 1 every line is
    the one-vertex tournament, whose bit string is empty.  ``text`` is the
    file's contents when the caller has read them already."""
    lines = (path.read_text() if text is None else text).splitlines()
    head = next((line for line in lines if line.strip()), "")
    if head.startswith("h="):
        h = int(head[2:])
        lines = lines[lines.index(head) + 1 :]
    if h is None:
        raise ValueError(f"{path} has no 'h=<k>' header; pass --h")
    return [parse(line, h) for line in lines if h == 1 or line.strip()]


def load_or_enumerate(
    h: int,
    cache_dir: Path | str,
    threads: int = 1,
    progress: Callable[[str], None] | None = None,
) -> TournamentCatalog:
    """The catalog from cache on a hit, running no canonical search: a hit
    is the catalog file and its aut file, each byte-identical to its pinned
    file.  Anything else is a miss, which enumerates on ``threads`` workers
    and writes both files; a file that is present but not pinned is reported
    with a CorruptCacheWarning."""
    _check_range(h)
    path = cache_path(h, cache_dir)
    aut_path = path.with_suffix(".aut")
    text = _cached_text(path, _CATALOG_SHA256[h - 1], f"catalog in {path} is not canonical")
    auts = _cached_text(aut_path, _AUT_SHA256[h - 1],
                        f"aut counts in {aut_path} are not those of the h={h} catalog")
    if text is not None and auts is not None:
        return TournamentCatalog(h, tuple(_read_tournaments(path, h, text)),
                                 tuple(map(int, auts.split())))
    catalog = enumerate_tournaments(h, threads=threads, progress=progress)
    _write_cache(path, catalog)
    # the aut file only saves an enumeration: an unwritable one costs the
    # next run the same enumeration, and no error
    with suppress(OSError):
        _write_auts(aut_path, catalog)
    return catalog
