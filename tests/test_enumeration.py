from __future__ import annotations

import concurrent.futures
import hashlib
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

from tourlab import core, enumeration
from tourlab.core import (
    Tournament,
    _canonical,
    aut_size,
    canonical_form,
    pair_count,
    pair_index,
)
from tourlab.enumeration import (
    _AUT_SHA256,
    _CATALOG_SHA256,
    CorruptCacheWarning,
    TournamentCatalog,
    Unsupported,
    _extend_all,
    _read_tournaments,
    _write_auts,
    _write_cache,
    cache_path,
    enumerate_tournaments,
    load_or_enumerate,
)

import oracles

KNOWN_COUNTS = {3: 2, 4: 4, 5: 12, 6: 56, 7: 456, 8: 6880}


@pytest.fixture
def catalog_at(request, catalogs):
    """The catalog on h vertices, h=1..8 (h=8 from its own session fixture)."""
    return lambda h: request.getfixturevalue("catalog8") if h == 8 else catalogs[h]


@pytest.mark.parametrize("h,count", sorted(KNOWN_COUNTS.items()))
def test_class_counts(catalog_at, h, count):
    assert len(catalog_at(h)) == count


@pytest.mark.parametrize("h", [1, 2])
def test_degenerate_sizes(catalogs, h):
    assert len(catalogs[h]) == 1


@pytest.mark.parametrize("h", [3, 4])
def test_completeness_against_all_labeled(catalogs, h):
    canons = {canonical_form(t).bits for t in oracles.all_labeled(h)}
    assert canons == {t.bits for t in catalogs[h]}


@pytest.mark.parametrize("h", [3, 4, 5])
def test_catalog_matches_brute_canonical(catalogs, h):
    canons = {oracles.brute_canonical(t) for t in oracles.all_labeled(h)}
    assert [t.bits for t in catalogs[h]] == sorted(canons)


def _extension(parent: Tournament, pattern: int) -> Tournament:
    """parent plus a new last vertex; pattern bit v set means v beats it."""
    h = parent.h + 1
    bits = ["0"] * pair_count(h)
    for u in range(parent.h):
        for v in range(u + 1, parent.h):
            bits[pair_index(u, v, h)] = str(parent.edge_bit(u, v))
        bits[pair_index(u, parent.h, h)] = str((pattern >> u) & 1)
    return Tournament(h, "".join(bits))


@pytest.mark.parametrize("h", range(3, 8))
def test_extend_all_reaches_every_extension_class(catalogs, h):
    # every class reached, each with its aut
    parents = catalogs[h - 1]
    every = {
        int(form.bits, 2): aut
        for parent in parents
        for pattern in range(1 << (h - 1))
        for form, aut in [_canonical(_extension(parent, pattern))]
    }
    found, searched = _extend_all(h, [t.bits for t in parents])
    assert found == every
    assert len(every) <= searched < len(parents) << (h - 1)


# canonical searches of each level, h=2..7: one per extension whose new
# vertex has the least (score, 3-cycles through it) of the child
SEARCHED = {2: 1, 3: 2, 4: 6, 5: 14, 6: 81, 7: 573}


def _has_least_key(t: Tournament, v: int) -> bool:
    """Whether no vertex of t has a smaller (score, 3-cycles through it) than v."""
    out = t.out_masks
    keys = [
        (out[u].bit_count(),
         sum(out[u] >> a & out[a] >> b & out[b] >> u & 1 for a in range(t.h) for b in range(t.h)))
        for u in range(t.h)
    ]
    return keys[v] == min(keys)


@pytest.mark.parametrize("h", range(2, 8))
def test_extend_all_searches_the_least_key_extensions(catalogs, h):
    parents = catalogs[h - 1]
    least = sum(
        _has_least_key(_extension(parent, pattern), h - 1)
        for parent in parents
        for pattern in range(1 << (h - 1))
    )
    _, searched = _extend_all(h, [t.bits for t in parents])
    assert searched == least == SEARCHED[h]


@pytest.mark.parametrize("h", range(3, 9))
def test_labeled_mass_identity(catalog_at, h):
    mass = sum(factorial(h) // aut_size(t) for t in catalog_at(h))
    assert mass == 1 << pair_count(h)


@pytest.mark.parametrize("h", range(1, 9))
def test_labeled_mass_of_recorded_auts(catalog_at, h):
    assert sum(factorial(h) // aut for aut in catalog_at(h).auts) == 1 << pair_count(h)


def test_hand_built_catalog_rejects_wrong_aut_count(catalogs):
    with pytest.raises(ValueError, match="3 aut counts for 4 items"):
        TournamentCatalog(4, catalogs[4].codes, (1, 1, 1))


def test_items_canonical_sorted_distinct(catalogs):
    for h in range(3, 8):
        bits = [t.bits for t in catalogs[h]]
        assert bits == sorted(bits)
        assert len(set(bits)) == len(bits)
        for t in catalogs[h]:
            assert canonical_form(t).bits == t.bits


def test_unsupported_range():
    with pytest.raises(Unsupported):
        enumerate_tournaments(11)
    with pytest.raises(Unsupported, match="hours"):
        enumerate_tournaments(10)
    with pytest.raises(ValueError, match="h >= 1") as below:  # a bad argument, not a guard
        enumerate_tournaments(0)
    assert not isinstance(below.value, Unsupported)


def test_deterministic_across_runs_and_threads():
    single = enumerate_tournaments(6)
    again = enumerate_tournaments(6)
    parallel = enumerate_tournaments(6, threads=2)
    assert single == again == parallel
    assert parallel.auts == single.auts  # merged from the workers' searches


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers: int) -> None:
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None

    def map(self, fn, *iterables, chunksize: int = 1):
        return map(fn, *iterables)


def test_pool_size_is_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(enumeration, "_peak_workers", 1)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    catalog = enumerate_tournaments(6, threads=64)
    assert catalog == enumerate_tournaments(6)
    assert _InlinePool.sizes and set(_InlinePool.sizes) == {2}
    assert enumeration._peak_workers == 2


@pytest.mark.parametrize("threads", [0, -2])
def test_thread_counts_below_one_rejected(threads):
    with pytest.raises(ValueError, match="threads"):
        enumerate_tournaments(5, threads=threads)


class TestCache:
    def test_empty_dir_writes_file(self, tmp_path):
        catalog = load_or_enumerate(5, tmp_path)
        assert len(catalog) == 12
        path = cache_path(5, tmp_path)
        assert path.exists()
        assert path.read_text().splitlines()[0] == "h=5"

    @pytest.mark.parametrize("h", range(1, 7))
    def test_populated_dir_reads_back_identically(self, tmp_path, h):
        first = load_or_enumerate(h, tmp_path)
        before = cache_path(h, tmp_path).read_text()
        second = load_or_enumerate(h, tmp_path)
        assert first == second
        assert cache_path(h, tmp_path).read_text() == before

    def test_truncated_file_regenerates_with_warning(self, tmp_path):
        load_or_enumerate(4, tmp_path)
        path = cache_path(4, tmp_path)
        good = path.read_text()
        flipped = good[:-2] + "10"[int(good[-2])] + "\n"  # last orientation bit
        for bad in (good[:-4], flipped):
            path.write_text(bad)
            with pytest.warns(CorruptCacheWarning):
                catalog = load_or_enumerate(4, tmp_path)
            assert len(catalog) == 4
            assert path.read_text() == good
            assert load_or_enumerate(4, tmp_path) == catalog

    def test_cache_missing_lines_regenerates(self, tmp_path):
        load_or_enumerate(6, tmp_path)
        path = cache_path(6, tmp_path)
        path.write_text("\n".join(path.read_text().splitlines()[:20]) + "\n")
        with pytest.warns(CorruptCacheWarning):
            catalog = load_or_enumerate(6, tmp_path)
        assert len(catalog) == 56
        assert len(path.read_text().splitlines()) == 57

    def test_write_leaves_no_temporary_file(self, tmp_path):
        load_or_enumerate(4, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tournaments_h4.aut",
                                                              "tournaments_h4.txt"]

    def test_non_canonical_line_regenerates(self, tmp_path):
        # 010001 relabels 001000, so the body passes the count, sort and
        # uniqueness checks while listing one class twice and missing 001001.
        path = cache_path(4, tmp_path)
        path.write_text("h=4\n000000\n000010\n001000\n010001\n")
        with pytest.warns(CorruptCacheWarning, match="not canonical"):
            catalog = load_or_enumerate(4, tmp_path)
        assert [t.bits for t in catalog] == ["000000", "000010", "001000", "001001"]
        assert path.read_text() == "h=4\n000000\n000010\n001000\n001001\n"

    def test_bad_header_regenerates(self, tmp_path):
        path = cache_path(4, tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("h=5\n0000\n")
        with pytest.warns(CorruptCacheWarning):
            catalog = load_or_enumerate(4, tmp_path)
        assert len(catalog) == 4

    @pytest.mark.parametrize("h", range(1, 9))
    def test_pinned_digest_is_the_written_catalog(self, catalog_at, tmp_path, h):
        path = cache_path(h, tmp_path)
        _write_cache(path, catalog_at(h))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == _CATALOG_SHA256[h - 1], f"h={h} cache sha256 is {digest}"

    @pytest.mark.parametrize("h", range(1, 9))
    def test_aut_pin_is_the_oracle_file(self, catalog_at, tmp_path, h):
        # from brute force up to h=5 and from aut_size above, not from the
        # auts that enumeration records
        catalog = catalog_at(h)
        aut = oracles.brute_aut if h <= 5 else aut_size
        text = "".join(f"{aut(t)}\n" for t in catalog)
        assert hashlib.sha256(text.encode()).hexdigest() == _AUT_SHA256[h - 1]
        path = cache_path(h, tmp_path).with_suffix(".aut")
        _write_auts(path, catalog)
        assert path.read_text() == text

    def test_unwritable_aut_file_is_not_an_error(self, tmp_path, monkeypatch, recwarn):
        first = load_or_enumerate(5, tmp_path)
        path = cache_path(5, tmp_path).with_suffix(".aut")
        path.unlink()

        def refuse(*args):
            raise PermissionError("read-only cache directory")

        monkeypatch.setattr(enumeration, "_write_auts", refuse)
        assert load_or_enumerate(5, tmp_path) == first
        assert not path.exists() and not recwarn.list

    def test_flipped_aut_byte_regenerates_with_warning(self, tmp_path):
        first = load_or_enumerate(6, tmp_path)
        path = cache_path(6, tmp_path).with_suffix(".aut")
        pinned = path.read_bytes()
        assert pinned[:2] == b"1\n"  # the transitive class, first, has aut 1
        path.write_bytes(b"3" + pinned[1:])
        with pytest.warns(CorruptCacheWarning, match="aut counts .* not those of the h=6"):
            catalog = load_or_enumerate(6, tmp_path)
        assert catalog == first
        assert path.read_bytes() == pinned

    def test_warm_read_runs_no_canonical_search(self, catalog8, tmp_path, monkeypatch):
        _write_cache(cache_path(8, tmp_path), catalog8)
        _write_auts(cache_path(8, tmp_path).with_suffix(".aut"), catalog8)

        def search(*args):
            raise AssertionError("canonical search during a cache read")

        monkeypatch.setattr(core, "_canon_search", search)
        monkeypatch.setattr(enumeration, "_canon_search", search)
        assert load_or_enumerate(8, tmp_path) == catalog8

    def test_warm_read_builds_no_tournament(self, catalog8, tmp_path, monkeypatch):
        # the pinned digest vouches for every line, so a hit parses codes only
        _write_cache(cache_path(8, tmp_path), catalog8)
        _write_auts(cache_path(8, tmp_path).with_suffix(".aut"), catalog8)
        real, built = Tournament.__post_init__, []

        def counting(self):
            built.append(self.bits)
            real(self)

        monkeypatch.setattr(Tournament, "__post_init__", counting)
        catalog = load_or_enumerate(8, tmp_path)
        assert built == []
        assert catalog.codes == catalog8.codes and catalog.auts == catalog8.auts

    @pytest.mark.parametrize("h", range(1, 9))
    def test_items_are_the_written_file_read_back(self, catalog_at, tmp_path, h):
        path = cache_path(h, tmp_path)
        _write_cache(path, catalog_at(h))
        assert list(catalog_at(h).items) == _read_tournaments(path, None)

    def test_import_does_not_load_hashlib(self, tmp_path):
        # hashlib loads OpenSSL; only a cache read needs it
        path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        result = subprocess.run(
            [sys.executable, "-c", "import sys, tourlab; print('hashlib' in sys.modules)"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_catalog_is_immutable_value(self, tmp_path):
        catalog = load_or_enumerate(3, tmp_path)
        assert isinstance(catalog, TournamentCatalog)
        with pytest.raises(AttributeError):
            catalog.items = ()
