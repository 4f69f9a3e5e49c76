"""Command-line interface tying enumeration, classification, construction,
and density measurement together.

Commands: enumerate, bias-table, classify, fas-table, construct, density,
dominance-check.  Rationals cross the boundary as "a/b" strings; floats
appear only in columns whose names carry an _approx suffix or an explicit
stderr.  Every run logs its resolved configuration to stderr; stdout and
output files are deterministic given the configuration, including across
--threads settings.

Every table is written by _write_rows, one row at a time, as each class is
classified.  Every --out file, construct's graph file too, is written
through a temporary file beside it and appears only once it is whole;
stdout, in contrast, may hold the rows written before an error stopped the
command.  --pattern, --hstar and --family name 'T<k>', 'C3' or a file, read
by the catalog cache's reader; a size other than a given --h exits 2.

Exit codes: 0 success, 2 bad arguments, 3 resource guard tripped,
4 internal assertion.

--threads caps the worker processes of enumeration, the one stage they
pay for; classification runs in this process, record by record.  It reads
aut(H) from the catalog cache, so on a warm cache only a census above h=7
and a named --pattern run canonical searches.  Rows, and dominance-check's
members and margin, come from integer numerators: no command builds a
bias polynomial.  construct reads no catalog and takes no --allow-long or
--cache-dir; it keeps --threads, unread, as perfbench/run.py passes it.

--config names a JSON object of flags, keyed like the logged configuration.
The command line is parsed once to find it, as any flag is found (so the
last --config wins), then again with the file's flags placed before its
own, which win: true is a bare flag, false and null are left out, and an
unknown key or a bad value exits 2.

With --stats, one JSON line goes to stderr when the command ends, whether
it succeeds or fails: the wall time of each stage (import, graph, build,
catalog, classify, select, census, output), less the stages run inside it
(the table commands classify while they write, and dominance-check while
it selects the F(h,x) members), the largest worker pool this process
started, this process's own peak RSS, the canonical searches the command
ran (enumeration workers' included, so the count is the same at any
--threads), the subset-DP memo entries it computed in this process and
whether numpy was loaded.  stdout is the same with or without it.

Only the commands that read or build big tournaments (construct, density,
dominance-check) import the numpy layers, inside their handlers.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator

from . import core, enumeration, fas
from .bias import OddCoefficientResidue, _bias_terms, _check_x, _classified, _gain, _Record
from .core import PackingFailed, TooLarge, Tournament, cyclic3, transitive
from .enumeration import (
    TournamentCatalog,
    Unsupported,
    _read_tournaments,
    _replacing,
    _write_cache,
    load_or_enumerate,
)

__all__ = ["main"]

LONG_RUN_THRESHOLD = 9  # h >= this requires --allow-long
DEFAULT_CACHE = ".tourlab-cache"

_USER_ERRORS = (ValueError, OSError)
_MODES = {"exact": "exact", "mc": "montecarlo"}  # --mode -> census mode


class LongRunGuard(Exception):
    """A computation gated behind --allow-long was requested without it."""


_GUARD_ERRORS = (TooLarge, Unsupported, LongRunGuard)
_INTERNAL_ERRORS = (OddCoefficientResidue, AssertionError, PackingFailed)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational 'a/b': {text!r}") from exc


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _require(args, *names: str) -> None:
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"{args.command} needs {', '.join(missing)}")


def _cache_dir(args) -> Path:
    env = os.environ.get("TOURLAB_CACHE")
    return Path(env) if env else Path(args.cache_dir)


def _check_long(h: int, args) -> None:
    if h >= LONG_RUN_THRESHOLD and not args.allow_long:
        raise LongRunGuard(f"h={h} is a long computation; pass --allow-long to run it")


def _named_patterns(selector: str, h: int | None) -> list[Tournament]:
    """A built-in name ('T5', 'C3') or a tournament file; no catalog.  A file
    with no tournament line is an error, and so is an h other than the
    patterns' own size, from the name or an 'h=<k>' header."""
    if selector == "C3":
        patterns = [cyclic3()]
    elif selector.startswith("T") and selector[1:].isdigit():
        patterns = [transitive(int(selector[1:]))]
    else:
        patterns = _read_tournaments(Path(selector), h)
    if not patterns:
        raise ValueError(f"{selector} holds no tournament")
    if h is not None and patterns[0].h != h:
        raise ValueError(f"{selector} gives {patterns[0].h}-vertex tournaments, but --h is {h}")
    return patterns


def _write_rows(fieldnames: list[str], rows: Iterable[dict], fmt: str, out: str | None) -> None:
    """Uniform row dicts, from any iterable, as CSV or JSON, one row at a
    time, to the --out file, which appears only once all are written, or to
    stdout as they come: the bytes are those of the whole list rendered at
    once."""
    with (_replacing(Path(out)) if out else nullcontext(sys.stdout)) as stream:
        if fmt == "csv":
            writer = csv.DictWriter(stream, fieldnames=fieldnames, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
            return
        # json.dumps(rows, indent=2, sort_keys=True), one row at a time
        opening = "["
        for row in rows:
            stream.write(opening + "\n  "
                         + json.dumps(row, indent=2, sort_keys=True).replace("\n", "\n  "))
            opening = ","
        stream.write("[]\n" if opening == "[" else "\n]\n")


def _classification_rows(
    records: Iterable[_Record], with_fas_extras: bool
) -> tuple[list[str], Iterator[dict]]:
    names = ["h", "canon", "aut", "d_num", "d_den", "fas", "in_Bh", "coeffs"]
    if with_fas_extras:
        names += ["max_forward", "witness"]
    return names, (_classification_row(rec, with_fas_extras) for rec in records)


def _classification_row(rec: _Record, with_fas_extras: bool) -> dict:
    """One table row from an integer record: the terms of its bias
    polynomial, whose constant is the typical density."""
    terms = _bias_terms(rec.h, rec.aut, rec.nums)
    _, d_num, d_den = terms[0]
    row = dict(
        h=rec.h,
        canon=rec.bits,
        aut=rec.aut,
        d_num=d_num,
        d_den=d_den,
        fas=rec.fas.a,
        in_Bh=int(rec.in_Bh),
        coeffs=" ".join(f"{e}:{n}/{d}" for e, n, d in terms),
    )
    if with_fas_extras:
        row["max_forward"] = rec.fas.max_forward
        row["witness"] = " ".join(str(v + 1) for v in rec.fas.witness_order)
    return row


def _density_rows(reports) -> tuple[list[str], list[dict]]:
    exact = all(r.mode == "exact" for r in reports)
    names = ["pattern_canon", "n", "mode", "samples"]
    names += ["estimate_num", "estimate_den"] if exact else ["estimate", "stderr"]
    names += ["typical_num", "typical_den", "ratio_approx", "margin"]
    rows = []
    for r in reports:
        row = dict(
            pattern_canon=r.pattern.bits,
            n=r.n,
            mode=r.mode,
            samples="" if r.samples is None else r.samples,
            typical_num=r.typical.numerator,
            typical_den=r.typical.denominator,
            ratio_approx=repr(float(r.ratio)),
        )
        if r.mode == "exact":
            row["estimate_num"] = r.estimate.numerator
            row["estimate_den"] = r.estimate.denominator
            row["margin"] = "" if r.margin is None else _frac_str(r.margin)
        else:
            row["estimate"] = repr(r.estimate)
            row["stderr"] = repr(r.stderr)
            row["margin"] = "" if r.margin is None else repr(r.margin)
        rows.append(row)
    return names, rows


def _log_config(args) -> None:
    config = {
        key: (_frac_str(value) if isinstance(value, Fraction) else value)
        for key, value in sorted(vars(args).items())
        if key != "func" and value is not None
    }
    print(f"config: {json.dumps(config, sort_keys=True)}", file=sys.stderr)


def _progress_logger(line: str) -> None:
    """Progress and work-count lines go to stderr; stdout carries results only."""
    print(line, file=sys.stderr)


class RunStats:
    """Wall time per stage of one command, for the --stats line."""

    def __init__(self) -> None:
        self.start = perf_counter()
        self.searches = core._canon_searches
        self.dp_entries = fas._dp_entries
        self.stages: dict[str, float] = {}
        self._nested: list[float] = []  # per open stage: time of the stages inside it

    @contextmanager
    def stage(self, name: str):
        """Time the block as stage ``name``, less the stages run inside it."""
        start = perf_counter()
        self._nested.append(0.0)
        try:
            yield
        finally:
            spent = perf_counter() - start
            self.stages[name] = self.stages.get(name, 0.0) + spent - self._nested.pop()
            if self._nested:
                self._nested[-1] += spent

    def timed(self, name: str, items: Iterable) -> Iterator:
        """The items, the time spent producing each counted as stage ``name``."""
        items = iter(items)
        while True:
            with self.stage(name):
                try:
                    item = next(items)
                except StopIteration:
                    return
            yield item

    def line(self, command: str, code: int | None) -> str:
        """One JSON object; ``exit`` is null when an uncaught exception ended
        the command."""
        return json.dumps({
            "command": command,
            "exit": code,
            "total_s": round(perf_counter() - self.start, 6),
            "stages_s": {name: round(t, 6) for name, t in self.stages.items()},
            "workers": enumeration._peak_workers,
            "peak_rss_mb": _peak_rss_mb(),
            "canon_searches": core._canon_searches - self.searches,
            "dp_entries": fas._dp_entries - self.dp_entries,
            "loaded": {"numpy": "numpy" in sys.modules},
        }, sort_keys=True)


def _peak_rss_mb() -> float:
    """This process's own peak RSS: VmHWM on Linux.  Elsewhere ru_maxrss,
    which on some systems starts at the peak of the spawning process."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024, 1)  # kB
    except OSError:
        pass
    import resource  # here, not at module level: only --stats reads it
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(rss / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)


def _catalog(args, stats: RunStats, host=None) -> TournamentCatalog:
    """The --h catalog, read from the cache or enumerated on --threads
    workers.  Given the host graph of a census, the census request is
    checked first, so a bad one exits before any catalog work."""
    _require(args, "h")
    _check_long(args.h, args)
    if host is not None:
        from .density import _census_total
        _census_total(host.n, args.h, _MODES[args.mode], args.samples, args.seed)
    with stats.stage("catalog"):
        return load_or_enumerate(
            args.h, _cache_dir(args), threads=args.threads, progress=_progress_logger
        )


def _records(args, stats: RunStats, host=None) -> Iterator[_Record]:
    """One integer classification record per class of the --h catalog, in
    catalog order, as each is classified; the catalog is read before this
    returns."""
    catalog = _catalog(args, stats, host)
    return stats.timed("classify", _classified(catalog, progress=_progress_logger))


def _cmd_enumerate(args, stats: RunStats) -> int:
    catalog = _catalog(args, stats)
    if args.out:
        with stats.stage("output"):
            _write_cache(Path(args.out), catalog)
    print(f"h={args.h} classes={len(catalog)}")
    return 0


def _cmd_table(args, stats: RunStats) -> int:
    """bias-table, and fas-table with the max_forward and witness columns."""
    names, rows = _classification_rows(_records(args, stats),
                                       with_fas_extras=args.command == "fas-table")
    with stats.stage("output"):
        _write_rows(names, rows, args.format, args.out)
    return 0


def _cmd_classify(args, stats: RunStats) -> int:
    total = hits = 0
    for record in _records(args, stats):
        total += 1
        hits += record.in_Bh
    print(f"h={args.h} |T_h|={total} |B_h|={hits} ratio_approx={hits / total!r}")
    return 0


def _cmd_construct(args, stats: RunStats) -> int:
    _require(args, "kind", "n", "seed", "out")
    with stats.stage("import"):
        from .construct import build_blowup, build_tnp, build_transversal
    with stats.stage("build"):
        if args.kind == "tnp":
            _require(args, "p")
            g = build_tnp(args.n, args.p, args.seed)
        elif args.kind == "transversal":
            _require(args, "h", "hstar")
            if args.hstar == "all":
                raise ValueError("--hstar takes one tournament ('T<k>', 'C3' or a file), not 'all'")
            patterns = _named_patterns(args.hstar, None)
            if len(patterns) != 1:
                raise ValueError("--hstar must resolve to exactly one tournament")
            g = build_transversal(args.n, args.h, patterns[0], args.seed)
        else:
            _require(args, "family")
            g = build_blowup(_named_patterns(args.family, args.h), args.n, args.seed)
    with stats.stage("output"):
        g.save(args.out)
    print(f"kind={args.kind} n={g.n} out={args.out}")
    return 0


def _host(args, stats: RunStats):
    """The --graph tournament of density and dominance-check."""
    with stats.stage("import"):
        from .construct import BigTournament
    with stats.stage("graph"):
        return BigTournament.load(args.graph)


def _census(args, stats: RunStats, g, classes: list, beta: Fraction) -> list:
    """Measure the (canonical form, aut) classes in g by --mode and write
    the report rows."""
    from .density import _reports
    with stats.stage("census"):
        reports = _reports(classes, g, beta, _MODES[args.mode], args.samples, args.seed)
    with stats.stage("output"):
        _write_rows(*_density_rows(reports), args.format, args.out)
    return reports


def _cmd_density(args, stats: RunStats) -> int:
    _require(args, "graph", "pattern")
    g = _host(args, stats)
    if args.pattern == "all":
        if args.h is None:
            raise ValueError("pattern 'all' needs --h")
        catalog = _catalog(args, stats, host=g)
        classes = [(core.CanonicalForm(t.h, t.bits), aut)
                   for t, aut in zip(catalog.items, catalog.auts)]
    else:
        classes = [core._canonical(t) for t in _named_patterns(args.pattern, args.h)]
    _census(args, stats, g, classes, args.beta or Fraction(0))
    return 0


def _cmd_dominance_check(args, stats: RunStats) -> int:
    _require(args, "graph", "h", "x")
    x = _check_x(args.x)
    g = _host(args, stats)
    records = _records(args, stats, host=g)
    with stats.stage("select"):  # each F(h,x) member's B(H,x)/d(H) - 1, by (form, aut)
        gains = {(core.CanonicalForm(rec.h, rec.bits), rec.aut): gain for rec in records
                 if (gain := _gain(rec.nums, x)) > 0}
        beta = min(gains.values()) / 2 if gains and args.beta is None else args.beta
    if not gains:
        print(f"h={args.h} x={_frac_str(x)} family=0 satisfied=0")
        return 0
    reports = _census(args, stats, g, list(gains), beta)
    satisfied = sum(1 for r in reports if r.margin is not None and r.margin > 0)
    print(
        f"h={args.h} x={_frac_str(x)} beta={_frac_str(beta)} "
        f"family={len(gains)} satisfied={satisfied}"
    )
    return 0


def _add_common(sub, catalog: bool = True) -> None:
    sub.add_argument("--threads", type=int, default=1,
                     help="worker cap for enumeration")
    sub.add_argument("--config", default=None,
                     help="JSON file of argument defaults")
    sub.add_argument("--stats", action="store_true",
                     help="write one JSON line of run statistics to stderr at exit")
    if catalog:
        sub.add_argument("--allow-long", action="store_true",
                         help="permit h>=9 computations")
        sub.add_argument("--cache-dir", default=DEFAULT_CACHE,
                         help="catalog cache directory (env TOURLAB_CACHE overrides)")


def _add_census(sub) -> None:
    """The host, census and output flags of density and dominance-check,
    then the common flags."""
    sub.add_argument("--graph")
    sub.add_argument("--mode", choices=("exact", "mc"), default="exact")
    sub.add_argument("--samples", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None)
    _add_common(sub)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tourlab", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("enumerate", help="catalog all h-vertex tournaments")
    p.add_argument("--h", type=int)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    for name in ("bias-table", "fas-table"):
        p = commands.add_parser(name, help=f"emit the {name} for the h-catalog")
        p.add_argument("--h", type=int)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        _add_common(p)
        p.set_defaults(func=_cmd_table)

    p = commands.add_parser("classify", help="summary line |T_h|, |B_h|, ratio")
    p.add_argument("--h", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = commands.add_parser("construct", help="build and save a big tournament")
    p.add_argument("--kind", choices=("tnp", "transversal", "blowup"))
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=_fraction, default=None, help="edge probability 'a/b' (tnp)")
    p.add_argument("--h", type=int, default=None,
                   help="part count (transversal) / pattern size (blowup)")
    p.add_argument("--hstar", default=None, help="pattern name or file (transversal)")
    p.add_argument("--family", default=None, help="'T<k>', 'C3' or a file (blowup)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    _add_common(p, catalog=False)
    p.set_defaults(func=_cmd_construct)

    p = commands.add_parser("density", help="measure pattern densities in a graph file")
    p.add_argument("--pattern", help="'T<h>', 'C3', 'all', or a file")
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--beta", type=_fraction, default=None)
    _add_census(p)
    p.set_defaults(func=_cmd_density)

    p = commands.add_parser(
        "dominance-check", help="measure the F(h,x) family against a graph file")
    p.add_argument("--h", type=int)
    p.add_argument("--x", type=_fraction)
    p.add_argument("--beta", type=_fraction, default=None,
                   help="margin factor; default: half the exact bias margin")
    _add_census(p)
    p.set_defaults(func=_cmd_dominance_check)

    return parser


def _config_flags(path: str) -> list[str]:
    """A --config JSON object as flags; the command and config entries of a
    logged configuration are skipped."""
    entries = json.loads(Path(path).read_text())
    if not isinstance(entries, dict):
        raise ValueError("expected a JSON object")
    flags = []
    for key, value in entries.items():
        if key in ("command", "config") or value is False or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        flags.append(flag if value is True else f"{flag}={value}")
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            # after the command name and before the user's flags, which win
            argv[1:1] = _config_flags(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 2
        args = parser.parse_args(argv)
    _log_config(args)
    stats = RunStats()
    code = None
    try:
        code = _run(args, stats)
        return code
    finally:
        if args.stats:
            print(stats.line(args.command, code), file=sys.stderr)


def _run(args, stats: RunStats) -> int:
    """The command's exit code: errors map to 2 (arguments), 3 (guards), 4
    (internal)."""
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args, stats)
    except _GUARD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
