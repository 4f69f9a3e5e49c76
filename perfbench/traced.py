"""Run one tourlab command in-process with its public functions traced.

    python3 perfbench/traced.py --spans OUT.json --command NAME -- <tourlab arguments>

Before calling ``tourlab.cli.main(argv)``, every function listed in a
module's ``__all__`` is replaced, in every tourlab namespace that binds it,
by a wrapper that records a span: name, parent span, start and end.  So are
``BigTournament.save`` and ``BigTournament.load``.  The pair-index helpers
are left alone: they are O(1) arithmetic run on every Tournament
construction, so their spans would time little but the wrapper.

Spans stay in memory and are written to OUT.json, with the hit and miss
counts of the canonical-form caches, when the command returns.  Pool
workers are separate processes and are not traced, so traced commands
should run with ``--threads 1``.

Exits with the command's own exit code.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from functools import wraps
from time import perf_counter

import tourlab
from tourlab import bias, cli, construct, core, density, enumeration, fas

LAYERS = (core, enumeration, bias, fas, construct, density, cli)
UNTRACED = {"pair_count", "pair_index"}


def _mc_samples(call) -> int:
    return call.arguments["samples"] if call.arguments["mode"] == "montecarlo" else 0


# Work done by one call, recorded on its span: (args bound to the signature,
# return value) -> count.
WORK = {
    "enumeration.enumerate_tournaments": lambda call, result: len(result),
    "bias.classify_catalog": lambda call, result: len(result),
    "density.density_census": lambda call, result: sum(result.values()),
    "density.dominance_report": lambda call, result: _mc_samples(call),
}


class Tracer:
    """In-memory span recorder.  A span is [parent, name index, start, end,
    work]; its id is its position in ``spans``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list | None] = []
        self.stack: list[int] = []

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        @wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self.stack.pop()
                count = 0
                if work is not None and result is not None:
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    count = work(call, result)
                self.spans[span_id] = [parent, name_id, start, end, count]

        return traced

    def install(self) -> None:
        wrapped = {}
        for module in LAYERS:
            layer = module.__name__.rsplit(".", 1)[1]
            for name in module.__all__:
                fn = getattr(module, name)
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and name not in UNTRACED):
                    wrapped[fn] = self.wrap(fn, f"{layer}.{name}")
        for namespace in (tourlab, *LAYERS):
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(namespace, attr, wrapped[value])
        big = construct.BigTournament
        big.save = self.wrap(big.save, "construct.BigTournament.save")
        big.load = classmethod(self.wrap(big.load.__func__, "construct.BigTournament.load"))


def _cache_counts(fn) -> list[int]:
    """[hits, misses] of an lru_cache, or zeros if the program no longer has it."""
    info = getattr(fn, "cache_info", None)
    if info is None:
        return [0, 0]
    stats = info()
    return [stats.hits, stats.misses]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="JSON file to write")
    parser.add_argument("--command", required=True, help="command id stored with the spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        record = {
            "command": args.command,
            "names": tracer.names,
            "spans": tracer.spans,
            "caches": {
                "core.canon_cache": _cache_counts(getattr(core, "_canonical_data", None)),
                "density.pattern_canon": _cache_counts(getattr(density, "_pattern_canon", None)),
            },
        }
        with open(args.spans, "w") as out:
            json.dump(record, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
