"""Run one ``peca`` command in-process with a timing span around every public function.

Usage: python bench/tracer.py SPANS.json <peca arguments...>

Wrappers are installed from outside the package: for each layer module, every
function named in its ``__all__`` is wrapped, and the wrapper replaces the
function in every ``peca`` module that binds it, so calls that cross modules
(``cli`` calling ``compute_tcp``) and calls inside one module
(``null_nll_replicates`` calling ``permute_events``) are both timed.  For
``cli`` only ``main`` is wrapped, so its self time is argument parsing,
report assembly and the JSON dump.  Spans stay in memory and are written once,
after ``main`` returns: ``{"names": [...], "spans": [[name, start, end, parent], ...]}``
with ``name`` an index into ``names`` and ``parent`` a span index or -1.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "ingest", "series", "nulls", "multi", "adjust", "qtr", "sim")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"peca.{layer}") for layer in LAYERS}
        binders = [importlib.import_module("peca"), *modules.values()]
        for layer, mod in modules.items():
            public = ("main",) if layer == "cli" else getattr(mod, "__all__", ())
            for fname in public:
                fn = getattr(mod, fname, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{fname}", fn)
                for binder in binders:
                    for attr in [a for a, v in vars(binder).items() if v is fn]:
                        setattr(binder, attr, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import peca.cli

    try:
        return peca.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
