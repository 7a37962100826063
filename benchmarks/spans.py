"""In-memory spans around calls into the package's modules, and self times.

A span is ``(id, parent, name, layer, start, end)``.  Spans nest by a
stack, so a span's parent is the span open when it began.  Spans are kept
in a list and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "dataset", "powerlaw", "gof", "altmodels", "ingest",
          "scaling", "documents", "report")

# Called once per ingested record from cli's own code; a span per call
# would cost more than the function.  Its time stays in the cli span.
UNWRAPPED = frozenset({"normalize_journal"})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  name, layer, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)
        return traced

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.spans if s[2] == name]

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "layer", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for sid, parent, _name, _layer, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, _layer, start, end in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[sid]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def self_by(spans, key) -> dict[str, float]:
    """Sum self times over spans grouped by ``key(span)``."""
    own = self_times(spans)
    totals = defaultdict(float)
    for span in spans:
        totals[key(span)] += own[span[0]]
    return dict(totals)


def instrument_cli(cli, tracer: Tracer):
    """Wrap every package function `heavytails.cli` binds, and the
    `documents` module it calls through, with span recorders.

    Returns a callable that restores the originals.
    """
    saved = {}
    for name, obj in list(vars(cli).items()):
        module = getattr(obj, "__module__", "") or ""
        if (inspect.isfunction(obj) and module.startswith("heavytails.")
                and module != cli.__name__ and name not in UNWRAPPED):
            layer = module.rsplit(".", 1)[1]
            saved[name] = obj
            setattr(cli, name, tracer.wrap(obj, f"{layer}.{name}", layer))
    documents = cli.documents
    saved["documents"] = documents
    cli.documents = types.SimpleNamespace(**{
        name: (tracer.wrap(getattr(documents, name), f"documents.{name}",
                           "documents")
               if callable(getattr(documents, name))
               else getattr(documents, name))
        for name in documents.__all__})

    def restore():
        for name, obj in saved.items():
            setattr(cli, name, obj)
    return restore
