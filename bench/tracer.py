"""Span tracing of weighsim from outside the package.

`Tracer.install()` replaces each public function listed in `TRACED` with a
wrapper that records one span per call: a name, a start and an end
(`time.perf_counter_ns`) and the index of the enclosing span. Because
`from .x import y` copies a function into every importing module, the
wrapper is bound at every weighsim module attribute that holds the
function, and methods are patched on their class. `uninstall()` puts back
exactly the objects it replaced.

Spans stay in memory (flat columns) until `dump()` writes them out once.
`summarize()` turns spans into per-name call counts, total time and self
time, where self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field

#: (module, attribute path) of every function the traced run wraps. The
#: span name is the module's last component plus the attribute path.
TRACED = (
    ("weighsim.cli", "main"),
    ("weighsim.station", "parse_frame_line"),
    ("weighsim.station", "FrameIngestor.ingest_lines"),
    ("weighsim.station", "run_session"),
    ("weighsim.station", "RecordStore.load"),
    ("weighsim.station", "RecordStore.append"),
    ("weighsim.station", "WeighRecord.to_line"),
    ("weighsim.station", "WeighRecord.from_line"),
    ("weighsim.calibration", "code_to_mass"),
    ("weighsim.calibration", "CalibrationState.from_file"),
    ("weighsim.compliance", "static_weigh"),
    ("weighsim.cog", "assess_four_cell"),
    ("weighsim.sensor", "bridge_output"),
    ("weighsim.sensor", "add_noise"),
    ("weighsim.sensor", "quantize"),
    ("weighsim.scenario", "corner_loads"),
    ("weighsim.scenario", "run_end_to_end"),
    ("weighsim.codec", "encode_frame"),
    ("weighsim.codec", "decode_frame"),
)


def _weighsim_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "weighsim" or name.startswith("weighsim."))
    ]


class Tracer:
    """Records spans of the wrapped weighsim functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every function in `TRACED` at every attribute that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name in {m for m, _ in TRACED}:
            importlib.import_module(module_name)
        modules = _weighsim_modules()
        for module_name, path in TRACED:
            name = f"{module_name.rsplit('.', 1)[-1]}.{path}"
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self._wrap(name, raw))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute to the object it held before."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def take_summary(self) -> "Summary":
        """Summarize the spans recorded so far and drop them; none may be open."""
        if len(self._stack) != 1:
            raise RuntimeError("cannot summarize while a span is open")
        out = self.summary()
        for column in (self.names, self.starts, self.ends, self.parents):
            column.clear()
        return out

    def dump(self, path: str) -> None:
        """Write the recorded spans as one JSON object of columns."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": table,
                    "name": [index[n] for n in self.names],
                    "start": self.starts,
                    "end": self.ends,
                    "parent": self.parents,
                },
                fh,
            )

    def summary(self) -> "Summary":
        return summarize(self.names, self.starts, self.ends, self.parents)


@dataclass
class Summary:
    """Per-span-name totals; times in nanoseconds."""

    calls: dict[str, int] = field(default_factory=dict)
    total_ns: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, int] = field(default_factory=dict)
    #: (parent name, child name) → number of child spans
    child_calls: dict[tuple[str, str], int] = field(default_factory=dict)

    def merge(self, other: "Summary") -> None:
        for mine, theirs in (
            (self.calls, other.calls),
            (self.total_ns, other.total_ns),
            (self.self_ns, other.self_ns),
            (self.child_calls, other.child_calls),
        ):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value


def summarize(names, starts, ends, parents) -> Summary:
    """Aggregate spans; self time = duration minus the direct children's.

    Spans come from one thread and nest, so the direct children of a span
    cover disjoint parts of it and their durations add up to the covered
    time.
    """
    durations = [e - s for s, e in zip(starts, ends)]
    covered = [0] * len(durations)
    out = Summary()
    for i, (name, parent) in enumerate(zip(names, parents)):
        out.calls[name] = out.calls.get(name, 0) + 1
        out.total_ns[name] = out.total_ns.get(name, 0) + durations[i]
        if parent >= 0:
            covered[parent] += durations[i]
            key = (names[parent], name)
            out.child_calls[key] = out.child_calls.get(key, 0) + 1
    for i, name in enumerate(names):
        out.self_ns[name] = out.self_ns.get(name, 0) + durations[i] - covered[i]
    return out


def load_summary(path: str) -> Summary:
    """Summarize a span file written by `Tracer.dump`."""
    with open(path) as fh:
        data = json.load(fh)
    table = data["names"]
    return summarize([table[i] for i in data["name"]], data["start"], data["end"], data["parent"])
