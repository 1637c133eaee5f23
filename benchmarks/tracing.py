"""Spans recorded from outside the program, around its calls into each layer.

:class:`Tracer` replaces the layer functions that ``vtcompress.cli`` calls
(and ``training.prepare_batch``, which ``train_selector`` calls) with wrappers
that record a span per call, then puts the originals back. Spans are kept in
memory; the caller writes them out when the run ends. Arguments and results
of the calls of the latest operation are kept as well, so that counters,
BLAS bounds and oracle checks can be computed after the timed region.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = "op"


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Call:
    span: int
    name: str
    args: tuple
    kwargs: dict
    result: object


def _targets(cli, training) -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every layer function the CLI calls."""
    targets = []
    for attr, obj in sorted(vars(cli).items()):
        module = getattr(obj, "__module__", "") or ""
        if inspect.isfunction(obj) and module.startswith("vtcompress.") and module != cli.__name__:
            targets.append((cli, attr, f"{module.rsplit('.', 1)[1]}.{attr}"))
    targets.append((cli, "_project_keys", "cli.project_keys"))
    targets.append((training, "prepare_batch", "training.prepare_batch"))
    return targets


class Tracer:
    def __init__(self, cli, training):
        self.spans: list[Span] = []
        self.calls: list[Call] = []
        self._stack: list[int] = []
        self._op = -1
        self._originals = [(m, a, getattr(m, a), name) for m, a, name in _targets(cli, training)]

    def install(self) -> None:
        for module, attr, fn, name in self._originals:
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._originals:
            setattr(module, attr, fn)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.calls.append(Call(index, name, args, kwargs, result))
            return result

        return traced

    @contextmanager
    def operation(self):
        """Root span of one operation; yields its index in :attr:`spans`.

        Calls recorded for earlier operations are dropped.
        """
        self._op += 1
        self.calls = []
        index = self._open(ROOT)
        try:
            yield index
        finally:
            self._close(index)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def self_times_ns(spans: list[Span], root: int) -> dict[str, int]:
    """Self time per layer of one operation, from ``spans[root:]``.

    A span's self time is its duration minus that of its children. The root's
    self time (argument parsing, dispatch, emit: everything outside a layer
    call) is keyed by ``ROOT``. The values sum to the root's duration exactly.
    """
    own = spans[root:]
    child_ns = [0] * len(own)
    for span in own[1:]:
        child_ns[span.parent - root] += span.duration_ns
    totals: dict[str, int] = {}
    for span, covered in zip(own, child_ns):
        layer = ROOT if span.name == ROOT else span.layer
        totals[layer] = totals.get(layer, 0) + span.duration_ns - covered
    return totals
