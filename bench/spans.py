"""Span recorder for the traced benchmark mode.

Spans are recorded from outside the program: :func:`install` rebinds the
public functions of each ``satpatch`` layer on the name every calling
module looks them up under (``tree_digest`` is bound separately in
``diffgen``, ``reconstruct`` and ``layerstore``, for example) and puts
the originals back afterwards. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("fstree", "diffgen", "package", "reconstruct", "layerstore")


class Tracer:
    def __init__(self):
        #: ``[name, start, end, parent index]`` per span, in start order.
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(tracer, args, result)``
        may add counters from the call."""
        spans, stack = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def exclusive(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def table(self) -> dict[str, dict[str, float]]:
        """``{span name: {calls, total_s, self_s}}`` plus one row per layer."""
        rows: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        layer_of = [name.split(".")[0] for name, *_ in self.spans]
        for i, ((name, start, end, parent), own) in enumerate(zip(self.spans, self.exclusive())):
            for key in (name, layer_of[i]):
                row = rows[key]
                row["calls"] += 1
                row["self_s"] += own
                # A layer's total counts only its outermost spans, so that
                # nested calls within one layer are not counted twice.
                if key == name or parent < 0 or layer_of[parent] != key:
                    row["total_s"] += end - start
        return dict(rows)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps({"spans": spans, "counts": self.counts}) + "\n")


def _count_chunks(tracer, args, result):
    tracer.counts["diffgen.chunks"] += len(result)


def _count_units(tracer, args, result):
    tracer.counts["diffgen.units_compared"] += len(args[0]) + len(args[1])
    tracer.counts["diffgen.edit_units"] += sum(
        op[1] if op[0] == "D" else op[2] for op in result if op[0] != "R"
    )


def _count_apply(tracer, args, result):
    report = result[1]
    tracer.counts["reconstruct.bytes_written"] += report.bytes_written
    tracer.counts["reconstruct.dir_deletes"] += report.dirs_deleted


@contextmanager
def install(tracer: Tracer):
    """Trace every public layer function for the duration of the block."""
    from satpatch import diffgen, fstree, layerstore, package, reconstruct

    targets = [
        # (span name, function, modules that bind the name, counter)
        ("fstree.load", "load_tree", (layerstore,), None),
        ("fstree.digest", "tree_digest", (diffgen, reconstruct, layerstore), None),
        ("fstree.materialize", "materialize", (layerstore, reconstruct), None),
        ("diffgen.compare", "compare_trees", (diffgen, layerstore), None),
        ("diffgen.chunk", "chunkify", (diffgen,), _count_chunks),
        ("diffgen.line_diff", "line_diff", (diffgen,), None),
        ("diffgen.unit_diff", "diff_units", (diffgen,), _count_units),
        ("package.encode", "encode_package", (package, layerstore), None),
        ("package.decode", "decode_package", (package, reconstruct), None),
        ("reconstruct.apply_changeset", "apply_changeset", (reconstruct,), _count_apply),
        ("reconstruct.replay", "apply_file", (reconstruct,), None),
    ]
    methods = [
        ("layerstore.commit", "commit"),
        ("layerstore.mark_stable", "mark_stable"),
        ("layerstore.on_failure", "on_failure"),
        ("layerstore.tree_of", "tree_of"),
    ]
    saved = []
    for span, attr, modules, count in targets:
        for module in modules:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original, count))
    for span, attr in methods:
        original = getattr(layerstore.LayerStore, attr)
        saved.append((layerstore.LayerStore, attr, original))
        setattr(layerstore.LayerStore, attr, tracer.wrap(span, original))
    # hash_content runs once per file load; a counter is enough there and
    # keeps the span list small.
    original_hash = fstree.hash_content
    saved.append((fstree, "hash_content", original_hash))

    def hash_content(content):
        tracer.counts["fstree.hash_bytes"] += len(content)
        return original_hash(content)

    fstree.hash_content = hash_content
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
