"""Layered version history with autonomous rollback.

Each deployed application version is one layer: a tag, a tree digest, and
stable/failed markers. Committing an update appends an unstable layer and
activates it; a later explicit mark_stable promotes it. A failure signal
(non-zero exit code) flips the active pointer back to the most recent
stable layer, onboard, with no ground round trip and no data transfer.

Storage follows a fixed retention policy: only the active layer and the
most recent stable layer keep materialized trees; every older layer
survives as metadata (digest) only. Backup cost of a commit is therefore
O(1): the previous version's tree is already on disk.

The pure transition functions (commit_layer, mark_stable, on_failure)
operate on immutable LayerStack values; LayerStore adds the on-disk
format: per-layer tree directories plus a line-oriented ``layers.idx``.
"""

from __future__ import annotations

import os
import re
import shutil
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .errors import (
    DuplicateTagError,
    LayerStoreError,
    NotActiveError,
    UnknownTagError,
    UnrecoverableStateError,
)
from .fstree import FileTree, load_tree, materialize, tree_digest
from .package import CONTENT_KINDS, ChangeSet, encode_package

_TAG_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


class FailurePhase(Enum):
    UPDATE_PROCESS = "UpdateProcess"
    POST_UPDATE_EXECUTION = "PostUpdateExecution"


@dataclass(frozen=True)
class FailureEvent:
    """A non-zero exit code observed during or after an update."""

    phase: FailurePhase
    exit_code: int

    def __post_init__(self):
        if self.exit_code == 0:
            raise ValueError("exit code 0 is not a failure")


@dataclass(frozen=True)
class Layer:
    tag: str
    digest: bytes
    stable: bool = False
    failed: bool = False


@dataclass(frozen=True)
class RollbackRecord:
    from_tag: str
    to_tag: str


@dataclass(frozen=True)
class LayerStack:
    """Deployment history of one application. ``active`` indexes layers;
    -1 only while the stack is empty."""

    layers: tuple[Layer, ...] = ()
    active: int = -1

    def __post_init__(self):
        tags = [l.tag for l in self.layers]
        if len(set(tags)) != len(tags):
            raise LayerStoreError("layer tags must be unique")
        if self.layers and not 0 <= self.active < len(self.layers):
            raise LayerStoreError("active index out of range")
        if not self.layers and self.active != -1:
            raise LayerStoreError("empty stack cannot have an active layer")

    @property
    def active_layer(self) -> Layer | None:
        return self.layers[self.active] if self.layers else None

    def find(self, tag: str) -> int:
        for i, layer in enumerate(self.layers):
            if layer.tag == tag:
                return i
        raise UnknownTagError(f"no layer tagged {tag!r}")

    def latest_stable(self) -> int | None:
        for i in range(len(self.layers) - 1, -1, -1):
            if self.layers[i].stable:
                return i
        return None


def check_tag(tag: str) -> str:
    if not _TAG_RE.match(tag):
        raise LayerStoreError(
            f"tag {tag!r} invalid: need [A-Za-z0-9][A-Za-z0-9._-]*"
        )
    return tag


def commit_layer(stack: LayerStack, new_tree: FileTree, tag: str) -> LayerStack:
    """Append ``new_tree`` as a fresh, not-yet-stable active layer.

    The prior version's data is untouched (it is the rollback target), so
    the backup side effect of an update is constant metadata work.
    """
    check_tag(tag)
    if any(l.tag == tag for l in stack.layers):
        raise DuplicateTagError(f"layer {tag!r} already exists")
    layer = Layer(tag, tree_digest(new_tree))
    layers = stack.layers + (layer,)
    return replace(stack, layers=layers, active=len(layers) - 1)


def mark_stable(stack: LayerStack, tag: str) -> LayerStack:
    """Promote the active layer to stable (the future rollback target)."""
    idx = stack.find(tag)
    if idx != stack.active:
        raise NotActiveError(f"layer {tag!r} is not active")
    if stack.layers[idx].stable:
        return stack
    layers = list(stack.layers)
    layers[idx] = replace(layers[idx], stable=True)
    return replace(stack, layers=tuple(layers))


def on_failure(
    stack: LayerStack, event: FailureEvent
) -> tuple[LayerStack, RollbackRecord]:
    """React to a failure signal: roll back to the latest stable layer.

    A failure while the active layer is itself stable is not an update
    problem: the pointer stays put, and the record goes from that layer
    to itself, as no rollback does. The failed layer is kept (marked
    failed) for telemetry, never deleted. Every failure phase gets the
    same reaction, so the record does not repeat ``event``.
    """
    active = stack.active_layer
    if active is None:
        raise UnrecoverableStateError("no layers deployed")
    if active.stable:
        return stack, RollbackRecord(active.tag, active.tag)
    target = stack.latest_stable()
    if target is None:
        raise UnrecoverableStateError("no stable layer to roll back to")
    layers = list(stack.layers)
    layers[stack.active] = replace(active, failed=True)
    rolled = replace(stack, layers=tuple(layers), active=target)
    record = RollbackRecord(active.tag, stack.layers[target].tag)
    return rolled, record


# -- recovery cost model ---------------------------------------------------


class RecoveryStrategy(Enum):
    IMAGE = "Image"
    FILE = "File"
    PATCH = "Patch"
    LAYER = "Layer"


@dataclass(frozen=True)
class RecoveryCost:
    """Modeled storage and unit counts for one backup/restore strategy.

    Wall-clock figures are hardware-bound, so the model reports what the
    strategy must store and how many units each phase touches instead.
    """

    storage_bytes: int
    backup_ops: int
    restore_ops: int


def compare_trees(old: FileTree, new: FileTree) -> ChangeSet:
    """:func:`satpatch.diffgen.compare_trees`, imported on the first call,
    so a process that only applies and rolls back never loads the ground
    differ."""
    from .diffgen import compare_trees

    return compare_trees(old, new)


def recovery_cost(
    prior: FileTree,
    active: FileTree,
    strategy: RecoveryStrategy,
) -> RecoveryCost:
    """Cost of protecting ``prior`` as the rollback target of ``active``.

    Image: store the whole prior tree. File: store the prior copies of
    files the update touched. Patch: store a reverse delta package.
    Layer: store nothing new, just an index record pointing at the layer
    that already exists.
    """
    if strategy is RecoveryStrategy.IMAGE:
        size = prior.total_file_bytes()
        return RecoveryCost(size, len(prior), len(prior))
    if strategy is RecoveryStrategy.LAYER:
        record = f"stable\t{tree_digest(prior).hex()}\tS-\n"
        return RecoveryCost(len(record.encode()), 1, 1)
    reverse = compare_trees(active, prior)
    if strategy is RecoveryStrategy.FILE:
        stored = [c.path for c in reverse.changes if c.kind in CONTENT_KINDS]
        size = sum(len(prior[p].content) for p in stored)
        return RecoveryCost(size, len(stored), len(reverse.changes))
    if strategy is RecoveryStrategy.PATCH:
        size = len(encode_package(reverse))
        units = sum(max(1, len(c.ops)) for c in reverse.changes)
        return RecoveryCost(size, units, units)
    raise ValueError(f"unknown strategy {strategy!r}")


# -- persistence -------------------------------------------------------------


class LayerStore:
    """Directory-backed layer stack for one application.

    Opening a store writes nothing; its first commit creates it.
    Layout: ``layers.idx`` and ``trees/<tag>/`` for the materialized
    layers. The index opens with the fixed line ``app<TAB>app`` (the
    store's directory is what names its application), then the active
    tag and one line per layer. Index updates are write-temp-then-rename;
    the tree for a new commit is staged in a hidden sibling and renamed to
    ``trees/<tag>`` before the index references it, and removed again if
    the index write fails. :meth:`_prune` is the one cleanup path: it
    drops every tree the retention policy does not keep, and so any
    leftover of a commit cut short.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.index = self.root / "layers.idx"
        self.trees_dir = self.root / "trees"
        self.stack = self._read_index() if self.index.exists() else LayerStack()

    # index format: "app\tapp", "active\t<tag-or-->", then
    # "layer\t<tag>\t<digest hex>\t<S|->\t<F|->" in deployment order.
    def _write_index(self, stack: LayerStack) -> None:
        lines = ["app\tapp"]
        active = stack.active_layer
        lines.append(f"active\t{active.tag if active else '-'}")
        for layer in stack.layers:
            lines.append(
                "layer\t{}\t{}\t{}\t{}".format(
                    layer.tag,
                    layer.digest.hex(),
                    "S" if layer.stable else "-",
                    "F" if layer.failed else "-",
                )
            )
        tmp = self.index.with_suffix(".idx.tmp")
        tmp.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        os.replace(tmp, self.index)

    def _read_index(self) -> LayerStack:
        # A power cut can leave the index empty or cut short; reading that
        # as an empty store would let _prune delete every rollback target.
        text = self.index.read_text(encoding="utf-8")
        rows = [raw.split("\t") for raw in text.splitlines()]
        layout = [("app", 2), ("active", 2)] + [("layer", 5)] * (len(rows) - 2)
        if [(r[0], len(r)) for r in rows] != layout or rows[0][1] != "app":
            raise LayerStoreError("index lines are not app, active, then layers")
        _, (_, active_tag), *layer_rows = rows
        layers = []
        for _, tag, digest_hex, s, f in layer_rows:
            try:
                digest = bytes.fromhex(digest_hex)
            except ValueError as exc:
                raise LayerStoreError(f"bad digest in index: {exc}") from exc
            if len(digest) != 32 or s not in ("S", "-") or f not in ("F", "-"):
                raise LayerStoreError(
                    f"index layer {tag!r}: {len(digest)}-byte digest, flags {s!r} {f!r}"
                )
            layers.append(Layer(check_tag(tag), digest, s == "S", f == "F"))
        tags = [layer.tag for layer in layers]
        if active_tag not in tags + ["-"]:  # "-" is never a valid tag
            raise LayerStoreError(f"active tag {active_tag!r} not in index")
        active = tags.index(active_tag) if active_tag in tags else -1
        return LayerStack(tuple(layers), active)

    # -- queries -----------------------------------------------------------

    def tree_of(self, tag: str) -> FileTree:
        layer = self.stack.layers[self.stack.find(tag)]
        location = self.trees_dir / tag
        if not location.is_dir():
            raise LayerStoreError(
                f"layer {tag!r} is not materialized (metadata only)"
            )
        tree = load_tree(location)
        if tree_digest(tree) != layer.digest:
            raise LayerStoreError(f"layer {tag!r} tree does not match its digest")
        return tree

    def active_tree(self) -> FileTree:
        active = self.stack.active_layer
        if active is None:
            raise LayerStoreError("store is empty")
        return self.tree_of(active.tag)

    # -- mutations -----------------------------------------------------------

    def commit(self, tree: FileTree, tag: str) -> None:
        stack = commit_layer(self.stack, tree, tag)
        # a crash can leave trees/<tag> or a hidden staging sibling behind
        self._prune()
        materialize(tree, self.trees_dir / tag)
        try:
            self._adopt(stack)
        finally:
            if self.stack is not stack:  # the index write failed
                shutil.rmtree(self.trees_dir / tag, ignore_errors=True)

    def mark_stable(self, tag: str) -> None:
        self._adopt(mark_stable(self.stack, tag))

    def on_failure(self, event: FailureEvent) -> RollbackRecord:
        stack, record = on_failure(self.stack, event)
        self._adopt(stack)
        return record

    def _adopt(self, stack: LayerStack) -> None:
        """Make ``stack`` the store's state: write its index, take it, and
        prune. The stack is taken only once its index write returns, so
        the object and the disk agree after a failed write."""
        self._write_index(stack)
        self.stack = stack
        self._prune()

    def _prune(self) -> None:
        """Enforce retention: materialized trees only for the active layer
        and the latest stable layer."""
        keep = set()
        active = self.stack.active_layer
        if active is not None:
            keep.add(active.tag)
        latest = self.stack.latest_stable()
        if latest is not None:
            keep.add(self.stack.layers[latest].tag)
        if not self.trees_dir.is_dir():
            return
        for entry in self.trees_dir.iterdir():
            if entry.is_dir() and entry.name not in keep:
                shutil.rmtree(entry)
