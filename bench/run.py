#!/usr/bin/env python3
"""Update life-cycle benchmark for satpatch.

    python3 bench/run.py --workload app-releases --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``satpatch`` from its
``src/``. One run generates a chain of versions from ``--seed`` and drives
every update of the chain through the whole life cycle, round after round,
for ``--seconds`` seconds:

1. ground: ``compare_trees`` and ``encode_package`` (timed as ``diff_s``);
2. link: ``linksim.transmission_latency`` at 200 kbps (``uplink_s``);
3. onboard: ``store.active_tree``, ``decode_package``, ``apply_changeset``
   and ``store.commit`` (timed as ``apply_s``);
4. on every other update a failure signal: ``store.on_failure`` and
   ``store.active_tree`` (timed as ``recover_s``); otherwise the update
   is marked stable.

Every output is checked apart from the program (see ``checks.py``). With
``--trace 1`` the public functions of each layer are wrapped (see
``spans.py``) and the per-layer metrics are printed instead of the
end-to-end ones. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
TRACE_OUT = BENCH / "out"

import checks  # noqa: E402  (bench/ is on sys.path as the script's directory)
import gen  # noqa: E402
from spans import LAYERS, Tracer, install  # noqa: E402

#: String hashing is salted per process unless this is fixed. The salt
#: changes dict and set layouts, and with them the speed of a whole run:
#: the same seed ran up to 25% apart between processes when it was left free.
HASH_SEED = "0"
#: Exit code of the failure signal that follows every other update.
FAILURE_EXIT_CODE = 137


def import_program():
    """Import ``satpatch`` from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "satpatch" / "__init__.py").is_file():
        sys.exit(f"bench: no satpatch sources under {src}")
    sys.path.insert(0, str(src))
    import satpatch  # noqa: F401

    return satpatch


def seed_store(path: Path, tree):
    """A fresh LayerStore at ``path`` holding ``tree`` as stable layer v0."""
    from satpatch.layerstore import LayerStore

    if path.exists():
        shutil.rmtree(path)
    store = LayerStore(path)
    store.commit(tree, "v0")
    store.mark_stable("v0")
    return store


def write_version_tar(version: gen.Version, path: Path) -> None:
    """The version as an uncompressed tar, modes included."""
    with tarfile.open(path, "w", format=tarfile.GNU_FORMAT) as tar:
        for d in sorted(version.dirs):
            info = tarfile.TarInfo(d)
            info.type = tarfile.DIRTYPE
            info.mode = 0o755
            tar.addfile(info)
        for p in sorted(version.files):
            info = tarfile.TarInfo(p)
            info.size = len(version.files[p])
            info.mode = version.modes.get(p, gen.FILE_MODE)
            tar.addfile(info, io.BytesIO(version.files[p]))


class OpFailed(Exception):
    """The program raised during a life-cycle operation."""


class LifeCycle:
    """One workload's chain, trees and store, and the run's tallies."""

    def __init__(self, workload: str, seed: int, work: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.schedule = gen.schedule()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.chain: gen.Chain | None = None
        self.packages: list[bytes] | None = None
        self.diff_s = [[] for _ in self.schedule]
        self.apply_s = [[] for _ in self.schedule]
        self.recover_s = [[] for _ in self.schedule]
        #: One set-up before the warm-up and one at the start of every
        #: later round, so they sample the whole run, not just its start.
        self.setup_s: list[float] = []
        self.rounds = 0
        self.updates = 0
        self.wire = [0, 0]
        self.store_bytes = 0

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """Build the trees of the chain's versions and seed a store with v0;
        the time it took goes to ``setup_s``.

        The chain is generated once, before the first set-up and untimed:
        the generator is this benchmark's own code, which no change to the
        program can move, and its pure-Python loops made up four fifths of
        a set-up and most of its run-to-run noise.
        """
        from satpatch.fstree import FileTree

        if self.chain is None:
            self.chain = gen.WORKLOADS[self.workload](self.seed)
        start = time.perf_counter()
        self.trees = [
            FileTree.from_dict(f"v{i}", v.mapping())
            for i, v in enumerate(self.chain.versions)
        ]
        self.store = seed_store(self.work / "store", self.trees[0])
        self.setup_s.append(time.perf_counter() - start)

    def prepare_checks(self) -> None:
        self.expected = [
            checks.version_manifest(v.files, v.dirs) for v in self.chain.versions
        ]

    # -- one operation ---------------------------------------------------------

    def _op(self, name: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any program fault is a failed operation
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc

    def diff(self, base: int, target: int):
        from satpatch import diffgen, package

        t0 = time.perf_counter()
        changeset = diffgen.compare_trees(self.trees[base], self.trees[target])
        blob = package.encode_package(changeset)
        return time.perf_counter() - t0, changeset, blob

    def apply(self, blob: bytes, tag: str):
        from satpatch import package, reconstruct

        t0 = time.perf_counter()
        current = self.store.active_tree()
        changeset = package.decode_package(blob)
        new_tree, _ = reconstruct.apply_changeset(current, changeset)
        self.store.commit(new_tree, tag)
        return time.perf_counter() - t0

    def recover(self):
        from satpatch.layerstore import FailureEvent, FailurePhase

        t0 = time.perf_counter()
        self.store.on_failure(
            FailureEvent(FailurePhase.POST_UPDATE_EXECUTION, FAILURE_EXIT_CODE)
        )
        self.store.active_tree()
        return time.perf_counter() - t0

    def mode_check(self, tag: str, target: int) -> None:
        wrong = checks.mode_mismatches(
            self.store.root / "trees" / tag, self.chain.versions[target].modes
        )
        if wrong:
            raise checks.CheckError(f"{len(wrong)} entry points lost their mode, e.g. {wrong[0]}")

    # -- checks ----------------------------------------------------------------

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckError as exc:
            self.errors.append(f"check: {exc}")

    def check_package(self, pos: int, base: int, target: int, changeset, blob) -> None:
        if self.chain.line_edits:
            bound = {}
            for step in range(base + 1, target + 1):
                for path, n in self.chain.line_edits[step].items():
                    bound[path] = bound.get(path, 0) + n
            self.check(
                checks.check_edit_bound,
                checks.script_units(changeset.changes),
                bound,
                f"update {target}",
            )
        if self.packages is not None and self.packages[pos] != blob:
            self.errors.append(f"check: update {target} package differs between rounds")

    def check_corrupt_rejected(self, blob: bytes) -> None:
        """A one-byte corruption is rejected and leaves the store as it was."""
        from satpatch import package, reconstruct
        from satpatch.errors import ApplyError, PackageError

        tag = checks.active_tag(self.store.root)
        current = self.store.active_tree()
        for what, bad in checks.corrupted(blob):
            try:
                reconstruct.apply_changeset(current, package.decode_package(bad))
            except (PackageError, ApplyError):
                pass
            else:
                self.errors.append(f"check: {what} corruption was accepted")
            self.check(
                checks.check_active, self.store.root, tag, self.expected[0],
                f"store after {what} corruption",
            )

    # -- the life cycle ----------------------------------------------------------

    def warm_up(self) -> None:
        """Update 1 once, untimed, with the corruption check before it."""
        base, target, _ = self.schedule[0]
        _, _, blob = self.diff(base, target)
        self.check_corrupt_rejected(blob)
        self.apply(blob, "warmup")
        self.recover()

    def run_round(self) -> None:
        """Set up afresh (after the first round) and take every update of
        the chain through the life cycle; only the updates are traced."""
        if self.rounds:
            self.setup()
        with install(self.tracer) if self.tracer else contextlib.nullcontext():
            self._updates()
        self.rounds += 1

    def _updates(self) -> None:
        rnd = self.rounds
        packages = []
        stable_tag = "v0"
        try:
            for pos, (base, target, fails) in enumerate(self.schedule):
                tag = f"r{rnd}u{target}"
                elapsed, changeset, blob = self._op("diff", self.diff, base, target)
                self.diff_s[pos].append(elapsed)
                self.check_package(pos, base, target, changeset, blob)
                packages.append(blob)
                if self.tracer is not None:
                    manifest, segments = checks.wire_sizes(blob)
                    self.wire[0] += manifest
                    self.wire[1] += segments

                self.apply_s[pos].append(self._op("apply", self.apply, blob, tag))
                self.check(
                    checks.check_active, self.store.root, tag,
                    self.expected[target], f"store after update {target}",
                )
                if self.tracer is not None:
                    self.store_bytes += _tree_bytes(self.store.root)
                if self.chain.versions[target].modes:
                    self.attempted += 1
                    try:
                        self.mode_check(tag, target)
                    except checks.CheckError as exc:
                        self.failed += 1
                        if rnd == 0 and pos == 0:
                            print(f"bench: mode-check fails: {exc}", file=sys.stderr)

                if fails:
                    self.recover_s[pos].append(self._op("recover", self.recover))
                    self.check(
                        checks.check_active, self.store.root, stable_tag,
                        self.expected[base], f"store after rollback of update {target}",
                    )
                else:
                    self._op("mark-stable", self.store.mark_stable, tag)
                    stable_tag = tag
                self.updates += 1
        except OpFailed:
            pass
        if self.packages is None:
            self.packages = packages

    # -- peak RSS from child processes ------------------------------------------

    def child_peaks(self) -> tuple[float, float]:
        """Peak RSS (MiB) of a ground diff process and of an onboard apply
        process, each run alone over one pass of the chain."""
        versions = self.work / "versions"
        versions.mkdir()
        for i, v in enumerate(self.chain.versions):
            write_version_tar(v, versions / f"v{i}.tar")
        (self.work / "pkgs").mkdir()
        diff_peak = _run_child("diff", self.work)
        for pos, (_, target, _) in enumerate(self.schedule):
            got = (self.work / "pkgs" / f"u{target}.satpkg").read_bytes()
            if got != self.packages[pos]:
                self.errors.append(f"check: diff process built a different package for update {target}")
        store_root = self.work / "child-store"
        seed_store(store_root, self.trees[0])
        apply_peak = _run_child("apply", self.work)
        final = self.schedule[-1][1]
        self.check(
            checks.check_active, store_root, f"u{final}", self.expected[final],
            "store of the apply process",
        )
        return diff_peak, apply_peak


def _tree_bytes(root: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


def _run_child(mode: str, work: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), mode, str(work)],
        capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_kib"] / 1024


def _per_update(samples: list[list[float]], stat) -> float:
    """``stat`` of each update's samples over the run's rounds, averaged
    over the chain.

    One statistic over all samples together would sit on whichever update
    is in the middle of the chain and not move when the others get faster.
    """
    values = [stat(s) for s in samples if s]
    return sum(values) / len(values)


def end_to_end(life: LifeCycle, peaks) -> dict:
    from satpatch import linksim

    total = sum(len(b) for b in life.packages)
    uplink = sum(
        (linksim.transmission_latency(len(b)) for b in life.packages), Fraction(0)
    )
    life.check(checks.check_uplink, total, uplink)
    diff_peak, apply_peak = peaks
    # The fastest sample of each update, not the median: the shared host
    # slows this process by up to 1.6x, in phases of seconds to minutes
    # (CPU time slows with wall time, so it is not waiting for a CPU), and
    # a run's median moves with how much of the run fell in slow phases.
    # Interference only adds time, so the minimum is the steadiest measure
    # of the program's own cost; a slower program raises it too.
    return {
        "package_bytes": (total, "bytes"),
        "uplink_s": (float(uplink), "s"),
        "diff_s": (_per_update(life.diff_s, min), "s"),
        "apply_s": (_per_update(life.apply_s, min), "s"),
        "recover_s": (_per_update(life.recover_s, min), "s"),
        "diff_peak_rss_mib": (diff_peak, "MiB"),
        "apply_peak_rss_mib": (apply_peak, "MiB"),
        "setup_s": (statistics.median(life.setup_s), "s"),
    }


def per_layer(life: LifeCycle, tracer) -> dict:
    n = max(life.updates, 1)
    rows = tracer.table()

    def total(name):
        return rows.get(name, {}).get("total_s", 0.0) / n

    def own(name):
        return rows.get(name, {}).get("self_s", 0.0) / n

    def count(name):
        return tracer.counts.get(name, 0) / n

    out = {
        "fstree.load_s": (total("fstree.load"), "s"),
        "fstree.digest_s": (total("fstree.digest"), "s"),
        "fstree.materialize_s": (total("fstree.materialize"), "s"),
        "fstree.hash_bytes": (count("fstree.hash_bytes"), "bytes"),
        "diffgen.compare_s": (own("diffgen.compare"), "s"),
        "diffgen.chunk_s": (total("diffgen.chunk"), "s"),
        "diffgen.chunks": (count("diffgen.chunks"), "count"),
        "diffgen.line_diff_s": (total("diffgen.line_diff"), "s"),
        "diffgen.unit_diff_s": (total("diffgen.unit_diff"), "s"),
        "diffgen.units_compared": (count("diffgen.units_compared"), "count"),
        "diffgen.edit_units": (count("diffgen.edit_units"), "count"),
        "package.encode_s": (total("package.encode"), "s"),
        "package.decode_s": (total("package.decode"), "s"),
        "package.manifest_bytes": (life.wire[0] / n, "bytes"),
        "package.segment_bytes": (life.wire[1] / n, "bytes"),
        "reconstruct.apply_changeset_s": (own("reconstruct.apply_changeset"), "s"),
        "reconstruct.replay_s": (total("reconstruct.replay"), "s"),
        "reconstruct.bytes_written": (count("reconstruct.bytes_written"), "bytes"),
        "reconstruct.dir_deletes": (count("reconstruct.dir_deletes"), "count"),
        "layerstore.commit_s": (total("layerstore.commit"), "s"),
        "layerstore.mark_stable_s": (total("layerstore.mark_stable"), "s"),
        "layerstore.on_failure_s": (total("layerstore.on_failure"), "s"),
        "layerstore.tree_of_s": (total("layerstore.tree_of"), "s"),
        "layerstore.store_bytes": (life.store_bytes / n, "bytes"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (own(layer), "s")
    return out


def write_trace(life: LifeCycle, tracer, layer_metrics: dict) -> Path:
    stem = f"{life.workload}-seed{life.seed}"
    tracer.dump(TRACE_OUT / f"trace-{stem}.json")
    rows = tracer.table()
    lines = [f"# {life.workload} seed {life.seed}: {life.updates} updates in {life.rounds} rounds"]
    lines.append(f"{'span or layer':32} {'calls':>8} {'total_s/upd':>12} {'self_s/upd':>12}")
    n = max(life.updates, 1)
    for name in sorted(rows):
        r = rows[name]
        lines.append(
            f"{name:32} {r['calls'] / n:8.1f} {r['total_s'] / n:12.6f} {r['self_s'] / n:12.6f}"
        )
    lines.append("")
    for name, (value, unit) in layer_metrics.items():
        if unit != "s":
            lines.append(f"{name:32} {value:14.1f} {unit}")
    lines.append("")
    lines.append("end-to-end figures of this traced run (for the tracing overhead):")
    lines.append(f"{'':32} {'fastest':>14} {'median':>14}")
    for name, samples in (("diff_s", life.diff_s), ("apply_s", life.apply_s), ("recover_s", life.recover_s)):
        lines.append(
            f"{name:32} {_per_update(samples, min):14.6f} "
            f"{_per_update(samples, statistics.median):14.6f} s"
        )
    path = TRACE_OUT / f"layers-{stem}.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    import_program()

    work = WORK / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    print(f"bench: working directory {work}", file=sys.stderr)
    try:
        tracer = Tracer() if args.trace else None
        life = LifeCycle(args.workload, args.seed, work, tracer)
        life.setup()
        life.prepare_checks()
        life.warm_up()
        start = time.perf_counter()
        while life.rounds == 0 or time.perf_counter() - start < args.seconds:
            life.run_round()
        if tracer is None:
            metrics = end_to_end(life, life.child_peaks())
        else:
            metrics = per_layer(life, tracer)
            print(f"bench: layer table in {write_trace(life, tracer, metrics)}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for line in life.errors[:20]:
        print(f"bench: {line}", file=sys.stderr)
    print(
        f"bench: {args.workload} seed {args.seed}: {life.rounds} rounds, "
        f"{life.updates} updates", file=sys.stderr,
    )
    result = {
        "correct": not any(e.startswith("check:") for e in life.errors),
        "attempted": life.attempted,
        "failed": life.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
