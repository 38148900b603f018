"""Seeded version chains for the update life-cycle benchmark.

The generator is deliberately independent of ``satpatch``: it never calls
the chunker or the line differ, so a later change to either cannot change
the inputs the benchmark feeds them. Every choice comes from one
``random.Random`` seeded with the workload name and the run's seed.

A :class:`Chain` is ``versions[0..K]``. Update ``i`` (1-based) targets
``versions[i]``; a failure signal follows every odd update, so the even
updates are built against the stable base two versions back (see
:func:`schedule`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

MiB = 1 << 20
EXEC_MODE = 0o755
FILE_MODE = 0o644

#: Updates per chain. Even, so the chain is whole failure/success pairs.
CHAIN_UPDATES = 4


@dataclass
class Version:
    """One application version: ``files`` maps path to bytes, ``dirs`` is
    the set of directory paths, ``modes`` lists files whose mode is not
    0644."""

    files: dict[str, bytes]
    dirs: set[str]
    modes: dict[str, int] = field(default_factory=dict)

    def mapping(self) -> dict[str, bytes | None]:
        out: dict[str, bytes | None] = {d: None for d in self.dirs}
        out.update(self.files)
        return out

    def copy(self) -> "Version":
        return Version(dict(self.files), set(self.dirs), dict(self.modes))


@dataclass
class Chain:
    versions: list[Version]
    #: text-churn only: ``line_edits[i][path]`` is the number of deleted
    #: plus inserted lines the generator used to make version i from i-1.
    line_edits: list[dict[str, int]] = field(default_factory=list)


def schedule() -> list[tuple[int, int, bool]]:
    """``(base, target, fails)`` per update: odd updates get a failure
    signal and roll back, so the next one is built against the same base."""
    out = []
    stable = 0
    for target in range(1, CHAIN_UPDATES + 1):
        fails = target % 2 == 1
        out.append((stable, target, fails))
        if not fails:
            stable = target
    return out


def _parents(path: str) -> list[str]:
    parts = path.split("/")
    return ["/".join(parts[:i]) for i in range(1, len(parts))]


def _add_file(v: Version, path: str, content: bytes, mode: int = FILE_MODE) -> None:
    v.dirs.update(_parents(path))
    v.files[path] = content
    if mode != FILE_MODE:
        v.modes[path] = mode


# -- binary-flips ------------------------------------------------------------

_BLOBS = (
    ("models/detector.weights", 3 * MiB),
    ("models/classifier.weights", 2 * MiB),
    ("firmware/payload.img", 1 * MiB),
)
#: Fixed, so package sizes vary little from seed to seed.
FLIPS_PER_BLOB = 120
#: Bytes inserted into the first blob on update 2 and removed from the
#: second on update 4. Which blob and how many bytes are fixed; only the
#: place comes from the seed, so the work varies little from seed to seed.
SHIFT_RUN = 256


def _flip(data: bytearray, rng: random.Random, flips: int) -> None:
    for _ in range(flips):
        pos = rng.randrange(len(data))
        data[pos] ^= rng.randrange(1, 256)


def binary_flips(seed: int) -> Chain:
    """Large random blobs; each update flips scattered bytes in every blob
    and, on every other update, inserts or removes a byte run in one
    (see ``SHIFT_RUN``)."""
    rng = random.Random(f"binary-flips:{seed}")
    v = Version({}, set())
    for path, size in _BLOBS:
        _add_file(v, path, rng.randbytes(size))
    _add_file(v, "etc/model.conf", b"input=224\nthreshold=0.5\n")
    versions = [v]
    for step in range(1, CHAIN_UPDATES + 1):
        v = v.copy()
        shifted = step // 2 - 1 if step % 2 == 0 else -1
        for k, (path, _) in enumerate(_BLOBS):
            data = bytearray(v.files[path])
            _flip(data, rng, FLIPS_PER_BLOB)
            if k == shifted:
                pos = rng.randrange(len(data) - SHIFT_RUN)
                if shifted % 2 == 0:
                    data[pos:pos] = rng.randbytes(SHIFT_RUN)
                else:
                    del data[pos : pos + SHIFT_RUN]
            v.files[path] = bytes(data)
        versions.append(v)
    return Chain(versions)


# -- text-churn --------------------------------------------------------------

#: Lines that real source repeats: blanks, braces and stock statements.
COMMON_LINES = (
    b"\n",
    b"\n",
    b"    }\n",
    b"}\n",
    b"    {\n",
    b"        return 0;\n",
    b"        break;\n",
    b"    return err;\n",
    b"        if (err) goto out;\n",
    b"    int err = 0;\n",
    b"        i++;\n",
    b"    /* ------------------------------------------------ */\n",
    b"#include <stdint.h>\n",
    b"        continue;\n",
)
#: Share of generated lines drawn from ``COMMON_LINES``.
REPEAT_SHARE = 0.35
_IDENT = "frame sensor gain offset buffer probe orbit attitude thermal payload packet window clock".split()
_TEXT_FILES = (
    ("src/attitude.c", 4000),
    ("src/telemetry.c", 3000),
    ("src/thermal.c", 2000),
)
#: Executable entry points, the same for every seed and never edited.
BUILD_SCRIPTS = (
    ("tools/build.sh", b"#!/bin/sh\nset -e\nmake -C src all\n"),
    ("tools/flash.sh", b"#!/bin/sh\nset -e\nexec ./tools/uplink --image build/payload.img\n"),
)
#: Churn rates cycled over (file, update) pairs.
CHURN_RATES = (0.01, 0.05, 0.20, 0.02, 0.10)


def _source_line(rng: random.Random, serial: int) -> bytes:
    if rng.random() < REPEAT_SHARE:
        return rng.choice(COMMON_LINES)
    a, b = rng.choice(_IDENT), rng.choice(_IDENT)
    return b"        %s_%d = %s_update(%s_%d, %d);\n" % (
        a.encode(), serial, b.encode(), a.encode(), rng.randrange(1000), serial % 97,
    )


def _churn(lines: list[bytes], rng: random.Random, rate: float, serial: list[int]) -> int:
    """Scatter ``rate * len(lines)`` line edits; returns deleted + inserted
    line count. Inserts, deletes and replacements take turns, so file sizes
    stay level and the number of each kind does not depend on the seed;
    only the places and the new lines do."""
    edits = max(1, round(rate * len(lines)))
    units = 0
    for i in range(edits):
        op = i % 3
        serial[0] += 1
        if op == 0:
            lines.insert(rng.randrange(len(lines) + 1), _source_line(rng, serial[0]))
            units += 1
        elif op == 1 and len(lines) > 1:
            del lines[rng.randrange(len(lines))]
            units += 1
        else:
            lines[rng.randrange(len(lines))] = _source_line(rng, serial[0])
            units += 2
    return units


def text_churn(seed: int) -> Chain:
    """Source-like text files and two executable build scripts; each update
    edits every source file by scattered line inserts, deletes and
    replacements at a rate from CHURN_RATES."""
    rng = random.Random(f"text-churn:{seed}")
    serial = [0]
    texts = {}
    for path, n in _TEXT_FILES:
        lines = []
        for _ in range(n):
            serial[0] += 1
            lines.append(_source_line(rng, serial[0]))
        texts[path] = lines
    def snapshot() -> Version:
        v = Version({}, set())
        for path, lines in texts.items():
            _add_file(v, path, b"".join(lines))
        _add_file(v, "README", b"flight software sources\n")
        for path, script in BUILD_SCRIPTS:
            _add_file(v, path, script, EXEC_MODE)
        return v
    versions = [snapshot()]
    edits: list[dict[str, int]] = [{}]
    for step in range(1, CHAIN_UPDATES + 1):
        counts = {}
        for k, (path, _) in enumerate(_TEXT_FILES):
            rate = CHURN_RATES[(step * len(_TEXT_FILES) + k) % len(CHURN_RATES)]
            counts[path] = _churn(texts[path], rng, rate, serial)
        edits.append(counts)
        versions.append(snapshot())
    return Chain(versions, edits)


# -- app-releases ------------------------------------------------------------

ENTRY_POINTS = ("app/bin/start.sh", "app/bin/healthcheck.sh", "app/bin/collect.sh")
_PACKAGES = 8
_MODULES = 10
_FILES_PER_MODULE = 12
_PLUGINS = 6


def _small_file(rng: random.Random, serial: int) -> tuple[str, bytes]:
    """``(extension, content)``: seven in ten are text, the rest binary."""
    if serial % 10 < 7:
        n = rng.randint(20, 40)
        return "py", b"".join(
            b"value_%d_%d = %s(%d)\n" % (serial, i, rng.choice(_IDENT).encode(), rng.randrange(1000))
            for i in range(n)
        )
    return "bin", rng.randbytes(rng.randint(1024, 2048))


def _add_small(v: Version, rng: random.Random, stem: str, serial: list[int]) -> None:
    serial[0] += 1
    ext, content = _small_file(rng, serial[0])
    _add_file(v, f"{stem}.{ext}", content)


def _plugin(v: Version, rng: random.Random, name: str, serial: list[int]) -> None:
    for d in range(6):
        for f in range(5):
            _add_small(v, rng, f"app/plugins/{name}/part{d}/f{f}", serial)


def app_releases(seed: int) -> Chain:
    """An application tree of about 1,100 small files in about 140
    directories. Each release modifies, adds and removes files; every
    other release swaps one plugin subtree for a new one. Text and binary
    files are sampled apart, in fixed shares, so package sizes vary little
    from seed to seed."""
    rng = random.Random(f"app-releases:{seed}")
    serial = [0]
    v = Version({}, set())
    for path in ENTRY_POINTS:
        _add_file(v, path, b"#!/bin/sh\nexec /app/lib/main --%s\n" % path.encode(), EXEC_MODE)
    for p in range(_PACKAGES):
        for m in range(_MODULES):
            for f in range(_FILES_PER_MODULE):
                _add_small(v, rng, f"app/lib/pkg{p:02d}/mod{m:02d}/f{f:02d}", serial)
    for k in range(_PLUGINS):
        _plugin(v, rng, f"plugin{k}", serial)
    versions = [v]
    next_plugin = _PLUGINS
    for step in range(1, CHAIN_UPDATES + 1):
        v = v.copy()
        text = sorted(p for p in v.files if not p.endswith(".bin"))
        binary = sorted(p for p in v.files if p.endswith(".bin"))
        for path in rng.sample(text, len(text) // 30):
            serial[0] += 1
            v.files[path] += b"# release %d edit %d\n" % (step, serial[0])
        for path in rng.sample(binary, len(binary) // 30):
            data = bytearray(v.files[path])
            _flip(data, rng, 3)
            v.files[path] = bytes(data)
        removable = [p for p in text if p not in ENTRY_POINTS]
        for path in rng.sample(removable, len(text) // 100) + rng.sample(binary, len(binary) // 100):
            del v.files[path]
        for _ in range((len(text) + len(binary)) // 100):
            p, m = rng.randrange(_PACKAGES), rng.randrange(_MODULES)
            _add_small(v, rng, f"app/lib/pkg{p:02d}/mod{m:02d}/new{serial[0]}", serial)
        if step % 2 == 0:
            plugins = sorted({p.split("/")[2] for p in v.files if p.startswith("app/plugins/")})
            prefix = f"app/plugins/{rng.choice(plugins)}"
            for path in [p for p in v.files if p.startswith(prefix + "/")]:
                del v.files[path]
            v.dirs = {d for d in v.dirs if d != prefix and not d.startswith(prefix + "/")}
            _plugin(v, rng, f"plugin{next_plugin}", serial)
            next_plugin += 1
        versions.append(v)
    return Chain(versions)


WORKLOADS = {
    "binary-flips": binary_flips,
    "text-churn": text_churn,
    "app-releases": app_releases,
}
