"""Uplink budgeting: latency, baseline upload sizes, modification ratio.

All latency math is exact rational arithmetic (fractions.Fraction); values
are rounded half-up to 2 decimals only at the reporting edge. KB means
1024 bytes everywhere.

Baselines model the three conventional upload strategies: B1 ships the
whole tree, B2 the configured application subtree, B3 just the changed
files, each as a deterministic gzip'd tar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diffgen import retained_bytes
from .errors import LinkError, PrefixMatchError
from .fstree import FileTree, under_prefix, write_tar
from .package import CONTENT_KINDS, ChangeSet, gzip_bytes

KIB = 1024
DEFAULT_UPLINK_BPS = 200_000


def _to_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            "pass exact values (int, str, Fraction); floats carry binary noise"
        )
    return Fraction(value)


@dataclass(frozen=True)
class LinkModel:
    """Constant-rate uplink, optionally usable only during contact windows.

    Windows are (start_s, duration_s) pairs, exact numbers (int, str, or
    Fraction), sorted and non-overlapping.
    """

    uplink_bandwidth_bps: int = DEFAULT_UPLINK_BPS
    contact_windows: tuple[tuple[Fraction, Fraction], ...] | None = None

    def __post_init__(self):
        if not isinstance(self.uplink_bandwidth_bps, int):
            raise TypeError("bandwidth must be an int number of bits per second")
        if self.uplink_bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.contact_windows is None:
            return
        normalized = tuple(
            (_to_fraction(s), _to_fraction(d)) for s, d in self.contact_windows
        )
        object.__setattr__(self, "contact_windows", normalized)
        prev_end = None
        for start, duration in normalized:
            if duration <= 0:
                raise ValueError("window duration must be positive")
            if prev_end is not None and start < prev_end:
                raise ValueError("windows must be sorted and non-overlapping")
            prev_end = start + duration


def round_half_up(value: Fraction) -> Fraction:
    """Round to 2 decimal places, ties toward +inf."""
    return Fraction((value * 100 + Fraction(1, 2)).__floor__(), 100)


def format_quantity(value: Fraction) -> str:
    """Render with comma thousands grouping and exactly 2 decimals."""
    cents = int(round_half_up(value) * 100)
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100:,}.{cents % 100:02d}"


def transmission_latency(package_bytes, link: LinkModel = LinkModel()) -> Fraction:
    """Exact uplink seconds for a payload: bytes * 8 / bandwidth.

    Accepts exact fractional byte counts so KB-denominated sizes (e.g.
    Fraction('48.64') * 1024) stay exact end to end.
    """
    size = _to_fraction(package_bytes)
    if size < 0:
        raise ValueError("package size cannot be negative")
    return size * 8 / link.uplink_bandwidth_bps


# -- baseline strategies -------------------------------------------------


@dataclass(frozen=True)
class BaselineSizes:
    b1_bytes: int
    b2_bytes: int
    b3_bytes: int


def _gzip_size(data: bytes) -> int:
    return len(gzip_bytes(data))


def baseline_sizes(
    orig: FileTree, upd: FileTree, changeset: ChangeSet, app_prefix: str = ""
) -> BaselineSizes:
    """Upload sizes of the three conventional strategies, in bytes.

    B1: the full updated tree. B2: entries at or under ``app_prefix``
    (everything when the prefix is empty; see :func:`under_prefix`). B3:
    only files the changeset adds or modifies. All are level-9 gzip'd
    deterministic tars.
    """
    b1 = _gzip_size(write_tar(upd))
    if app_prefix:
        under = list(filter(under_prefix(app_prefix), upd))
        if not under:
            raise PrefixMatchError(
                f"application prefix {app_prefix!r} matches no entries"
            )
        b2 = _gzip_size(write_tar(upd, paths=under))
    else:
        b2 = b1
    changed_files = [c.path for c in changeset.changes if c.kind in CONTENT_KINDS]
    b3 = _gzip_size(write_tar(upd, paths=changed_files))
    return BaselineSizes(b1, b2, b3)


# -- modification ratio ---------------------------------------------------


@dataclass(frozen=True)
class ModRatioReport:
    """How much of the new version is not retained from the old one. An
    updated tree with no file bytes (``s_upd_bytes == 0``) has ratio 0."""

    s_preserved_bytes: int
    s_upd_bytes: int
    ratio: Fraction


def modification_ratio(orig: FileTree, upd: FileTree) -> ModRatioReport:
    """ratio = 1 - S_preserved/S_upd.

    S_upd is the total file byte size of the updated tree. S_preserved
    counts unchanged files in full plus the bytes of every changed file
    that its patch retains, as the unit script that builds update
    packages finds them (:func:`satpatch.diffgen.retained_bytes`). A file
    at a path that held none retains nothing.
    """
    s_upd = upd.total_file_bytes()
    if s_upd == 0:
        return ModRatioReport(0, 0, Fraction(0))
    preserved = 0
    for path, entry in upd.files():
        o = orig.get(path)
        if o is None or not o.is_file:
            continue
        if o.content_hash == entry.content_hash:
            preserved += len(entry.content)
        else:
            preserved += retained_bytes(o.content, entry.content)
    return ModRatioReport(preserved, s_upd, 1 - Fraction(preserved, s_upd))


# -- contact-window scheduling --------------------------------------------


@dataclass(frozen=True)
class ScheduleReport:
    """Outcome of pushing a package through discrete contact windows.
    ``completion_time_s`` is None when the package does not fit."""

    passes_used: int
    completion_time_s: Fraction | None


def schedule_upload(package_bytes: int, link: LinkModel) -> ScheduleReport:
    """Greedily fill contact windows in order at full bandwidth.

    Returns the pass count and absolute completion time; the time is None
    when the horizon's capacity is too small.
    """
    if not link.contact_windows:
        raise LinkError("link model has no contact windows")
    if package_bytes < 0:
        raise ValueError("package size cannot be negative")
    if package_bytes == 0:
        return ScheduleReport(0, link.contact_windows[0][0])
    remaining_bits = Fraction(package_bytes * 8)
    bw = link.uplink_bandwidth_bps
    for passes, (start, duration) in enumerate(link.contact_windows, start=1):
        capacity = duration * bw
        if remaining_bits <= capacity:
            return ScheduleReport(passes, start + remaining_bits / bw)
        remaining_bits -= capacity
    return ScheduleReport(len(link.contact_windows), None)
