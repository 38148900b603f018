"""Command-line front end.

Exit codes: 0 success, 1 usage, 2 bad input or state, 3 apply or verify
failure, 4 rollback performed. Handlers call the library directly and
:func:`main` alone maps a failure to its exit code: an ``ApplyError``
exits 3, and a ``PackageError``, any other ``SatpatchError`` or an
``OSError`` (a file that cannot be read or written, a store that cannot
be updated) exits 2. Machine consumers pass ``--json`` after any
subcommand and get one object on stdout with a versioned ``schema``
field; on any failure it is one ``error`` record. File outputs are
written to a temp sibling and moved into place only if nothing exists
there, so an interrupted run never leaves a half-written artifact and an
existing output is never replaced. ``diff`` and ``apply`` also report
where their time went (``timings``, in seconds per phase) and the
process's peak resident set (``peak_rss_kib``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import corpusgen, layerstore, linksim
from .diffgen import compare_trees
from .errors import ApplyError, PackageError, SatpatchError
from .fstree import FileTree, load_tree, materialize, tree_digest, write_tar
from .package import decode_package, encode_package, wire_layout
from .reconstruct import apply_changeset, replace_directory, restore_directory

SCHEMA = "satpatch-cli/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_APPLY = 3
EXIT_ROLLED_BACK = 4


class CliError(Exception):
    """A failure the library cannot type, with the exit code it takes."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2
    # for bad input files
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_bytes(path: str, data: bytes) -> None:
    target = Path(path)
    tmp = target.parent / f"{target.name}.tmp-{os.getpid()}"
    try:
        tmp.write_bytes(data)
        # a link, unlike a rename, fails on an existing target, so no
        # output is ever replaced and there is no check-then-write race
        os.link(tmp, target)
    except FileExistsError as exc:
        raise CliError(EXIT_INPUT, f"output path {path!r} already exists") from exc
    finally:
        if tmp.exists():
            tmp.unlink()


def _write_tree(tree: FileTree, out: str) -> None:
    if out.endswith(".tar"):
        _write_bytes(out, write_tar(tree))
    else:
        materialize(tree, out)


def _emit(args, human: str, payload: dict) -> None:
    if args.json:
        record = {"schema": SCHEMA, "command": args.command}
        record.update(payload)
        print(json.dumps(record, sort_keys=True))
    else:
        print(human)


class _Stopwatch:
    """Wall seconds per named phase, each phase ending at its ``lap``."""

    def __init__(self):
        self.timings: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.timings[phase] = now - self._last
        self._last = now


def _peak_rss_kib() -> int:
    """Peak resident set of this process since it was exec'd, in KiB.

    ``VmHWM`` belongs to this address space. Linux carries ``ru_maxrss``
    over ``execve``, so it can report the peak of a larger process that
    started this one; it is read only where ``/proc`` cannot be.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cost(watch: _Stopwatch) -> dict:
    """The ``timings`` and ``peak_rss_kib`` fields of a JSON record."""
    return {"timings": watch.timings, "peak_rss_kib": _peak_rss_kib()}


def _link(args, windows=None) -> linksim.LinkModel:
    try:
        return linksim.LinkModel(
            uplink_bandwidth_bps=args.bandwidth_kbps * 1000,
            contact_windows=windows,
        )
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from exc


def _kb(nbytes: int) -> str:
    return linksim.format_quantity(Fraction(nbytes, linksim.KIB))


def _latency_str(nbytes: int, link: linksim.LinkModel) -> str:
    return linksim.format_quantity(linksim.transmission_latency(nbytes, link))


# -- subcommand handlers -------------------------------------------------------


def _cmd_diff(args) -> int:
    watch = _Stopwatch()
    orig = load_tree(args.orig)
    upd = load_tree(args.upd)
    watch.lap("load")
    changeset = compare_trees(orig, upd)
    watch.lap("compare")
    blob = encode_package(changeset)
    watch.lap("encode")
    _write_bytes(args.output, blob)
    _emit(
        args,
        f"wrote {args.output} ({_kb(len(blob))} KB, {len(changeset.changes)} changes)",
        {
            "package": args.output,
            "bytes": len(blob),
            "changes": len(changeset.changes),
            "source_digest": changeset.source_digest.hex(),
            "target_digest": changeset.target_digest.hex(),
            **_cost(watch),
        },
    )
    return EXIT_OK


def _cmd_apply(args) -> int:
    watch = _Stopwatch()
    if args.output is None:
        restore_directory(args.orig)
        # after the restore: a cut swap leaves the directory absent
        if not Path(args.orig).is_dir():
            raise CliError(
                EXIT_USAGE, "in-place apply needs a directory tree; use -o"
            )
    orig = load_tree(args.orig)
    blob = Path(args.package).read_bytes()
    watch.lap("load")
    changeset = decode_package(blob)
    watch.lap("decode")
    new_tree, report = apply_changeset(orig, changeset)
    watch.lap("apply")
    out = args.output
    if out is None:
        replace_directory(new_tree, args.orig)
        out = args.orig
    else:
        _write_tree(new_tree, out)
    watch.lap("write")
    _emit(
        args,
        f"applied {len(changeset.changes)} changes to {out} "
        f"(digest {report.target_digest.hex()[:12]})",
        {
            "output": out,
            **asdict(report),
            "target_digest": report.target_digest.hex(),
            **_cost(watch),
        },
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    digest = tree_digest(load_tree(args.tree)).hex()
    expected = args.digest.lower() if args.digest else None
    match = None if expected is None else digest == expected
    _emit(
        args,
        digest if match is None else f"digest {'matches' if match else 'MISMATCH'}: {digest}",
        {"digest": digest, "expected": expected, "match": match},
    )
    return EXIT_OK if match in (None, True) else EXIT_APPLY


def _parse_windows(path: str) -> list[tuple[Fraction, Fraction]]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return [(Fraction(str(a)), Fraction(str(b))) for a, b in raw]
    except (ValueError, TypeError) as exc:
        raise CliError(
            EXIT_INPUT,
            f"windows file must be a JSON list of [start, duration]: {exc}",
        ) from exc


def _cmd_estimate(args) -> int:
    blob = Path(args.package).read_bytes()
    decode_package(blob)  # integrity gate before quoting numbers
    windows = _parse_windows(args.windows) if args.windows else None
    link = _link(args, windows)
    size = len(blob)
    payload = {
        "bytes": size,
        "kb": _kb(size),
        "latency_s": _latency_str(size, link),
        "bandwidth_bps": link.uplink_bandwidth_bps,
        "schedule": None,
    }
    lines = [
        f"package: {payload['kb']} KB",
        f"latency: {payload['latency_s']} s at {link.uplink_bandwidth_bps} bps",
    ]
    if windows is not None:
        sched = linksim.schedule_upload(size, link)
        if sched.completion_time_s is None:
            payload["schedule"] = {"undeliverable": True}
            lines.append("undeliverable: exceeds total contact window capacity")
        else:
            payload["schedule"] = {
                "undeliverable": False,
                "passes": sched.passes_used,
                "completion_s": linksim.format_quantity(sched.completion_time_s),
            }
            lines.append(
                f"passes: {sched.passes_used}, completes at "
                f"{payload['schedule']['completion_s']} s"
            )
    _emit(args, "\n".join(lines), payload)
    return EXIT_OK


_TOP_PATHS = 10


def _cmd_inspect(args) -> int:
    blob = Path(args.package).read_bytes()
    layout = wire_layout(blob)
    layout["paths"] = layout["paths"][:_TOP_PATHS]
    lines = [
        f"package: {len(blob)} B compressed",
        f"manifest: {layout['manifest_bytes']} B",
        f"segments: {layout['segment_bytes']} B",
        f"{'kind':<12}  {'changes':>8}  {'segment B':>12}  {'inserted B':>12}  "
        f"{'patched B':>12}",
    ]
    for kind, row in sorted(layout["kinds"].items()):
        lines.append(
            f"{kind:<12}  {row['changes']:>8}  {row['segment_bytes']:>12}  "
            f"{row['inserted']:>12}  {row['patched']:>12}"
        )
    if layout["paths"]:
        lines.append("top paths by segment bytes:")
        lines.extend(f"{nbytes:>12}  {path}" for path, nbytes in layout["paths"])
    layout["package_bytes"] = len(blob)
    _emit(args, "\n".join(lines), layout)
    return EXIT_OK


def _cmd_bench(args) -> int:
    link = _link(args)
    orig = load_tree(args.orig)
    upd = load_tree(args.upd)
    changeset = compare_trees(orig, upd)
    blob = encode_package(changeset)
    base = linksim.baseline_sizes(orig, upd, changeset, args.app_prefix)
    rows = [
        ("full-image", base.b1_bytes),
        ("app-dir", base.b2_bytes),
        ("changed-files", base.b3_bytes),
        ("delta", len(blob)),
    ]
    width = max(len(name) for name, _ in rows)
    lines = [f"{'strategy'.ljust(width)}  {'size KB':>12}  {'latency s':>12}"]
    for name, nbytes in rows:
        lines.append(
            f"{name.ljust(width)}  {_kb(nbytes):>12}  {_latency_str(nbytes, link):>12}"
        )
    _emit(
        args,
        "\n".join(lines),
        {
            "bandwidth_bps": link.uplink_bandwidth_bps,
            "rows": [
                {
                    "strategy": name,
                    "bytes": nbytes,
                    "kb": _kb(nbytes),
                    "latency_s": _latency_str(nbytes, link),
                }
                for name, nbytes in rows
            ],
        },
    )
    return EXIT_OK


def _cmd_commit(args) -> int:
    tree = load_tree(args.tree)
    layerstore.LayerStore(args.store).commit(tree, args.tag)
    digest = tree_digest(tree).hex()
    _emit(
        args,
        f"committed {args.tag} (active, digest {digest[:12]})",
        {"tag": args.tag, "digest": digest, "active": args.tag},
    )
    return EXIT_OK


def _cmd_mark_stable(args) -> int:
    layerstore.LayerStore(args.store).mark_stable(args.tag)
    _emit(args, f"marked {args.tag} stable", {"tag": args.tag, "stable": True})
    return EXIT_OK


_PHASES = {
    "update-process": layerstore.FailurePhase.UPDATE_PROCESS,
    "post-update": layerstore.FailurePhase.POST_UPDATE_EXECUTION,
}


def _cmd_rollback(args) -> int:
    try:
        event = layerstore.FailureEvent(_PHASES[args.phase], args.exit_code)
    except ValueError as exc:  # exit code 0
        raise CliError(EXIT_INPUT, str(exc)) from exc
    record = layerstore.LayerStore(args.store).on_failure(event)
    payload = {
        "rolled_back": not record.noop,
        "from": record.from_tag,
        "to": record.to_tag,
        "phase": event.phase.value,
    }
    if record.noop:
        _emit(args, f"active layer {record.to_tag} is stable; nothing to do", payload)
        return EXIT_OK
    _emit(
        args,
        f"rolled back {record.from_tag} -> {record.to_tag} "
        f"after {event.phase.value} failure (exit {args.exit_code})",
        payload,
    )
    return EXIT_ROLLED_BACK


def _cmd_gen_variant(args) -> int:
    orig = load_tree(args.orig)
    try:
        variant = corpusgen.generate_variant(orig, args.ratio, args.seed, args.scope)
    except ValueError as exc:  # a ratio outside [0, 1)
        raise CliError(EXIT_INPUT, str(exc)) from exc
    achieved = float(linksim.modification_ratio(orig, variant).ratio)
    _write_tree(variant, args.output)
    _emit(
        args,
        f"wrote {args.output} (ratio {achieved:.4f}, target {args.ratio})",
        {
            "output": args.output,
            "achieved_ratio": achieved,
            "target_ratio": args.ratio,
            "digest": tree_digest(variant).hex(),
        },
    )
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="satpatch", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    kbps = linksim.DEFAULT_UPLINK_BPS // 1000

    p = sub.add_parser("diff", parents=[common], help="build an update package")
    p.add_argument("orig", help="source tree (directory or tar)")
    p.add_argument("upd", help="target tree (directory or tar)")
    p.add_argument("-o", "--output", required=True, help="package file to write")
    p.set_defaults(handler=_cmd_diff)

    p = sub.add_parser("apply", parents=[common], help="apply a package to a tree")
    p.add_argument("orig", help="base tree (directory or tar)")
    p.add_argument("package", help="update package")
    p.add_argument(
        "-o", "--output", help="write result here instead of updating in place"
    )
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("verify", parents=[common], help="print or check a tree digest")
    p.add_argument("tree")
    p.add_argument("--digest", help="expected digest (hex)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("estimate", parents=[common], help="size and uplink latency")
    p.add_argument("package")
    p.add_argument("--bandwidth-kbps", type=int, default=kbps)
    p.add_argument(
        "--windows", help="JSON file of [start, duration] contact windows (s)"
    )
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser(
        "inspect", parents=[common], help="where a package's bytes go"
    )
    p.add_argument("package")
    p.set_defaults(handler=_cmd_inspect)

    p = sub.add_parser(
        "bench", parents=[common], help="compare against whole-artifact uploads"
    )
    p.add_argument("orig")
    p.add_argument("upd")
    p.add_argument("--app-prefix", default="", help="subtree for the app-dir baseline")
    p.add_argument("--bandwidth-kbps", type=int, default=kbps)
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("commit", parents=[common], help="record a tree as a new layer")
    p.add_argument("tree")
    p.add_argument("--store", required=True, help="layer store directory")
    p.add_argument("--tag", required=True)
    p.set_defaults(handler=_cmd_commit)

    p = sub.add_parser("mark-stable", parents=[common], help="mark the active layer stable")
    p.add_argument("--store", required=True)
    p.add_argument("--tag", required=True)
    p.set_defaults(handler=_cmd_mark_stable)

    p = sub.add_parser(
        "rollback", parents=[common], help="react to a failure event (exit 4 if rolled back)"
    )
    p.add_argument("--store", required=True)
    p.add_argument("--exit-code", type=int, default=1, help="observed process exit code")
    p.add_argument("--phase", choices=sorted(_PHASES), default="post-update")
    p.set_defaults(handler=_cmd_rollback)

    p = sub.add_parser(
        "gen-variant", parents=[common], help="synthesize an update at a target ratio"
    )
    p.add_argument("orig")
    p.add_argument("output", help="directory or .tar to write")
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scope", help="confine edits to this subtree prefix")
    p.set_defaults(handler=_cmd_gen_variant)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        code, message = exc.code, str(exc)
    except ApplyError as exc:
        code, message = EXIT_APPLY, f"apply failed, tree untouched: {exc}"
    except PackageError as exc:
        code, message = EXIT_INPUT, f"bad package: {exc}"
    except (SatpatchError, OSError) as exc:
        code, message = EXIT_INPUT, str(exc)
    if args.json:
        print(json.dumps({"schema": SCHEMA, "command": args.command, "error": message}))
    else:
        print(f"satpatch {args.command}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
