"""One side of the life cycle in a process of its own, for its peak RSS.

    python3 bench/child.py diff WORK    # ground: versions/v*.tar -> pkgs/u*.satpkg
    python3 bench/child.py apply WORK   # onboard: pkgs/u*.satpkg into child-store/

Each mode runs one pass of the chain (see ``gen.schedule``) the way the
ground tool or the onboard agent would, then prints its own peak RSS as
``{"peak_rss_kib": N}``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import gen
from run import FAILURE_EXIT_CODE, import_program


def diff(work: Path) -> None:
    from satpatch.diffgen import compare_trees
    from satpatch.fstree import load_tree
    from satpatch.package import encode_package

    for base, target, _ in gen.schedule():
        old = load_tree(work / "versions" / f"v{base}.tar")
        new = load_tree(work / "versions" / f"v{target}.tar")
        blob = encode_package(compare_trees(old, new))
        (work / "pkgs" / f"u{target}.satpkg").write_bytes(blob)


def apply(work: Path) -> None:
    from satpatch.layerstore import FailureEvent, FailurePhase, LayerStore
    from satpatch.package import decode_package
    from satpatch.reconstruct import apply_changeset

    store = LayerStore(work / "child-store")
    for _, target, fails in gen.schedule():
        blob = (work / "pkgs" / f"u{target}.satpkg").read_bytes()
        new_tree, _ = apply_changeset(store.active_tree(), decode_package(blob))
        tag = f"u{target}"
        store.commit(new_tree, tag)
        if fails:
            store.on_failure(
                FailureEvent(FailurePhase.POST_UPDATE_EXECUTION, FAILURE_EXIT_CODE)
            )
            store.active_tree()
        else:
            store.mark_stable(tag)


def peak_rss_kib() -> int:
    """Peak resident set of this process since it was exec'd.

    ``getrusage`` cannot be used here: Linux carries ``ru_maxrss`` over
    ``execve``, so a child started from the large benchmark process would
    report the parent's peak. ``VmHWM`` belongs to the new address space.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    mode, work = sys.argv[1], Path(sys.argv[2])
    import_program()
    {"diff": diff, "apply": apply}[mode](work)
    print(json.dumps({"peak_rss_kib": peak_rss_kib()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
