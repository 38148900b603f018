"""Import layering of the onboard modules, checked three ways.

The replay path must not depend on the ground differ or on numpy. The
first check parses each onboard module with ``ast`` instead of importing
it, so it sees every import statement, including ones inside functions,
and loads nothing. It cannot see numpy arrive through a module that an
onboard process imports legitimately, such as :mod:`satpatch.diffgen`
through :mod:`satpatch.layerstore`. So the other two checks run the
onboard path in a fresh interpreter and then read ``sys.modules``. One
imports every ``satpatch`` module, decodes a package and applies it, and
finds no numpy. The other imports only the replay's own modules, does the
same, and finds no ground module loaded.
"""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from satpatch.diffgen import compare_trees
from satpatch.fstree import FileTree, materialize
from satpatch.package import encode_package

SRC = Path(__file__).resolve().parent.parent / "src" / "satpatch"

#: module -> the satpatch modules it may import
ALLOWED = {
    "errors": set(),
    "fstree": {"errors"},
    "package": {"errors", "fstree"},
    "reconstruct": {"errors", "fstree", "package"},
    "__init__": set(),
    # diffgen leaves with the move of ``recovery_cost`` out of the store,
    # once the benchmark stops rebinding ``layerstore.compare_trees``
    "layerstore": {"errors", "fstree", "package", "diffgen"},
}


def imports_of(source: Path) -> tuple[set[str], set[str]]:
    """(satpatch modules, top-level outside packages) that ``source`` imports."""
    tree = ast.parse(source.read_text(), filename=source.name)
    ours, outside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "satpatch":
                    ours.add(rest.partition(".")[0] or "satpatch")
                else:
                    outside.add(top)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                top, _, rest = (node.module or "").partition(".")
                if top != "satpatch":
                    outside.add(top)
                    continue
                base = rest
            else:
                base = node.module or ""
            if base:
                ours.add(base.partition(".")[0])
            else:  # from . import x, y
                ours.update(alias.name for alias in node.names)
    return ours, outside


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_follow_the_layering(module):
    ours, outside = imports_of(SRC / f"{module}.py")
    assert ours <= ALLOWED[module], f"{module} imports {sorted(ours - ALLOWED[module])}"
    assert "numpy" not in outside


def test_the_check_sees_relative_absolute_and_local_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import diffgen\n"
        "from .package import ChangeSet\n"
        "import satpatch.layerstore\n"
        "def lazy():\n"
        "    import numpy as np\n"
    )
    assert imports_of(probe) == ({"diffgen", "package", "layerstore"}, {"numpy"})


#: Runs in a fresh interpreter: argv is the base tree and the package.
ONBOARD_PROBE = """
import importlib, pkgutil, sys
import satpatch
for mod in pkgutil.iter_modules(satpatch.__path__):
    importlib.import_module(f"satpatch.{mod.name}")
from satpatch.fstree import load_tree
from satpatch.package import decode_package
from satpatch.reconstruct import apply_changeset
blob = open(sys.argv[2], "rb").read()
apply_changeset(load_tree(sys.argv[1]), decode_package(blob))
assert "numpy" not in sys.modules, "the onboard path loaded numpy"
from satpatch import diffgen
diffgen.chunkify(bytes(range(256)) * 400)
assert "numpy" in sys.modules, "the probe cannot see numpy load"
"""


#: Runs in a fresh interpreter: argv is the base tree and the package.
REPLAY_PROBE = """
import sys
from satpatch.fstree import load_tree
from satpatch.package import decode_package
from satpatch.reconstruct import apply_changeset
blob = open(sys.argv[2], "rb").read()
apply_changeset(load_tree(sys.argv[1]), decode_package(blob))
ground = ["satpatch.diffgen", "satpatch.layerstore", "satpatch.linksim",
          "satpatch.corpusgen", "numpy"]
loaded = [name for name in ground if name in sys.modules]
assert not loaded, f"the replay loaded {loaded}"
"""


@pytest.fixture
def onboard_update(tmp_path):
    """(base tree directory, package file) of a text and binary update."""
    rng = random.Random(5)
    blob = rng.randbytes(100_000)
    old = FileTree.from_dict("old", {"app/main.py": b"run()\n", "app/data.bin": blob})
    new = FileTree.from_dict(
        "new",
        {
            "app/main.py": b"setup()\nrun()\n",
            "app/data.bin": blob[:40_000] + b"patch" + blob[40_000:],
            "app/extra.txt": b"new\n",
        },
    )
    materialize(old, tmp_path / "old")
    pkg = tmp_path / "update.satpkg"
    pkg.write_bytes(encode_package(compare_trees(old, new)))
    return tmp_path / "old", pkg


def run_probe(probe: str, update: tuple[Path, Path]) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", probe, *map(str, update)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_onboard_path_loads_no_numpy(onboard_update):
    run_probe(ONBOARD_PROBE, onboard_update)


def test_replay_loads_no_ground_module(onboard_update):
    run_probe(REPLAY_PROBE, onboard_update)
