"""Import layering of the onboard modules, checked twice.

The replay path must not depend on the ground differ or on numpy. The
first check parses each onboard module with ``ast`` instead of importing
it, so it sees every import statement, including ones inside functions,
and loads nothing. It cannot see numpy arrive through a module that an
onboard process imports legitimately, such as :mod:`satpatch.diffgen`
through :mod:`satpatch.layerstore`. So the second check runs the onboard
path in a fresh interpreter: it imports every ``satpatch`` module,
decodes a package and applies it, and then reads ``sys.modules``.
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


def test_onboard_path_loads_no_numpy(tmp_path):
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
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", ONBOARD_PROBE, str(tmp_path / "old"), str(pkg)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
