"""Import layering of the onboard modules, read from the source.

The replay path must not depend on the ground differ or on numpy. The
check parses each module with ``ast`` instead of importing it, so it
sees every import statement, including ones inside functions, and loads
nothing.
"""

import ast
from pathlib import Path

import pytest

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
