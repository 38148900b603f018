"""The README's library example runs as written against the current API."""

import random
import re
from pathlib import Path

from satpatch.fstree import FileTree, materialize

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first ``python`` block after the README's "As a library" line."""
    text = README.read_text()
    start = text.index("As a library")
    match = re.compile(r"```python\n(.*?)```", re.S).search(text, start)
    assert match, "no python block after 'As a library'"
    return match.group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    rng = random.Random(3)
    blob = rng.randbytes(60_000)
    materialize(
        FileTree.from_dict("v1", {"app/main.py": b"run()\n", "app/data.bin": blob}),
        tmp_path / "v1",
    )
    materialize(
        FileTree.from_dict(
            "v2",
            {
                "app/main.py": b"setup()\nrun()\n",
                "app/data.bin": blob[:30_000] + b"patch" + blob[30_000:],
                "app/extra.txt": b"new\n",
            },
        ),
        tmp_path / "v2",
    )
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["report"].files_added == 1
