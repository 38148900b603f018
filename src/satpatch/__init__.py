"""Delta updates for containerized satellite applications.

Modules cover the full update path: model an unpacked application as a
file tree (:mod:`satpatch.fstree`), define the update package, its change
set and its wire format (:mod:`satpatch.package`), search for a
content-aware delta on the ground (:mod:`satpatch.diffgen`), replay it on
board (:mod:`satpatch.reconstruct`), manage installed versions and
rollback (:mod:`satpatch.layerstore`), budget transmission time
(:mod:`satpatch.linksim`), and synthesize update corpora for evaluation
(:mod:`satpatch.corpusgen`).
"""

__version__ = "0.1.0"

from .diffgen import compare_trees
from .errors import (
    ApplyError,
    LayerStoreError,
    LinkError,
    PackageError,
    PathError,
    SatpatchError,
    TreeError,
    VariantError,
)
from .fstree import FileTree, load_tree, materialize, tree_digest, write_tar
from .package import decode_package, encode_package
from .reconstruct import ApplyReport, apply_changeset, apply_package

__all__ = [
    "ApplyError",
    "ApplyReport",
    "FileTree",
    "LayerStoreError",
    "LinkError",
    "PackageError",
    "PathError",
    "SatpatchError",
    "TreeError",
    "VariantError",
    "apply_changeset",
    "apply_package",
    "compare_trees",
    "decode_package",
    "encode_package",
    "load_tree",
    "materialize",
    "tree_digest",
    "write_tar",
    "__version__",
]
