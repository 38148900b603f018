"""Delta updates for containerized satellite applications.

Modules cover the full update path: model an unpacked application as a
file tree (:mod:`satpatch.fstree`), define the update package, its change
set and its wire format (:mod:`satpatch.package`), search for a
content-aware delta on the ground (:mod:`satpatch.diffgen`), replay it on
board (:mod:`satpatch.reconstruct`), manage installed versions and
rollback (:mod:`satpatch.layerstore`), budget transmission time
(:mod:`satpatch.linksim`), and synthesize update corpora for evaluation
(:mod:`satpatch.corpusgen`). The package itself imports nothing, so
import each name from the module that defines it.
"""
