"""Exception hierarchy shared by all satpatch modules.

Every failure that callers are expected to handle derives from
:class:`SatpatchError`, so CLI and library users can catch one base type
and still discriminate on the concrete subclass when they need to.
"""


class SatpatchError(Exception):
    """Base class for all satpatch errors."""


# --- file tree loading / path handling ---------------------------------


class TreeError(SatpatchError):
    """Invalid file tree structure or unloadable source."""


class PathError(TreeError):
    """A path failed normalization (empty, escaping, bad segment)."""

    def __init__(self, path, reason):
        super().__init__(f"invalid path {path!r}: {reason}")


# --- update package wire format ----------------------------------------


class PackageError(SatpatchError):
    """Base for encode/decode failures of the .satpkg wire format."""


class BadMagicError(PackageError):
    pass


class UnsupportedVersionError(PackageError):
    pass


class TruncatedPackageError(PackageError):
    pass


class CorruptPackageError(PackageError):
    """Compressed stream damage (CRC/length failure) or trailing garbage."""


class ManifestError(PackageError):
    """Manifest line that does not parse or violates op grammar."""

    def __init__(self, message, line_no=None, path=None):
        loc = []
        if line_no is not None:
            loc.append(f"line {line_no}")
        if path is not None:
            loc.append(f"path {path!r}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)


class PackageInconsistencyError(PackageError):
    """Manifest and segment records disagree (a missing, extra, repeated or
    misplaced record), or a change's segments do not fit its ops."""

    def __init__(self, message, path=None):
        super().__init__(message if path is None else f"{message} (path {path!r})")


# --- onboard reconstruction --------------------------------------------


class ApplyError(SatpatchError):
    """Base for reconstruction failures; the input tree is left untouched."""


class BaseVersionMismatchError(ApplyError):
    """Package was built against a different source tree."""


class EditScriptError(ApplyError):
    """Edit operations do not line up with the original unit sequence."""


class DeltaRunError(ApplyError):
    """A chunk run does not rebuild exactly the span its op declares: an
    insert run that does not inflate, against the old bytes before it, to
    that span, or an X run whose segment is empty, ends inside a pair,
    has a gap that is not minimal or a zero XOR byte, or patches a byte
    at or past the span."""


class DigestMismatchError(ApplyError):
    """Reconstructed tree digest differs from the packaged target digest."""

    def __init__(self, expected_hex, actual_hex):
        super().__init__(
            f"reconstructed tree digest {actual_hex} != packaged target {expected_hex}"
        )


# --- layer store --------------------------------------------------------


class LayerStoreError(SatpatchError):
    pass


class DuplicateTagError(LayerStoreError):
    pass


class UnknownTagError(LayerStoreError):
    pass


class NotActiveError(LayerStoreError):
    """Operation requires the named layer to be the active one."""


class UnrecoverableStateError(LayerStoreError):
    """Failure arrived but no stable layer exists to roll back to."""


# --- link model / baselines ---------------------------------------------


class LinkError(SatpatchError):
    pass


class PrefixMatchError(LinkError):
    """Application-layer prefix matched no entries in the tree."""


# --- synthetic variant generation ----------------------------------------


class VariantError(SatpatchError):
    """Target modification ratio could not be reached; the message ends
    with the ratio that was achieved."""

    def __init__(self, message, achieved_ratio):
        super().__init__(f"{message} (achieved {achieved_ratio:.4f})")
        self.achieved_ratio = achieved_ratio
