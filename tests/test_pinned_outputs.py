"""Wire bytes and generated variants pinned by SHA-256.

A change to package framing, chunk boundaries, the delta or patch
coders, or the variant generator's random-call order moves one of them.
The package digests are of version 4 packages. Version 4 zeroed the four
header words that carried the chunker constants and writes the records in
manifest order, where version 3 sorted them by (path bytes, run). Only
``mixed`` inserts a file beside a patch, so only its records move. Each
container is pinned a second time as version 3 wrote it: with the version
byte, the chunker words and the record order set back it hashes as
before, which shows that nothing else moved.
"""

import gzip
import hashlib
import random
import struct

import pytest

from satpatch.corpusgen import generate_variant, sample_app_tree
from satpatch.diffgen import compare_trees
from satpatch.fstree import FileTree, tree_digest
from satpatch.package import encode_package


def _text(rng: random.Random, lines: int) -> bytes:
    words = "def return import self value config state data orbit".split()
    return b"".join(
        (" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))) + "\n").encode()
        for _ in range(lines)
    )


def text_only():
    rng = random.Random(11)
    old = {f"src/m{i}.py": _text(rng, 300) for i in range(4)}
    new = dict(old)
    for path in ("src/m0.py", "src/m2.py"):
        lines = new[path].split(b"\n")
        for _ in range(12):
            lines.insert(rng.randrange(len(lines)), b"# note %d" % rng.randrange(999))
        del lines[rng.randrange(len(lines))]
        new[path] = b"\n".join(lines)
    return FileTree.from_dict("t", old), FileTree.from_dict("t", new)


def binary_flips_and_shift():
    rng = random.Random(12)
    blob = rng.randbytes(3 * 1024 * 1024 + 517)
    flipped = bytearray(blob)
    for _ in range(40):
        pos = rng.randrange(len(flipped))
        flipped[pos] ^= 1 + rng.randrange(255)
    cut = rng.randrange(len(flipped))
    new = bytes(flipped[:cut]) + rng.randbytes(3001) + bytes(flipped[cut:])
    return (
        FileTree.from_dict("b", {"lib/model.bin": blob}),
        FileTree.from_dict("b", {"lib/model.bin": new}),
    )


def mixed_inserts_and_deletes():
    rng = random.Random(13)
    old = {
        "app": None,
        "app/gone": None,
        "app/gone/a.txt": b"alpha\n",
        "app/keep.py": _text(rng, 50),
        "app/old.bin": rng.randbytes(9000),
        "app/flip": b"was a file\n",
    }
    new = {
        "app": None,
        "app/keep.py": old["app/keep.py"] + b"x = 1\n",
        "app/fresh": None,
        "app/fresh/b.bin": rng.randbytes(5000),
        "app/new.txt": b"hello\n",
        "app/flip": None,
        "app/flip/inner": b"now a dir\n",
    }
    return FileTree.from_dict("m", old), FileTree.from_dict("m", new)


def empty():
    return FileTree.from_dict("e", {}), FileTree.from_dict("e", {})


PACKAGES = {
    "text-only": (text_only, "fa526eb3b18d42c6a447a4628192ed0b4f3869b0bb2b8ddec8027f97dc753d6e"),
    "binary": (
        binary_flips_and_shift,
        "96721abf96f1208ab35a86ebbe3166b3d6b10a7d173d31b8ee24b2bfff3c83d7",
    ),
    "mixed": (
        mixed_inserts_and_deletes,
        "8340b05aaa765dabd18d450906bde5ee280b1d104d0ca7e292b00005f6f7c95d",
    ),
    "empty": (empty, "06b862181709930a87b8a410874e46f13f1a9924bb63f6b69ae255f926a7723b"),
}

#: SHA-256 of the inflated container that version 3 encoded.
VERSION_3_CONTAINERS = {
    "text-only": "8a6feacf014626425f6b0e28d1c15bda18bc9f8ecdacbba9b495bc8c785f573e",
    "binary": "b2a50d6c452f4695a4ddcdb263552f906aded5769964640b65140c962e875759",
    "mixed": "308dfc2a26dc33c24019cb52294df1d813c0996fd699c27399a2a28593ecd4e9",
    "empty": "370744f1779ab77458a9bcbf1751c09874bcfffc3a4b8832770cf4dcba03a20b",
}


@pytest.mark.parametrize("name", PACKAGES)
def test_package_bytes_are_pinned(name):
    make, want = PACKAGES[name]
    old, new = make()
    assert hashlib.sha256(encode_package(compare_trees(old, new))).hexdigest() == want


def split_records(container: bytes) -> tuple[bytes, list[tuple[tuple[bytes, int], bytes]]]:
    """The container up to its first record, and each record keyed by
    (path bytes, run), in the order they are written."""
    head_end = 4 + 1 + 16 + 32 + 32
    (manifest_len,) = struct.unpack_from(">Q", container, head_end)
    pos = head_end + 8 + manifest_len + 4
    head, records = container[:pos], []
    while pos < len(container):
        (path_len,) = struct.unpack_from(">H", container, pos)
        path = container[pos + 2 : pos + 2 + path_len]
        run, seg_len = struct.unpack_from(">IQ", container, pos + 2 + path_len)
        end = pos + 2 + path_len + 12 + seg_len
        records.append(((path, run), container[pos:end]))
        pos = end
    return head, records


@pytest.mark.parametrize("name", VERSION_3_CONTAINERS)
def test_version_3_container_rebuilds_from_version_4(name):
    make, _ = PACKAGES[name]
    container = gzip.decompress(encode_package(compare_trees(*make())))
    assert container[4] == 4 and container[5:21] == bytes(16)
    head, records = split_records(container)
    assert (records != sorted(records)) == (name == "mixed")
    as_version_3 = (
        head[:4]
        + b"\x03"
        + struct.pack(">IIII", 48, 11, 256, 16384)
        + head[21:]
        + b"".join(record for _, record in sorted(records))
    )
    assert hashlib.sha256(as_version_3).hexdigest() == VERSION_3_CONTAINERS[name]


VARIANTS = {
    (0.1, 0): "c68dea4a75adede0c089e96cc3a8ec1fde31caa01b84da26b9c9f17b97e18c5e",
    (0.3, 1): "02f74bd1fe5d2367b39192454fc9b68ec461c7d83cec82a3cec3634c9b302990",
    (0.5, 2): "e0e7b406132e25284c824b2e4c44e4b144a2b689d67d11f7c3757bf69c097882",
}


@pytest.mark.parametrize("ratio,seed", VARIANTS)
def test_variant_trees_are_pinned(ratio, seed):
    variant = generate_variant(
        sample_app_tree(0), ratio, seed=seed, scope_prefix="app"
    )
    assert tree_digest(variant).hex() == VARIANTS[ratio, seed]
