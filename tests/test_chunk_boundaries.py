"""Chunk boundaries: pinned digests, a definition oracle and a memory bound.

Chunk boundaries decide which byte spans a package retains, so moving
one changes package bytes and can break the C5 localisation gate, even
though the receiver never chunks. The digests below were recorded from the
original uint64 chunker, before the blocked uint32 one replaced it. The
oracle test keeps the 64-bit definition of a boundary in plain Python.
"""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satpatch import diffgen
from satpatch.diffgen import ChunkSpec, chunk_lengths

SPECS = (
    ChunkSpec(),
    ChunkSpec(8, 4, 16, 64),
    ChunkSpec(1, 0, 1, 1),
    ChunkSpec(64, 32, 1, 2**20),
    ChunkSpec(200_000, 3, 1, 2**20),  # window wider than a block
    ChunkSpec(16, 7, 32, 1024),
)
#: SHA-256 of ",".join(map(str, chunk_lengths(data, spec))), one per spec
#: in SPECS order, recorded from the uint64 chunker this one replaced. The
#: inputs (see ``pinned_input``) are random bytes of lengths 0, 1, 47-49,
#: around the 2**18-byte block edge, 600,000 and 3 MiB, and zero bytes.
PINNED = {
    "random-0": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "random-1": (
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "random-47": (
        "31489056e0916d59fe3add79e63f095af3ffb81604691f21cad442a85c7be617",
        "33da1e5f30c380aa104561837b4d203429cb5e111646907f03358f52982fed04",
        "51c02e3f3f59ab848c456b846f4c16677197aef9021589925dbb1f5b2462769f",
        "31489056e0916d59fe3add79e63f095af3ffb81604691f21cad442a85c7be617",
        "31489056e0916d59fe3add79e63f095af3ffb81604691f21cad442a85c7be617",
        "31489056e0916d59fe3add79e63f095af3ffb81604691f21cad442a85c7be617",
    ),
    "random-48": (
        "98010bd9270f9b100b6214a21754fd33bdc8d41b2bc9f9dd16ff54d3c34ffd71",
        "a22a6cde36f7f887df95bf8b3808b526ed8ac31d55583f6d094c7b38445b66fb",
        "db15076d418e292798413108a527f36a747a9b0a297a5f6fe6e2c39e3c12372b",
        "98010bd9270f9b100b6214a21754fd33bdc8d41b2bc9f9dd16ff54d3c34ffd71",
        "98010bd9270f9b100b6214a21754fd33bdc8d41b2bc9f9dd16ff54d3c34ffd71",
        "98010bd9270f9b100b6214a21754fd33bdc8d41b2bc9f9dd16ff54d3c34ffd71",
    ),
    "random-49": (
        "0e17daca5f3e175f448bacace3bc0da47d0655a74c8dd0dc497a3afbdad95f1f",
        "4e54dcc0f10f1407813b6aaa1077f5e275f38136405d3dd150416a080ec1d7fa",
        "e5fd2311c164500743eae8e0604afec9ec086d552a4fdbff9b61a1e25fc56b3f",
        "0e17daca5f3e175f448bacace3bc0da47d0655a74c8dd0dc497a3afbdad95f1f",
        "0e17daca5f3e175f448bacace3bc0da47d0655a74c8dd0dc497a3afbdad95f1f",
        "0e17daca5f3e175f448bacace3bc0da47d0655a74c8dd0dc497a3afbdad95f1f",
    ),
    "random-262143": (
        "3eb70bb6bc2b0e641303b2c571b50f8dfa9b58a125e5be73d44c5aa8c03ae94d",
        "44b851c6511e03b6ddf37452bfd336682948e3366f7c3c41083ae410d0b64041",
        "a33df4e7c69f1016adf46350d6da01802f93d7d7b9740605b1d38650592bd8c4",
        "40d314f15bb6afc3fb91cbc1a8bda927f22e6b74f2aa20900a0806588552e68c",
        "31b6cf1f35cce4a98aeac5139ea09e41e32e3609a22ec94dffb9e3f0985771db",
        "4b728b3e1d998fe0691dfa3c5c96923a776d72519a84a2e9f1cb462b997cb69b",
    ),
    "random-262144": (
        "05f4d393496547f4ed9c6d38ee46fb1667a02138bb270ff67576d2bd7b4e924a",
        "5a681b67925492a77e90180acb3f67375ef6ef020ca422129492384e93ba037f",
        "eedbcc21b2105a30c66e35e2f87d04c757458d0ca774e97e0af0c503c9676239",
        "54faea9b3eeffce2a5ea906fdd1232a52a55d57d993e5406a572b9a9ea2827d8",
        "9f4dc715e24247c398dd6f7cf42272c458f805d924c18192c4db5f71ac93c9b8",
        "31f2701bfb396d7a92ff049884c96323155eaa38f73606482211cd8960ad3a1a",
    ),
    "random-262191": (
        "c57b10caa9156c47648f5e4517a85f2d567e48210280418b604955f9a19779c0",
        "8199d3a5bdae87aa05dba717a8d1e1a5d8606d706735bebad85b89d14a47899c",
        "90b3bb31d8984f6644499a239cfc7e3b25fcf3b29d8d133eefbd916b19c95c34",
        "5844882f097306f1654c460c84090039400e0463902a93101f12aa2c596039c3",
        "78c9c041ec441531182db8e1e7133f018f83a7229c7fd1958e75109762098830",
        "b2609bcdb9f604d25caca9c0d48472021ac4aa2905c9663af16217852f2eda3e",
    ),
    "random-262192": (
        "38c863e350f054c01958b358d85e20572313b93ec432894d013e9aff7dbd347d",
        "e09b0f9ea1251eca098ce2c1ded07d89320d12ba68a6aa80b4ee71411443a3bc",
        "439aab855647be95b41eac7be80569c722cc472127e353a04dc26e8ec32a26f8",
        "44b3a029823cc2e8e69838e2da49622b2359befc8ee40ffdcc00be0ddfbaf3c5",
        "87d3adb05006ced62968fc7fdbbef302cd58f8b3e7b46ab62f819d09d7ea5800",
        "fe464eaa2addbe612ea8681302aa35b29ac4866fc813992c8c64968ff548058b",
    ),
    "random-600000": (
        "7678c10559ace08b09725382e5e3870d8028f45517970d21ee7e78636567c12e",
        "84c489ca0bb287adcfe00a2c54c8a5325f6b72f2a3c77dbf659413638b5b22a5",
        "65fdac4a84af1863df63674b0d4620c77801ce2ded1f38acb4f32202e9b7d55d",
        "a3c25177bb8fb18ab261743d2296eb0edb79ee7234493f24f20b8f85b5b9a9d8",
        "f123ddc4a954ca31fac827bb9e5f82362ccb18827d046c6ce0b62b797c4f19d0",
        "f071083c6879f4490f90e8825ceefd15b5c1dc7003c178c1e4e9e1960f1154da",
    ),
    "random-3145728": (
        "fc263a6794c2e348b0813659480ac981759bfd93789f51241ab1403622092835",
        "96c2a1d54bfddf2527ac8307da572a94a0876ab00fd2b7da9674bde16c860e52",
        "a59e615bdb5af21d570a7dde56cad913c06e7119d6d3fdc9517fe18e4160e30a",
        "c76eba82fd35d178a4e8f835b1616453283774c9aa8b99a3a16edc5487b2a012",
        "ada82091b52010f5b8266de0e08f47ef59e7c4740eb4bca36f5d9d32e3a4b5ea",
        "4adf97262a98b87e934f258602aa7c1c7d1bdd8831d76d4316e7e33c4e942349",
    ),
    "zeros-300000": (
        "14f7a1bc95b57e3131dcf6594ca12238cc951e157a733d3aa7d3f1b9ed5ab9cf",
        "138e70e6b5ca2d830198fc3fed5dbaa20baa5d7aa91bce5f74481f8788b418be",
        "80444e4608f0485905844c5419443cb9fa220bde7ff9887ab6e6045017407e39",
        "6ce318969619d1c360b6144be09e3d3a22674897c7cbfe995716ed8b7ff7c4cf",
        "d2a1275fd49ecf7eedee33d4c44d31974236fe30d8cc0e9b9a0e01ce0200daa7",
        "e4f09de229297ae8204f5bb486468861f2e2f0f63fba7b881906922bd4bc40c7",
    ),
}


def pinned_input(name: str) -> bytes:
    kind, n = name.split("-")
    return bytes(int(n)) if kind == "zeros" else random.Random(int(n)).randbytes(int(n))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_boundaries_match_pinned_digests(name):
    data = pinned_input(name)
    got = tuple(
        hashlib.sha256(",".join(map(str, chunk_lengths(data, spec))).encode()).hexdigest()
        for spec in SPECS
    )
    assert got == PINNED[name]


# -- the definition, in plain Python ------------------------------------------

MULT = 1000000007
W64 = [int.from_bytes(hashlib.sha256(bytes([v])).digest()[:8], "big") for v in range(256)]
POW64 = [MULT**j % 2**64 for j in range(512)]  # mult**j mod 2**64


def is_boundary(data: bytes, pos: int, spec: ChunkSpec) -> bool:
    """Does the full window ending at ``pos`` hash to zero masked bits?"""
    h = sum(W64[data[pos - j]] * POW64[j] for j in range(spec.window)) % 2**64
    return h & ((1 << spec.mask_bits) - 1) == 0


def definition_candidates(data: bytes, spec: ChunkSpec) -> list[int]:
    return [
        pos for pos in range(spec.window - 1, len(data)) if is_boundary(data, pos, spec)
    ]


@settings(max_examples=150, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=2048),
        st.lists(st.sampled_from(b"\x00\x01\xff"), max_size=2048).map(bytes),
    ),
    window=st.integers(1, 64),
    mask_bits=st.integers(0, 32),
)
def test_candidates_follow_the_definition(data, window, mask_bits):
    spec = ChunkSpec(window=window, mask_bits=mask_bits)
    got = diffgen._boundary_candidates(data, spec).tolist()
    assert got == definition_candidates(data, spec)


@pytest.mark.parametrize("window,mask_bits", [(48, 4), (1, 2), (300, 3)])
def test_candidates_follow_the_definition_across_a_block_edge(window, mask_bits):
    # Windows that end just before, on and after the first block's end, so
    # both the restarted prefix sums and the block overlap are exercised.
    edge = diffgen._BLOCK
    data = random.Random(window).randbytes(edge + 2 * window + 64)
    spec = ChunkSpec(window=window, mask_bits=mask_bits)
    lo = edge - window - 64
    got = [p for p in diffgen._boundary_candidates(data, spec).tolist() if p >= lo]
    want = [p for p in range(lo, len(data)) if is_boundary(data, p, spec)]
    assert want and got == want


def test_chunk_lengths_memory_is_bounded():
    data = random.Random(7).randbytes(4 << 20)
    tracemalloc.start()
    try:
        chunk_lengths(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, f"chunk_lengths peaked at {peak / 2**20:.1f} MiB"
