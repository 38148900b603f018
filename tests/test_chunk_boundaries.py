"""Chunk boundaries: pinned digests, two plain-Python oracles and memory bounds.

Chunk boundaries decide which byte spans a package retains, so moving
one changes package bytes and can break the C5 localisation gate, even
though the receiver never chunks. The digests below were recorded from
earlier chunkers: the original uint64 one, and the blocked uint32 one
with prefix sums, for the inputs around today's 64 KiB block edge. The
chunker now sums each window by doubling in uint16 blocks. The oracle
tests keep the 64-bit definition of a boundary in plain Python, once
window by window and once as an O(n) rolling hash over inputs that span
several blocks.
"""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satpatch import diffgen
from satpatch.diffgen import MASK_BITS, WINDOW, chunk_lengths

#: SHA-256 of ",".join(map(str, chunk_lengths(data))). The inputs (see
#: ``pinned_input``) are random bytes of lengths 0, 1, 47-49, around the
#: 2**18-byte block edge of the uint32 chunker, 600,000 and 3 MiB, and
#: zero bytes, recorded from the uint64 chunker; and random bytes around
#: the 2**16-byte block edge of the uint16 chunker, recorded from the
#: uint32 one before the uint16 one replaced it.
PINNED = {
    "random-0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-1": "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    "random-47": "31489056e0916d59fe3add79e63f095af3ffb81604691f21cad442a85c7be617",
    "random-48": "98010bd9270f9b100b6214a21754fd33bdc8d41b2bc9f9dd16ff54d3c34ffd71",
    "random-49": "0e17daca5f3e175f448bacace3bc0da47d0655a74c8dd0dc497a3afbdad95f1f",
    "random-65535": "cfa2b667c6aa1203fe286d3f93953ac06206999957914a1fdebc71c74b91fb0c",
    "random-65536": "e7e69a9dac8abd4ce89c489fea2bc59fe75cb3eac28fd010a74a75d407d5d727",
    "random-65583": "364773e3425f9dd1c7b6e65053bf2d17a2fcb4e82671ba1db167275774e8f446",
    "random-65584": "b69d54624bb91f8badd5a510e73e2a45f0bc571a0b42ffebd780ead77c628b97",
    "random-262143": "3eb70bb6bc2b0e641303b2c571b50f8dfa9b58a125e5be73d44c5aa8c03ae94d",
    "random-262144": "05f4d393496547f4ed9c6d38ee46fb1667a02138bb270ff67576d2bd7b4e924a",
    "random-262191": "c57b10caa9156c47648f5e4517a85f2d567e48210280418b604955f9a19779c0",
    "random-262192": "38c863e350f054c01958b358d85e20572313b93ec432894d013e9aff7dbd347d",
    "random-600000": "7678c10559ace08b09725382e5e3870d8028f45517970d21ee7e78636567c12e",
    "random-3145728": "fc263a6794c2e348b0813659480ac981759bfd93789f51241ab1403622092835",
    "zeros-300000": "14f7a1bc95b57e3131dcf6594ca12238cc951e157a733d3aa7d3f1b9ed5ab9cf",
}


def pinned_input(name: str) -> bytes:
    kind, n = name.split("-")
    return bytes(int(n)) if kind == "zeros" else random.Random(int(n)).randbytes(int(n))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_boundaries_match_pinned_digests(name):
    lengths = chunk_lengths(pinned_input(name))
    assert hashlib.sha256(",".join(map(str, lengths)).encode()).hexdigest() == PINNED[name]


# -- the definition, in plain Python ------------------------------------------

MULT = 1000000007
W64 = [int.from_bytes(hashlib.sha256(bytes([v])).digest()[:8], "big") for v in range(256)]
POW64 = [MULT**j % 2**64 for j in range(WINDOW)]  # mult**j mod 2**64


def is_boundary(data: bytes, pos: int) -> bool:
    """Does the full window ending at ``pos`` hash to zero masked bits?"""
    h = sum(W64[data[pos - j]] * POW64[j] for j in range(WINDOW)) % 2**64
    return h & ((1 << MASK_BITS) - 1) == 0


def definition_candidates(data: bytes, lo: int = WINDOW - 1) -> list[int]:
    return [pos for pos in range(lo, len(data)) if is_boundary(data, pos)]


def rolling_candidates(data: bytes) -> list[int]:
    """The same candidates in O(n): a 64-bit rolling hash, one byte a step.

    Appending a byte multiplies the hash by ``MULT`` and adds the byte's
    weight; the byte that leaves the window then carries ``MULT**WINDOW``.
    """
    mask = (1 << MASK_BITS) - 1
    wrap = 2**64 - 1
    leave = MULT**WINDOW % 2**64
    found = []
    h = 0
    for pos, b in enumerate(data):
        h = (h * MULT + W64[b]) & wrap
        if pos >= WINDOW:
            h = (h - W64[data[pos - WINDOW]] * leave) & wrap
        if pos >= WINDOW - 1 and h & mask == 0:
            found.append(pos)
    return found


def test_rolling_oracle_follows_the_definition():
    data = random.Random(5).randbytes(8192)
    want = definition_candidates(data)
    assert want and rolling_candidates(data) == want


def _first_candidate_window() -> bytes:
    data = random.Random(0).randbytes(1 << 16)
    end = definition_candidates(data)[0]
    return data[end - WINDOW + 1 : end + 1]


#: A WINDOW-byte run that the definition makes a candidate wherever it lies.
PLANTED = _first_candidate_window()


def plant(data: bytes, end: int) -> bytes:
    """``data`` with PLANTED overwritten so that it ends at ``end``."""
    start = end - WINDOW + 1
    return data[:start] + PLANTED + data[end + 1 :]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(4096, 12288),
    alphabet=st.sampled_from([b"", b"\x00\x01\xff", b"ab \n"]),
    at=st.integers(0, 12288),
)
def test_candidates_follow_the_definition(seed, size, alphabet, at):
    data = random.Random(seed).randbytes(size)
    if alphabet:  # low-entropy content
        data = bytes(alphabet[b % len(alphabet)] for b in data)
    end = WINDOW - 1 + at % (size - WINDOW + 1)
    data = plant(data, end)
    want = definition_candidates(data)
    assert end in want
    assert diffgen._boundary_candidates(data).tolist() == want


@pytest.mark.parametrize(
    "offset", [-2, -1, 0, WINDOW], ids=["before", "on", "after", "past"]
)
def test_candidates_follow_the_definition_across_a_block_edge(offset):
    # The planted window ends just before, on (the last window the first
    # block decides), just after (the first window of the second block,
    # which straddles the edge) or a full window past the first block's
    # end, so both the restarted prefix sums and the overlap are exercised.
    edge = diffgen._BLOCK
    end = edge + offset
    data = plant(random.Random(offset).randbytes(edge + 2 * WINDOW + 64), end)
    lo = edge - WINDOW - 64
    want = definition_candidates(data, lo)
    got = [p for p in diffgen._boundary_candidates(data).tolist() if p >= lo]
    assert end in want and got == want


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(0, diffgen._BLOCK + WINDOW),
    alphabet=st.sampled_from([b"", b"\x00", b"\x00\x01\xff", b"ab \n"]),
    offset=st.sampled_from([-1, 0, 1, WINDOW]),
)
def test_candidates_follow_the_rolling_hash_across_blocks(seed, extra, alphabet, offset):
    # At least 2 * _BLOCK + 1 bytes, so the input spans three or more
    # blocks, each starting WINDOW - 1 bytes before the previous one ends.
    # A planted window ends ``offset`` bytes past each block's last
    # window: just before it, on it, on the first window that only the
    # next block decides, or a full window past it.
    data = random.Random(seed).randbytes(2 * diffgen._BLOCK + 1 + extra)
    if alphabet:  # low-entropy content; one byte value makes every window equal
        data = data.translate(bytes(alphabet[b % len(alphabet)] for b in range(256)))
    step = diffgen._BLOCK - (WINDOW - 1)
    ends = range(diffgen._BLOCK - 1 + offset, len(data), step)
    for end in ends:
        data = plant(data, end)
    want = rolling_candidates(data)
    assert set(ends) <= set(want)
    assert diffgen._boundary_candidates(data).tolist() == want


def test_boundary_candidates_memory_is_bounded():
    # Three 128 KiB work buffers, a block of flags, the block of intp
    # indices np.take casts the bytes to, and the candidates: about
    # 0.96 MiB on 4 MiB, and no buffer grows with the input.
    data = random.Random(7).randbytes(4 << 20)
    diffgen._tables()
    tracemalloc.start()
    try:
        diffgen._boundary_candidates(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, f"_boundary_candidates peaked at {peak / 2**20:.2f} MiB"


def test_chunk_lengths_memory_is_bounded():
    data = random.Random(7).randbytes(4 << 20)
    tracemalloc.start()
    try:
        chunk_lengths(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, f"chunk_lengths peaked at {peak / 2**20:.1f} MiB"
