"""Chunk boundaries: pinned digests, two plain-Python oracles, derived
candidates and memory bounds.

Chunk boundaries decide which byte spans a package retains, so moving
one changes package bytes and can break the C5 localisation gate, even
though the receiver never chunks. The digests below were recorded from
earlier chunkers: the original uint64 one, and the blocked uint32 one
with prefix sums, for the inputs around today's 64 KiB block edge. The
chunker now sums each window by doubling in uint16 blocks. The oracle
tests keep the 64-bit definition of a boundary in plain Python, once
window by window and once as an O(n) rolling hash over inputs that span
several blocks. The new side of a changed pair takes the old side's
candidates wherever its bytes are unchanged, and must find exactly what a
full scan of it finds.
"""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
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


@pytest.mark.parametrize(
    "n",
    [
        diffgen._BLOCK + 1,
        diffgen._BLOCK + 2,
        2 * (diffgen._BLOCK - WINDOW + 1) + WINDOW,
    ],
    ids=["block+1", "block+2", "three-blocks"],
)
def test_candidates_follow_the_rolling_hash_in_the_smallest_last_blocks(n):
    # The last block starts WINDOW - 1 bytes before the previous one ends,
    # so at these lengths it holds exactly WINDOW bytes (block+1), one more
    # (block+2), or exactly WINDOW bytes after two full blocks: it alone
    # decides the last one or two windows. The last window is planted, so
    # a last block that finds nothing fails.
    data = plant(random.Random(n).randbytes(n), n - 1)
    want = rolling_candidates(data)
    assert n - 1 in want
    assert diffgen._boundary_candidates(data).tolist() == want


# -- the new side of a changed pair --------------------------------------------

EDITS = ("flip", "insert", "delete", "append", "truncate", "rewrite")


@st.composite
def edited_pairs(draw):
    """(old, new): random or low-entropy bytes and a few edits of ``new``
    placed within a window of a compare-block edge (laid from either end),
    a scan-block edge, or either end of the file. Sizes run from shorter
    than a window and than one compare block to past the first scan
    block."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(
        st.one_of(
            st.integers(0, 2 * diffgen._SAME_BLOCK),
            st.integers(diffgen._BLOCK - diffgen._SAME_BLOCK, diffgen._BLOCK + 3 * diffgen._SAME_BLOCK),
        )
    )
    old = rng.randbytes(size)
    alphabet = draw(st.sampled_from([b"", b"\x00\x01\xff", b"ab \n"]))
    if alphabet:  # low-entropy content
        old = old.translate(bytes(alphabet[b % len(alphabet)] for b in range(256)))
    new = bytearray(old)
    for _ in range(draw(st.integers(1, 4))):
        edge = draw(st.sampled_from(["block", "block-from-end", "scan-block", "start", "end"]))
        blocks = len(new) // diffgen._SAME_BLOCK
        anchor = {
            "block": diffgen._SAME_BLOCK * rng.randint(0, blocks),
            "block-from-end": len(new) - diffgen._SAME_BLOCK * rng.randint(0, blocks),
            "scan-block": diffgen._BLOCK,
            "start": 0,
            "end": len(new),
        }[edge]
        at = min(max(anchor + draw(st.integers(-WINDOW, WINDOW)), 0), len(new))
        count = draw(st.integers(1, 300))
        kind = draw(st.sampled_from(EDITS))
        if kind == "flip" and new:
            new[min(at, len(new) - 1)] ^= rng.randrange(1, 256)
        elif kind == "insert":
            new[at:at] = rng.randbytes(count)
        elif kind == "delete":
            del new[at : at + count]
        elif kind == "append":
            new += rng.randbytes(count)
        elif kind == "truncate":
            del new[max(0, len(new) - count) :]
        elif kind == "rewrite":
            new = bytearray(rng.randbytes(len(new)))
    return old, bytes(new)


def margin_pair(align: str, side: str) -> tuple[bytes, bytes]:
    """(old, new) whose one changed byte lies one byte outside the first
    or last window of a run of equal compare blocks, inside the window
    next to it: old has a candidate there and new has none. With ``align``
    "end", new also starts with 100 inserted bytes, so only the end
    alignment finds the run."""
    edge = 4 * diffgen._SAME_BLOCK
    end, changed = (edge + WINDOW - 2, edge - 1) if side == "first" else (edge, edge)
    old = plant(random.Random(1).randbytes(2 * edge), end)
    head = b"" if align == "start" else random.Random(2).randbytes(100)
    for x in range(1, 256):
        new = bytearray(head + old)
        new[len(head) + changed] ^= x
        if not is_boundary(new, len(head) + end):
            return old, bytes(new)
    raise AssertionError("every flip keeps the candidate")


@settings(max_examples=150, deadline=None)
@given(edited_pairs())
@example(margin_pair("start", "first"))
@example(margin_pair("start", "last"))
@example(margin_pair("end", "first"))
@example(margin_pair("end", "last"))
def test_derived_candidates_match_a_full_scan(pair):
    old, new = pair
    old_cands = diffgen._boundary_candidates(old)
    derived = diffgen._derived_candidates(old, new, old_cands)
    assert derived.tolist() == diffgen._boundary_candidates(new).tolist()
    old_units, new_units = diffgen._chunk_pair(old, new)
    assert list(map(len, old_units)) == chunk_lengths(old)
    assert list(map(len, new_units)) == chunk_lengths(new)


def test_new_side_scans_only_around_its_edits(monkeypatch):
    # Three flips and a 100-byte insert in 256 KiB: the start alignment
    # reuses the blocks before the insert and the end alignment those after
    # it, so about a compare block per edit is scanned, not the half after
    # the insert.
    rng = random.Random(3)
    old = rng.randbytes(256 << 10)
    new = bytearray(old)
    for at in (10_000, 100_000, 200_000):
        new[at] ^= 0x5A
    new[150_000:150_000] = rng.randbytes(100)
    new = bytes(new)
    old_cands = diffgen._boundary_candidates(old)
    want = diffgen._boundary_candidates(new).tolist()
    scanned = []
    scan = diffgen._scan

    def counting_scan(view, ends):
        scanned.extend(stop - first for first, stop in ends)
        return scan(view, ends)

    monkeypatch.setattr(diffgen, "_scan", counting_scan)
    assert diffgen._derived_candidates(old, new, old_cands).tolist() == want
    assert 0 < sum(scanned) < 8 * diffgen._SAME_BLOCK


def test_boundary_candidates_memory_is_bounded():
    # Per block, the intp indices np.take casts the bytes to, at most three
    # 128 KiB uint16 sums and a block of flags, then the candidates: about
    # 0.9 MiB on 4 MiB. The same bound on 16 MiB shows that no temporary
    # grows with the input.
    diffgen._tables()
    for size in (4 << 20, 16 << 20):
        data = random.Random(7).randbytes(size)
        tracemalloc.start()
        try:
            diffgen._boundary_candidates(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, f"{size} bytes peaked at {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("pattern", ["sparse-flips", "dense-rewrite"])
def test_derived_candidates_memory_is_bounded(pattern):
    # Deriving the new side compares 64 KiB of blocks at a time and scans
    # the rest in gathered blocks, so it keeps the full scan's bound: with
    # a flip every 8 KiB or so and one insert, which leaves gaps to gather
    # at both alignments, and with no block equal, which scans every window.
    old = random.Random(7).randbytes(16 << 20)
    rng = random.Random(8)
    if pattern == "sparse-flips":
        new = bytearray(old)
        for _ in range(2048):
            new[rng.randrange(len(new))] ^= rng.randrange(1, 256)
        at = rng.randrange(len(new))
        new[at:at] = rng.randbytes(100)
        new = bytes(new)
    else:
        new = rng.randbytes(len(old))
    old_cands = diffgen._boundary_candidates(old)
    tracemalloc.start()
    try:
        got = diffgen._derived_candidates(old, new, old_cands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, f"{pattern} peaked at {peak / 2**20:.2f} MiB"
    assert got.tolist() == diffgen._boundary_candidates(new).tolist()


def test_chunk_lengths_memory_is_bounded():
    data = random.Random(7).randbytes(4 << 20)
    tracemalloc.start()
    try:
        chunk_lengths(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, f"chunk_lengths peaked at {peak / 2**20:.1f} MiB"
