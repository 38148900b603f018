"""End-to-end acceptance gate.

Eight checks, each asserting one externally observable guarantee of the
toolkit at its stated tolerance. Every check prints a single PASS/FAIL
verdict line on the real stdout so the verdicts survive pytest capture.
"""

import hashlib
import random
import time
from fractions import Fraction

import pytest

import treegen
from conftest import record_verdict
from satpatch.corpusgen import generate_variant, sample_app_tree
from satpatch.diffgen import chunkify, compare_trees, line_diff
from satpatch.errors import SatpatchError
from satpatch.fstree import FileTree, tree_digest
from satpatch.layerstore import (
    FailureEvent,
    FailurePhase,
    LayerStore,
    RecoveryStrategy,
    recovery_cost,
)
from satpatch.linksim import (
    baseline_sizes,
    format_quantity,
    modification_ratio,
    round_half_up,
    transmission_latency,
)
from satpatch.package import decode_package, encode_package
from satpatch.reconstruct import apply_changeset


class _gate:
    """Context manager recording the verdict line for one criterion."""

    def __init__(self, label: str):
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        line = f"[acceptance] {self.label}: {'PASS' if exc_type is None else 'FAIL'}"
        record_verdict(line)
        print(line, flush=True)  # visible immediately under -s
        return False


# Recorded uplink measurements for ten containerized applications at three
# update levels: (app, level, then size-KB/latency-s pairs for the
# full-image, app-layer, changed-files, and delta strategies). 200 kbps
# uplink, KB = 1024 bytes.
UPLINK_REFERENCE_ROWS = (
    ("App1", "10%", "942701.00", "38613.03", "188845.50", "7735.11", "146.96", "6.02", "48.64", "1.99"),
    ("App1", "20%", "943308.00", "38637.90", "189061.38", "7743.95", "331.91", "13.60", "154.34", "6.32"),
    ("App1", "50%", "945335.00", "38720.92", "189819.63", "7775.01", "905.87", "37.10", "709.26", "29.05"),
    ("App2", "10%", "127516.50", "5223.08", "11.50", "0.47", "11.01", "0.45", "2.24", "0.09"),
    ("App2", "20%", "127517.00", "5224.10", "11.69", "0.48", "11.01", "0.45", "2.24", "0.09"),
    ("App2", "50%", "127516.50", "5223.08", "11.49", "0.47", "10.82", "0.44", "3.65", "0.15"),
    ("App3", "10%", "62805.50", "2572.51", "0.88", "0.04", "0.67", "0.03", "0.29", "0.01"),
    ("App3", "20%", "62805.50", "2572.51", "0.91", "0.04", "0.69", "0.03", "0.34", "0.01"),
    ("App3", "50%", "62805.50", "2572.51", "1.00", "0.04", "0.77", "0.03", "0.45", "0.02"),
    ("App4", "10%", "386661.50", "15837.66", "9.77", "0.40", "8.71", "0.36", "1.47", "0.06"),
    ("App4", "20%", "386664.00", "15837.76", "11.78", "0.48", "9.79", "0.40", "1.96", "0.08"),
    ("App4", "50%", "386665.00", "15837.80", "12.83", "0.53", "13.03", "0.53", "3.08", "0.13"),
    ("App5", "10%", "2310128.50", "94622.86", "11.51", "0.47", "9.97", "0.41", "1.93", "0.08"),
    ("App5", "20%", "2310130.50", "94622.95", "13.44", "0.55", "4.46", "0.18", "3.68", "0.15"),
    ("App5", "50%", "2310141.00", "94623.38", "23.79", "0.97", "22.62", "0.93", "13.38", "0.55"),
    ("App6", "10%", "743251.50", "30443.58", "205.08", "8.40", "77.76", "3.19", "32.41", "1.33"),
    ("App6", "20%", "743294.00", "30445.32", "247.67", "10.14", "145.92", "5.98", "72.12", "2.95"),
    ("App6", "50%", "743540.00", "30455.40", "493.39", "20.21", "412.86", "16.91", "316.20", "12.95"),
    ("App7", "10%", "392131.00", "16061.69", "8.61", "0.76", "16.50", "0.68", "2.26", "0.09"),
    ("App7", "20%", "392131.00", "16061.69", "18.61", "0.76", "16.52", "0.68", "4.41", "0.18"),
    ("App7", "50%", "392131.00", "16061.69", "18.58", "0.76", "16.52", "0.68", "1.35", "0.06"),
    ("App8", "10%", "265721.00", "10883.93", "2.77", "0.11", "2.29", "0.09", "0.98", "0.04"),
    ("App8", "20%", "265721.50", "10883.95", "3.16", "0.13", "2.68", "0.11", "1.34", "0.05"),
    ("App8", "50%", "265723.50", "10884.03", "4.90", "0.20", "4.65", "0.19", "3.19", "0.13"),
    ("App9", "10%", "54557.50", "2234.68", "17.76", "0.73", "4.13", "0.17", "2.99", "0.12"),
    ("App9", "20%", "54557.50", "2234.68", "17.75", "0.72", "6.85", "0.28", "5.57", "0.23"),
    ("App9", "50%", "54575.00", "2235.39", "35.14", "1.44", "21.01", "0.86", "20.22", "0.83"),
    ("App10", "10%", "489989.00", "20069.95", "28.95", "1.19", "26.12", "1.07", "3.05", "0.12"),
    ("App10", "20%", "489989.00", "20069.95", "29.04", "1.19", "26.19", "1.07", "4.92", "0.20"),
    ("App10", "50%", "489989.00", "20069.95", "28.98", "1.19", "26.13", "1.07", "16.01", "0.66"),
)

_STRATEGIES = ("full-image", "app-layer", "changed-files", "delta")

# Three recorded latency cells contradict their own size cells under the
# formula (and their sibling rows): each is off by a transposed or
# shifted final digit. The check asserts our recomputed value for them.
#   App2/20% full-image: 127,517.00 KB -> 5223.10, recorded 5224.10
#   App7/10% app-layer:      8.61 KB -> 0.35,    recorded 0.76
#                            (sibling rows list 18.61 KB -> 0.76)
#   App9/20% app-layer:     17.75 KB -> 0.73,    recorded 0.72
KNOWN_INCONSISTENT = {
    ("App2", "20%", "full-image"): "5223.10",
    ("App7", "10%", "app-layer"): "0.35",
    ("App9", "20%", "app-layer"): "0.73",
}


@pytest.fixture(scope="module")
def corpus_matrix():
    """Variant fixtures at the three update levels, ten seeds each."""
    base = sample_app_tree(0)
    variants = {}
    for ratio in (0.1, 0.2, 0.5):
        for seed in range(10):
            variants[(ratio, seed)] = generate_variant(
                base, ratio, seed=seed, scope_prefix="app"
            )
    return base, variants


def test_c1_latency_formula_reproduces_reference_table():
    with _gate("C1 exact uplink latency table"):
        start = time.monotonic()
        mismatches = []
        for row in UPLINK_REFERENCE_ROWS:
            app, level, cells = row[0], row[1], row[2:]
            for strategy, kb, recorded in zip(_STRATEGIES, cells[0::2], cells[1::2]):
                nbytes = Fraction(kb) * 1024
                got = round_half_up(transmission_latency(nbytes))
                key = (app, level, strategy)
                if key in KNOWN_INCONSISTENT:
                    assert got == Fraction(KNOWN_INCONSISTENT[key]), key
                    assert got != Fraction(recorded), key  # stays divergent
                elif got != Fraction(recorded):
                    mismatches.append((key, kb, recorded, float(got)))
        assert mismatches == []

        # spot values, checked through the display formatting as well
        spots = (
            ("48.64", "1.99"),
            ("188845.50", "7,735.11"),
            ("1.35", "0.06"),
        )
        for kb, want in spots:
            assert format_quantity(transmission_latency(Fraction(kb) * 1024)) == want
        assert round_half_up(transmission_latency(Fraction("48.64") * 1024)) == Fraction("1.99")
        assert time.monotonic() - start < 1.0


def test_c2_randomized_round_trips_are_byte_exact():
    with _gate("C2 500 randomized tree round trips"):
        rng = random.Random(0xC2)
        failures = []
        for i in range(500):
            orig, upd = treegen.random_pair(rng, max_files=200, max_file_size=256 * 1024)
            try:
                blob = encode_package(compare_trees(orig, upd))
                rebuilt, report = apply_changeset(orig, decode_package(blob))
                assert rebuilt == upd
                for path, entry in upd.files():
                    assert rebuilt[path].content == entry.content
                assert report.target_digest == tree_digest(upd)
            except (AssertionError, SatpatchError) as exc:
                failures.append((i, repr(exc)))
        assert failures == []


def _lcs_len(a: list[bytes], b: list[bytes]) -> int:
    # quadratic DP, kept deliberately naive as an independent oracle
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[len(b)]


def test_c3_line_scripts_are_minimal():
    with _gate("C3 minimal edit scripts vs DP oracle"):
        rng = random.Random(0xC3)
        vocab = [b"alpha\n", b"beta\n", b"gamma\n", b"delta\n", b"eps\n"]
        for _ in range(1000):
            a = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            b = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            ops, _segments = line_diff(b"".join(a), b"".join(b))
            cost = sum(op.count for op in ops if op.kind in ("D", "I"))
            assert cost == len(a) + len(b) - 2 * _lcs_len(a, b), (a, b)


def test_c4_delta_packages_beat_whole_artifact_baselines(corpus_matrix):
    with _gate("C4 package size vs upload baselines"):
        base, variants = corpus_matrix
        mean_advantage = {}
        for ratio in (0.1, 0.2, 0.5):
            advantages = []
            for seed in range(10):
                upd = variants[(ratio, seed)]
                changeset = compare_trees(base, upd)
                pkg = len(encode_package(changeset))
                sizes = baseline_sizes(base, upd, changeset, app_prefix="app")
                assert pkg <= sizes.b3_bytes <= sizes.b2_bytes <= sizes.b1_bytes, (
                    ratio, seed, pkg, sizes,
                )
                advantages.append(1 - pkg / sizes.b3_bytes)
            mean_advantage[ratio] = sum(advantages) / len(advantages)
        # the win over changed-file uploads shrinks as updates grow
        assert mean_advantage[0.1] > mean_advantage[0.2] > mean_advantage[0.5]


def test_c5_chunking_localizes_edits():
    with _gate("C5 content-defined chunk stability"):
        flip_violations, prepend_violations = [], []
        for seed in range(100):
            rng = random.Random(seed)
            blob = rng.randbytes(1 << 20)
            base_hashes = [hashlib.sha256(c).digest() for c in chunkify(blob)]

            pos = rng.randrange(len(blob) - 64)
            flipped = (
                blob[:pos]
                + bytes(v ^ 0xA5 for v in blob[pos : pos + 64])
                + blob[pos + 64 :]
            )
            new = set(
                hashlib.sha256(c).digest() for c in chunkify(flipped)
            ) - set(base_hashes)
            if len(new) > 3:
                flip_violations.append((seed, len(new)))

            prepended = bytes([rng.randrange(256)]) + blob
            pre_hashes = [
                hashlib.sha256(c).digest() for c in chunkify(prepended)
            ]
            i, j = len(base_hashes), len(pre_hashes)
            while i > 0 and j > 0 and base_hashes[i - 1] == pre_hashes[j - 1]:
                i, j = i - 1, j - 1
            if j > 1:  # everything past the first chunk must re-sync
                prepend_violations.append((seed, i, j))
        assert flip_violations == []
        assert prepend_violations == []


def test_c6_failure_rolls_back_and_recovery_costs_order(tmp_path, corpus_matrix):
    with _gate("C6 rollback to stable and recovery cost model"):
        store = LayerStore(tmp_path / "store")
        v10 = FileTree.from_dict("payload", {"app/main.py": b"run()\n"})
        v11 = FileTree.from_dict("payload", {"app/main.py": b"run()\ncrash()\n"})
        store.commit(v10, "V1.0")
        store.mark_stable("V1.0")
        store.commit(v11, "V1.1")
        assert store.stack.active_layer.tag == "V1.1"
        record = store.on_failure(
            FailureEvent(FailurePhase.POST_UPDATE_EXECUTION, exit_code=137)
        )
        assert record.from_tag != record.to_tag
        assert store.stack.active_layer.tag == "V1.0"
        assert tree_digest(store.active_tree()) == tree_digest(v10)
        failed = store.stack.layers[store.stack.find("V1.1")]
        assert failed.failed and not failed.stable

        # layer-based backup bookkeeping must not scale with tree size
        small_prior = FileTree.from_dict("s", {"a.bin": bytes(1024)})
        small_active = FileTree.from_dict("s", {"a.bin": bytes(1024), "b": b"x"})
        big_rng = random.Random(0xC6)
        big_blob = big_rng.randbytes(100 * 1024 * 1024)
        big_prior = FileTree.from_dict("b", {"a.bin": big_blob})
        big_active = FileTree.from_dict("b", {"a.bin": big_blob, "b": b"x"})
        small = recovery_cost(small_prior, small_active, RecoveryStrategy.LAYER)
        big = recovery_cost(big_prior, big_active, RecoveryStrategy.LAYER)
        assert small.backup_ops == big.backup_ops
        assert small.restore_ops == big.restore_ops

        # storage cost ordering on a realistic small update
        base, variants = corpus_matrix
        active = variants[(0.1, 0)]
        storages = {
            strat: recovery_cost(base, active, strat).storage_bytes
            for strat in (
                RecoveryStrategy.PATCH, RecoveryStrategy.FILE, RecoveryStrategy.IMAGE,
            )
        }
        assert (
            storages[RecoveryStrategy.PATCH]
            < storages[RecoveryStrategy.FILE]
            < storages[RecoveryStrategy.IMAGE]
        )


def test_c7_modification_ratio_identities_and_targeting(corpus_matrix):
    with _gate("C7 modification ratio identities and targeting"):
        base, variants = corpus_matrix
        assert modification_ratio(base, base).ratio == 0
        disjoint = FileTree.from_dict(
            "other", {"z/new.bin": bytes(range(200)) * 100, "z/also.txt": b"fresh\n"}
        )
        assert modification_ratio(base, disjoint).ratio == 1
        for (ratio, seed), upd in variants.items():
            got = modification_ratio(base, upd).ratio
            assert abs(float(got) - ratio) <= 0.05, (ratio, seed, float(got))


def _recompress(container: bytes) -> bytes:
    import gzip, io

    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", compresslevel=9, mtime=0) as zf:
        zf.write(container)
    return buf.getvalue()


def test_c8_corrupted_packages_fail_closed():
    with _gate("C8 corrupted packages raise typed errors, base untouched"):
        import gzip

        rng = random.Random(0xC8)
        orig, upd = treegen.random_pair(rng, max_files=30, max_file_size=32 * 1024)
        blob = encode_package(compare_trees(orig, upd))
        container = gzip.decompress(blob)
        base_digest = tree_digest(orig)
        escapes = []

        def attempt(tag, corrupted):
            try:
                rebuilt, _ = apply_changeset(orig, decode_package(corrupted))
            except SatpatchError:
                pass
            except Exception as exc:  # untyped escape: a real defect
                escapes.append((tag, repr(exc)))
            else:
                escapes.append((tag, "applied without error"))
            assert tree_digest(orig) == base_digest

        for i in range(70):  # truncations at arbitrary points
            cut = rng.randrange(len(blob))
            attempt(("truncate", cut), blob[:cut])
        for i in range(70):  # bit flips in the compressed stream
            pos = rng.randrange(len(blob))
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << rng.randrange(8)
            attempt(("stream-flip", pos), bytes(flipped))
        for i in range(60):  # bit flips in decoded structures, re-compressed
            pos = rng.randrange(85, len(container))
            body = bytearray(container)
            body[pos] ^= 1 << rng.randrange(8)
            attempt(("structure-flip", pos), _recompress(bytes(body)))

        assert escapes == []
