"""Link model: latency arithmetic, baselines, modification ratio, scheduling.

Latency expectations below 200 kbps are checked in exact rational
arithmetic; the three published reference points are asserted at the
2-decimal reporting precision.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satpatch.diffgen import compare_trees
from satpatch.errors import LinkError, PrefixMatchError
from satpatch.fstree import FileTree, write_tar
from satpatch.linksim import (
    KIB,
    BaselineSizes,
    LinkModel,
    ModRatioReport,
    baseline_sizes,
    format_quantity,
    modification_ratio,
    round_half_up,
    schedule_upload,
    transmission_latency,
    _gzip_size,
)


class TestRoundHalfUp:
    def test_plain(self):
        assert round_half_up(Fraction("1.994")) == Fraction("1.99")
        assert round_half_up(Fraction("1.995")) == Fraction("2.00")
        assert round_half_up(Fraction("1.996")) == Fraction("2.00")

    def test_tie_goes_up_not_to_even(self):
        assert round_half_up(Fraction(1, 8)) == Fraction("0.13")
        assert round_half_up(Fraction("0.625")) == Fraction("0.63")


class TestFormatQuantity:
    def test_grouping(self):
        assert format_quantity(Fraction("188845.5")) == "188,845.50"
        assert format_quantity(Fraction("1.994")) == "1.99"
        assert format_quantity(Fraction(0)) == "0.00"


class TestTransmissionLatency:
    def test_reference_small_package(self):
        latency = transmission_latency(Fraction("48.64") * KIB)
        assert round_half_up(latency) == Fraction("1.99")

    def test_reference_full_layer(self):
        latency = transmission_latency(Fraction("188845.50") * KIB)
        assert round_half_up(latency) == Fraction("7735.11")

    def test_reference_tiny_package(self):
        latency = transmission_latency(Fraction("1.35") * KIB)
        assert round_half_up(latency) == Fraction("0.06")

    def test_zero(self):
        assert transmission_latency(0) == 0

    def test_exact_value(self):
        # 1 KiB at 200 kbps: 8192/200000 s, no rounding anywhere.
        assert transmission_latency(1024) == Fraction(8192, 200000)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            transmission_latency(-1)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            transmission_latency(48.64)

    def test_float_bandwidth_rejected(self):
        # A float rate would turn every latency into a float.
        with pytest.raises(TypeError):
            LinkModel(uplink_bandwidth_bps=1.5)

    @given(st.integers(0, 10**12), st.integers(1, 10**9))
    def test_linear_in_size_inverse_in_bandwidth(self, size, bw):
        link = LinkModel(uplink_bandwidth_bps=bw)
        one = transmission_latency(size, link)
        assert transmission_latency(2 * size, link) == 2 * one
        double_bw = LinkModel(uplink_bandwidth_bps=2 * bw)
        assert transmission_latency(size, double_bw) == one / 2


class TestLinkModelValidation:
    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            LinkModel(uplink_bandwidth_bps=0)

    def test_unsorted_windows(self):
        with pytest.raises(ValueError):
            LinkModel(contact_windows=((100, 60), (50, 60)))

    def test_overlapping_windows(self):
        with pytest.raises(ValueError):
            LinkModel(contact_windows=((0, 100), (50, 100)))

    def test_zero_duration(self):
        with pytest.raises(ValueError):
            LinkModel(contact_windows=((0, 0),))

    def test_adjacent_windows_fine(self):
        LinkModel(contact_windows=((0, 100), (100, 100)))


def _fixture_trees():
    orig = FileTree.from_dict(
        "app",
        {
            "app/main.py": b"import sensor\n" * 60,
            "app/util.py": b"def f():\n    return 1\n" * 40,
            "app/assets/model.bin": bytes(range(256)) * 90,
            "runtime/libc.bin": bytes(reversed(range(256))) * 200,
        },
    )
    upd = FileTree.from_dict(
        "app",
        {
            "app/main.py": b"import sensor\n" * 59 + b"import imu\n",
            "app/util.py": b"def f():\n    return 1\n" * 40,
            "app/assets/model.bin": bytes(range(256)) * 90,
            "runtime/libc.bin": bytes(reversed(range(256))) * 200,
        },
    )
    return orig, upd


class TestBaselineSizes:
    def test_ordering_on_fixture(self):
        orig, upd = _fixture_trees()
        sizes = baseline_sizes(orig, upd, compare_trees(orig, upd), "app")
        assert sizes.b3_bytes < sizes.b2_bytes < sizes.b1_bytes

    def test_identical_trees_empty_b3(self):
        orig, _ = _fixture_trees()
        sizes = baseline_sizes(orig, orig, compare_trees(orig, orig), "app")
        assert sizes.b3_bytes == _gzip_size(write_tar(orig, paths=[]))

    def test_single_added_file_is_whole_b3(self):
        orig, _ = _fixture_trees()
        upd = FileTree.from_dict(
            "app", {p: e.content for p, e in orig.items()}
            | {"app/new.py": b"print()\n"}
        )
        sizes = baseline_sizes(orig, upd, compare_trees(orig, upd), "app")
        assert sizes.b3_bytes == _gzip_size(write_tar(upd, paths=["app/new.py"]))

    def test_empty_prefix_means_whole_tree(self):
        orig, upd = _fixture_trees()
        sizes = baseline_sizes(orig, upd, compare_trees(orig, upd), "")
        assert sizes.b2_bytes == sizes.b1_bytes

    def test_prefix_match_error(self):
        orig, upd = _fixture_trees()
        with pytest.raises(PrefixMatchError):
            baseline_sizes(orig, upd, compare_trees(orig, upd), "no/such/dir")

    def test_prefix_is_path_aware(self):
        # "app" must not match "apparatus".
        tree = FileTree.from_dict("a", {"apparatus/f.txt": b"x"})
        with pytest.raises(PrefixMatchError):
            baseline_sizes(tree, tree, compare_trees(tree, tree), "app")


class TestModificationRatio:
    def test_identical_is_zero(self):
        t, _ = _fixture_trees()
        report = modification_ratio(t, t)
        assert report.ratio == 0
        assert report.s_preserved_bytes == report.s_upd_bytes

    def test_disjoint_is_one(self):
        t1 = FileTree.from_dict("a", {"f1": b"completely\n"})
        t2 = FileTree.from_dict("a", {"f2": b"different\n"})
        assert modification_ratio(t1, t2).ratio == 1

    def test_hand_computed_mixed_tree(self):
        orig = FileTree.from_dict("a", {"f": b"keep\nold\n", "g": b"zz\n"})
        upd = FileTree.from_dict("a", {"f": b"keep\nnew1\nnew2\n", "g": b"zz\n"})
        report = modification_ratio(orig, upd)
        assert report.s_upd_bytes == 18
        assert report.s_preserved_bytes == 8
        assert report.ratio == Fraction(5, 9)

    def test_empty_upd_degenerate(self):
        t, _ = _fixture_trees()
        report = modification_ratio(t, FileTree.from_dict("a", {}))
        assert report.s_upd_bytes == 0
        assert report.ratio == 0

    def test_kind_swap_not_preserved(self):
        t1 = FileTree.from_dict("a", {"p": b"data"})
        t2 = FileTree.from_dict("a", {"p/q": b"data"})
        assert modification_ratio(t1, t2).ratio == 1

    def test_ratio_bounds(self):
        import random

        from treegen import random_pair

        rng = random.Random(3)
        for _ in range(15):
            orig, upd = random_pair(rng, max_files=15, max_file_size=8 * 1024)
            report = modification_ratio(orig, upd)
            assert 0 <= report.ratio <= 1


class TestScheduleUpload:
    def test_small_package_first_window(self):
        link = LinkModel(contact_windows=((100, 600),))
        report = schedule_upload(1024, link)
        assert report.passes_used == 1
        assert report.completion_time_s == 100 + Fraction(8192, 200000)

    def test_zero_bytes(self):
        link = LinkModel(contact_windows=((100, 600),))
        report = schedule_upload(0, link)
        assert report.passes_used == 0
        assert report.completion_time_s == 100

    def test_three_passes(self):
        windows = tuple((i * 7200, 600) for i in range(4))
        link = LinkModel(contact_windows=windows)
        report = schedule_upload(30_000 * KIB, link)
        assert report.passes_used == 3
        spill = 245_760_000 - 2 * 120_000_000
        assert report.completion_time_s == 2 * 7200 + Fraction(spill, 200_000)

    def test_undeliverable(self):
        link = LinkModel(contact_windows=((0, 1),))
        report = schedule_upload(10**9, link)
        assert report.completion_time_s is None

    def test_exact_fit_boundary(self):
        # 600 s at 200 kbps carries exactly 120 Mbit = 15,000,000 bytes.
        link = LinkModel(contact_windows=((0, 600), (1000, 600)))
        report = schedule_upload(15_000_000, link)
        assert report.passes_used == 1
        assert report.completion_time_s == 600

    def test_no_windows(self):
        with pytest.raises(LinkError):
            schedule_upload(1, LinkModel())

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            schedule_upload(-1, LinkModel(contact_windows=((0, 600),)))
