import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

import satpatch
from satpatch.cli import main
from satpatch.corpusgen import sample_app_tree
from satpatch.fstree import FileTree, load_tree, materialize, tree_digest, write_tar
from satpatch.layerstore import LayerStore


@pytest.fixture
def trees(tmp_path):
    orig = FileTree.from_dict(
        "orig",
        {
            "app/main.py": b"import os\n# boot\nrun()\n",
            "app/data.bin": bytes(range(256)) * 40,
            "doc.txt": b"readme\n",
        },
    )
    upd = FileTree.from_dict(
        "upd",
        {
            "app/main.py": b"import os\n# boot\nsetup()\nrun()\n",
            "app/data.bin": bytes(range(256)) * 40,
            "doc.txt": b"readme\n",
            "app/extra.txt": b"new\n",
        },
    )
    materialize(orig, tmp_path / "orig")
    materialize(upd, tmp_path / "upd")
    return tmp_path, orig, upd


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPipeline:
    def test_diff_apply_verify(self, trees, capsys):
        tmp, orig, upd = trees
        pkg = tmp / "up.satpkg"
        code, out, _ = run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)
        assert code == 0 and pkg.exists()
        assert "changes" in out

        code, out, _ = run(capsys, "apply", tmp / "orig", pkg, "-o", tmp / "out")
        assert code == 0
        assert load_tree(tmp / "out") == upd

        expected = tree_digest(upd).hex()
        code, out, _ = run(capsys, "verify", tmp / "out", "--digest", expected)
        assert code == 0 and "matches" in out

    def test_in_place_apply(self, trees, capsys):
        tmp, orig, upd = trees
        pkg = tmp / "up.satpkg"
        run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)
        code, _, _ = run(capsys, "apply", tmp / "orig", pkg)
        assert code == 0
        assert tree_digest(load_tree(tmp / "orig")) == tree_digest(upd)
        leftovers = [p for p in tmp.iterdir() if "satpatch" in p.name]
        assert leftovers == []

    def test_in_place_apply_from_inside_the_tree(self, trees, capsys, monkeypatch):
        tmp, orig, upd = trees
        pkg = tmp / "up.satpkg"
        run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)
        monkeypatch.chdir(tmp / "orig")
        code, _, err = run(capsys, "apply", ".", pkg)
        assert code == 0, err
        assert load_tree(tmp / "orig") == upd
        leftovers = [p for p in tmp.rglob("*") if ".satpatch-" in p.name]
        assert leftovers == []

    def test_in_place_apply_after_a_cut_swap(self, trees, capsys):
        # A power cut between the swap's two renames leaves the old tree
        # in its ``.satpatch-old`` sibling, the staged new tree beside it
        # and no tree at the path; the next apply restores and applies.
        tmp, orig, upd = trees
        pkg = tmp / "up.satpkg"
        run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)
        materialize(upd, tmp / "orig.satpatch-new")
        (tmp / "orig").rename(tmp / "orig.satpatch-old")
        code, _, err = run(capsys, "apply", tmp / "orig", pkg)
        assert code == 0, err
        assert load_tree(tmp / "orig") == upd
        assert [p for p in tmp.iterdir() if "satpatch" in p.name] == []

    def test_tar_round_trip(self, trees, capsys):
        tmp, orig, upd = trees
        pkg = tmp / "up.satpkg"
        run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)
        code, _, _ = run(capsys, "apply", tmp / "orig", pkg, "-o", tmp / "out.tar")
        assert code == 0
        assert load_tree(tmp / "out.tar") == upd

    def test_wrong_base_exits_3_and_leaves_tree(self, trees, capsys):
        tmp, orig, upd = trees
        pkg = tmp / "up.satpkg"
        run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)
        before = tree_digest(load_tree(tmp / "upd"))
        code, _, err = run(capsys, "apply", tmp / "upd", pkg, "-o", tmp / "nope")
        assert code == 3
        assert "untouched" in err
        assert not (tmp / "nope").exists()
        assert tree_digest(load_tree(tmp / "upd")) == before

    def test_corrupt_package_exits_2(self, trees, capsys):
        tmp, *_ = trees
        pkg = tmp / "up.satpkg"
        run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)
        pkg.write_bytes(pkg.read_bytes()[:-7])
        code, _, err = run(capsys, "apply", tmp / "orig", pkg, "-o", tmp / "x")
        assert code == 2 and "bad package" in err

    def test_json_reports_phase_timings_and_peak_rss(self, trees, capsys):
        tmp, *_ = trees
        pkg = tmp / "up.satpkg"
        phases = {
            "diff": ("load", "compare", "encode"),
            "apply": ("load", "decode", "apply", "write"),
        }
        argvs = {
            "diff": ("diff", tmp / "orig", tmp / "upd", "-o", pkg, "--json"),
            "apply": ("apply", tmp / "orig", pkg, "-o", tmp / "out", "--json"),
        }
        for command, argv in argvs.items():
            code, out, _ = run(capsys, *argv)
            assert code == 0
            doc = json.loads(out)
            assert doc["schema"] == "satpatch-cli/1"
            assert set(doc["timings"]) == set(phases[command])
            for value in [*doc["timings"].values(), doc["peak_rss_kib"]]:
                assert isinstance(value, (int, float)) and not isinstance(value, bool)
                assert value >= 0
            assert doc["peak_rss_kib"] > 0

    def test_peak_rss_is_not_the_launchers(self, trees, capsys):
        # Linux carries ru_maxrss over execve, so an apply started by a
        # process holding 200 MiB read at least that much as its own peak
        tmp, *_ = trees
        pkg = tmp / "up.satpkg"
        assert run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)[0] == 0
        launcher = (
            "import subprocess, sys\n"
            "held = b'x' * (200 << 20)\n"
            "cmd = [sys.executable, '-m', 'satpatch.cli', *sys.argv[1:]]\n"
            "sys.exit(subprocess.run(cmd).returncode)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(satpatch.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", launcher,
             "apply", str(tmp / "orig"), str(pkg), "-o", str(tmp / "out"), "--json"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert json.loads(proc.stdout)["peak_rss_kib"] < 100 * 1024

    def test_in_place_apply_refuses_a_tar_before_reading_the_package(
        self, trees, capsys
    ):
        tmp, orig, _ = trees
        tar = tmp / "orig.tar"
        tar.write_bytes(write_tar(orig))
        code, _, err = run(capsys, "apply", tar, tmp / "missing.satpkg")
        assert code == 1
        assert "in-place apply needs a directory tree" in err
        assert tar.read_bytes() == write_tar(orig)

    def test_json_apply_record_keys(self, trees, capsys):
        tmp, _, upd = trees
        pkg = tmp / "up.satpkg"
        run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)
        code, out, _ = run(capsys, "apply", tmp / "orig", pkg, "-o", tmp / "out", "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {
            "schema",
            "command",
            "output",
            "files_added",
            "files_deleted",
            "files_patched",
            "dirs_added",
            "dirs_deleted",
            "bytes_received",
            "bytes_written",
            "target_digest",
            "timings",
            "peak_rss_kib",
        }
        assert doc["target_digest"] == tree_digest(upd).hex()
        assert (doc["files_added"], doc["files_patched"]) == (1, 1)

    def test_existing_output_refused(self, trees, capsys):
        tmp, *_ = trees
        pkg = tmp / "up.satpkg"
        run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)
        code, _, err = run(capsys, "apply", tmp / "orig", pkg, "-o", tmp / "upd")
        assert code == 2 and "already exists" in err


class TestVerify:
    def test_prints_digest(self, trees, capsys):
        tmp, orig, _ = trees
        code, out, _ = run(capsys, "verify", tmp / "orig")
        assert code == 0
        assert out.strip() == tree_digest(orig).hex()

    def test_mismatch_exits_3(self, trees, capsys):
        tmp, *_ = trees
        code, out, _ = run(capsys, "verify", tmp / "orig", "--digest", "ab" * 32)
        assert code == 3 and "MISMATCH" in out


class TestEstimate:
    def test_json_schema(self, trees, capsys):
        tmp, *_ = trees
        pkg = tmp / "up.satpkg"
        run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)
        code, out, _ = run(capsys, "estimate", pkg, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "satpatch-cli/1"
        assert doc["command"] == "estimate"
        assert doc["bytes"] == pkg.stat().st_size
        assert doc["bandwidth_bps"] == 200_000  # the default --bandwidth-kbps
        # 2-decimal strings, exact arithmetic behind them
        assert doc["kb"].count(".") == 1 and len(doc["kb"].split(".")[1]) == 2

    def test_schedule_with_windows(self, trees, capsys):
        tmp, *_ = trees
        pkg = tmp / "up.satpkg"
        run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)
        win = tmp / "win.json"
        win.write_text("[[100, 700]]")
        code, out, _ = run(capsys, "estimate", pkg, "--windows", win, "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["schedule"]["passes"] == 1

    def test_windows_are_start_and_duration(self, trees, capsys):
        with pytest.raises(SystemExit):
            main(["estimate", "--help"])
        assert "[start, duration]" in capsys.readouterr().out
        tmp, *_ = trees
        pkg = tmp / "up.satpkg"
        run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)
        win = tmp / "win.json"
        win.write_text("[[100]]")
        code, _, err = run(capsys, "estimate", pkg, "--windows", win)
        assert code == 2 and "[start, duration]" in err

    def test_undeliverable_reported_not_fatal(self, trees, capsys):
        tmp, *_ = trees
        pkg = tmp / "up.satpkg"
        run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)
        win = tmp / "win.json"
        win.write_text("[[0, 1]]")
        code, out, _ = run(
            capsys, "estimate", pkg, "--windows", win, "--bandwidth-kbps", "1"
        )
        assert code == 0 and "undeliverable" in out


class TestInspect:
    def test_splits_bytes_by_part_kind_and_path(self, tmp_path, capsys):
        import gzip
        import random
        import struct

        blob = random.Random(3).randbytes(60_000)
        flipped = bytearray(blob)
        flipped[30_000] ^= 0xFF
        orig = FileTree.from_dict("a", {"app/b.bin": blob, "app/m.py": b"a\nb\n"})
        upd = FileTree.from_dict(
            "a",
            {"app/b.bin": bytes(flipped), "app/m.py": b"a\nB\n", "app/n.txt": b"new\n"},
        )
        materialize(orig, tmp_path / "orig")
        materialize(upd, tmp_path / "upd")
        pkg = tmp_path / "up.satpkg"
        run(capsys, "diff", tmp_path / "orig", tmp_path / "upd", "-o", pkg)
        code, out, _ = run(capsys, "inspect", pkg, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "inspect"
        assert doc["package_bytes"] == pkg.stat().st_size
        container = gzip.decompress(pkg.read_bytes())
        (manifest_len,) = struct.unpack_from(">Q", container, 85)
        assert doc["manifest_bytes"] == manifest_len
        kinds = doc["kinds"]
        assert set(kinds) == {"CHUNK_PATCH", "TEXT_PATCH", "FILE_INSERT"}
        assert doc["segment_bytes"] == sum(k["segment_bytes"] for k in kinds.values())
        # The flipped chunk travels as one (gap, XOR) pair, patched into
        # the old chunk, and nothing is inserted.
        chunk = kinds["CHUNK_PATCH"]
        assert chunk["changes"] == 1 and chunk["inserted"] == 0
        assert 0 < chunk["segment_bytes"] <= 4 < 256 <= chunk["patched"]
        assert chunk["changed"] == 1
        assert kinds["TEXT_PATCH"]["segment_bytes"] == len(b"B\n")
        assert kinds["TEXT_PATCH"]["patched"] == kinds["TEXT_PATCH"]["changed"] == 0
        # Paths by segment bytes, most first: the patched chunk now costs
        # less than the inserted file.
        assert doc["paths"] == sorted(doc["paths"], key=lambda kv: (-kv[1], kv[0]))
        assert dict(doc["paths"]) == {
            "app/b.bin": chunk["segment_bytes"], "app/m.py": 2, "app/n.txt": 4
        }
        code, out, _ = run(capsys, "inspect", pkg)
        assert code == 0 and "manifest:" in out and "patched B" in out and "changed" in out
        row = next(line for line in out.splitlines() if line.startswith("CHUNK_PATCH"))
        assert row.split()[1:] == [
            str(chunk[key])
            for key in ("changes", "segment_bytes", "inserted", "patched", "changed")
        ]

    def test_bad_package_exits_2(self, tmp_path, capsys):
        pkg = tmp_path / "bad.satpkg"
        pkg.write_bytes(b"not a package")
        code, _, err = run(capsys, "inspect", pkg)
        assert code == 2 and "bad package" in err


class TestBench:
    def test_rows(self, trees, capsys):
        tmp, *_ = trees
        code, out, _ = run(
            capsys, "bench", tmp / "orig", tmp / "upd", "--app-prefix", "app", "--json"
        )
        assert code == 0
        rows = {r["strategy"]: r["bytes"] for r in json.loads(out)["rows"]}
        assert set(rows) == {"full-image", "app-dir", "changed-files", "delta"}
        # delta has fixed header+manifest overhead, so ordering against it
        # only holds for realistically sized payloads (covered below)
        assert rows["changed-files"] <= rows["app-dir"] <= rows["full-image"]

    def test_delta_beats_changed_files_on_real_payload(self, tmp_path, capsys):
        materialize(sample_app_tree(0), tmp_path / "base")
        run(
            capsys,
            "gen-variant", tmp_path / "base", tmp_path / "var",
            "--ratio", "0.2", "--seed", "5", "--scope", "app",
        )
        code, out, _ = run(
            capsys, "bench", tmp_path / "base", tmp_path / "var",
            "--app-prefix", "app", "--json",
        )
        assert code == 0
        rows = {r["strategy"]: r["bytes"] for r in json.loads(out)["rows"]}
        assert rows["delta"] <= rows["changed-files"] <= rows["app-dir"] <= rows["full-image"]

    def test_bad_prefix_exits_2(self, trees, capsys):
        tmp, *_ = trees
        code, _, err = run(
            capsys, "bench", tmp / "orig", tmp / "upd", "--app-prefix", "missing"
        )
        assert code == 2

    @pytest.mark.parametrize("prefix", ["app/", "./app"])
    def test_prefix_spellings_agree(self, trees, capsys, prefix):
        tmp, *_ = trees
        outs = [
            run(capsys, "bench", tmp / "orig", tmp / "upd", "--app-prefix", p, "--json")
            for p in (prefix, "app")
        ]
        assert outs[0][0] == 0
        assert outs[0] == outs[1]

    def test_escaping_prefix_exits_2(self, trees, capsys):
        tmp, *_ = trees
        code, _, err = run(
            capsys, "bench", tmp / "orig", tmp / "upd", "--app-prefix", "../x"
        )
        assert code == 2 and "invalid path" in err


class TestLayerCommands:
    def test_commit_stable_rollback_cycle(self, trees, capsys):
        tmp, orig, upd = trees
        store = tmp / "store"
        assert run(capsys, "commit", tmp / "orig", "--store", store, "--tag", "v1.0")[0] == 0
        assert run(capsys, "mark-stable", "--store", store, "--tag", "v1.0")[0] == 0
        assert run(capsys, "commit", tmp / "upd", "--store", store, "--tag", "v1.1")[0] == 0

        code, out, _ = run(
            capsys, "rollback", "--store", store, "--exit-code", "137", "--json"
        )
        assert code == 4
        doc = json.loads(out)
        assert doc["rolled_back"] is True
        assert (doc["from"], doc["to"]) == ("v1.1", "v1.0")

        code, out, _ = run(capsys, "rollback", "--store", store, "--exit-code", "9")
        assert code == 0 and "nothing to do" in out

    def test_duplicate_tag_exits_2(self, trees, capsys):
        tmp, *_ = trees
        store = tmp / "store"
        run(capsys, "commit", tmp / "orig", "--store", store, "--tag", "v1")
        code, _, err = run(capsys, "commit", tmp / "orig", "--store", store, "--tag", "v1")
        assert code == 2

    def test_rollback_without_stable_exits_2(self, trees, capsys):
        tmp, *_ = trees
        store = tmp / "store"
        run(capsys, "commit", tmp / "orig", "--store", store, "--tag", "v1")
        code, _, _ = run(capsys, "rollback", "--store", store, "--exit-code", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("mark-stable", "--tag", "v1"), "no layer tagged 'v1'"),
            (("rollback", "--exit-code", "1"), "no layers deployed"),
            (("rollback", "--exit-code", "0"), "exit code 0 is not a failure"),
            (
                ("commit", "bad", "--tag", "v1"),
                "invalid path 'bad\\udcff.txt': not valid UTF-8",
            ),
        ],
        ids=["mark-stable", "rollback", "rollback-exit-0", "commit-bad-tree"],
    )
    def test_failed_command_creates_no_store(self, tmp_path, capsys, argv, error):
        if "bad" in argv:
            (tmp_path / "bad").mkdir()
            try:
                (tmp_path / "bad" / "bad\udcff.txt").write_bytes(b"x")  # b"\xff"
            except OSError:
                pytest.skip("the file system refuses names that are not UTF-8")
        argv = [tmp_path / a if a == "bad" else a for a in argv]
        store = tmp_path / "store"
        code, out, err = run(capsys, *argv, "--store", store, "--json")
        assert (code, err) == (2, "")
        assert json.loads(out) == {
            "schema": "satpatch-cli/1",
            "command": argv[0],
            "error": error,
        }
        assert not store.exists()

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("commit", "orig", "--tag", "v1"), "layer 'v1' already exists"),
            (("rollback", "--exit-code", "1"), "no stable layer to roll back to"),
            (("rollback", "--exit-code", "0"), "exit code 0 is not a failure"),
        ],
    )
    def test_store_refusals_are_error_records(self, trees, capsys, argv, error):
        tmp, *_ = trees
        store = tmp / "store"
        run(capsys, "commit", tmp / "orig", "--store", store, "--tag", "v1")
        argv = [tmp / a if a == "orig" else a for a in argv]
        code, out, err = run(capsys, *argv, "--store", store, "--json")
        assert (code, err) == (2, "")
        assert json.loads(out) == {
            "schema": "satpatch-cli/1",
            "command": argv[0],
            "error": error,
        }


class TestGenVariant:
    def test_writes_tree_in_band(self, tmp_path, capsys):
        materialize(sample_app_tree(0), tmp_path / "base")
        code, out, _ = run(
            capsys,
            "gen-variant",
            tmp_path / "base",
            tmp_path / "var",
            "--ratio", "0.1", "--seed", "3", "--scope", "app", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["achieved_ratio"] - 0.1) <= 0.05
        assert load_tree(tmp_path / "var")  # materialized and loadable

    @pytest.mark.parametrize("scope, code", [("app/", 0), ("./app", 0), ("../x", 2)])
    def test_scope_spellings(self, tmp_path, capsys, scope, code):
        materialize(sample_app_tree(0), tmp_path / "base")
        args = ["gen-variant", tmp_path / "base", "--ratio", "0.1", "--seed", "3"]
        got, _, err = run(capsys, *args[:2], tmp_path / "var", *args[2:], "--scope", scope)
        assert got == code, err
        if code == 0:
            run(capsys, *args[:2], tmp_path / "ref", *args[2:], "--scope", "app")
            assert load_tree(tmp_path / "var") == load_tree(tmp_path / "ref")

    def test_bad_ratio_exits_2(self, tmp_path, capsys):
        materialize(sample_app_tree(0), tmp_path / "base")
        code, _, err = run(
            capsys,
            "gen-variant", tmp_path / "base", tmp_path / "var",
            "--ratio", "1.5", "--seed", "0",
        )
        assert code == 2


class TestUsage:
    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 1

    def test_missing_required_option_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["commit", "sometree"])
        assert exc.value.code == 1

    def test_json_error_object(self, trees, capsys):
        tmp, *_ = trees
        code = main(["apply", str(tmp / "orig"), str(tmp / "missing.satpkg"), "--json"])
        out = capsys.readouterr().out
        assert code == 2
        doc = json.loads(out)
        assert doc["schema"] == "satpatch-cli/1"
        assert "error" in doc


class TestEnvironmentErrors:
    """Bad arguments and unwritable outputs exit 2 with an error record."""

    def check(self, capsys, *argv) -> str:
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (2, "")
        doc = json.loads(out)
        assert doc["schema"] == "satpatch-cli/1" and doc["error"]
        return doc["error"]

    @pytest.mark.parametrize("kbps", ["0", "-5"])
    def test_bench_nonpositive_bandwidth(self, trees, capsys, kbps):
        tmp, *_ = trees
        error = self.check(
            capsys, "bench", tmp / "orig", tmp / "upd", "--bandwidth-kbps", kbps
        )
        assert "bandwidth" in error

    def test_diff_into_missing_directory(self, trees, capsys):
        tmp, *_ = trees
        out = tmp / "missing_dir" / "p.satpkg"
        error = self.check(capsys, "diff", tmp / "orig", tmp / "upd", "-o", out)
        assert str(out) in error
        assert not (tmp / "missing_dir").exists()

    def test_apply_tar_into_missing_directory(self, trees, capsys):
        tmp, *_ = trees
        pkg = tmp / "up.satpkg"
        assert run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)[0] == 0
        out = tmp / "missing_dir" / "x.tar"
        error = self.check(capsys, "apply", tmp / "orig", pkg, "-o", out)
        assert str(out) in error

    def test_commit_store_is_a_regular_file(self, trees, capsys):
        tmp, *_ = trees
        store = tmp / "store"
        store.write_bytes(b"not a directory\n")
        error = self.check(capsys, "commit", tmp / "orig", "--store", store, "--tag", "v1")
        assert str(store) in error
        assert store.read_bytes() == b"not a directory\n"

    def test_verify_tar_with_non_utf8_member(self, tmp_path, capsys):
        tar = tmp_path / "bad.tar"
        with tarfile.open(tar, mode="w") as archive:
            info = tarfile.TarInfo(name="bad\udcff.txt")  # the byte b"\xff"
            info.size = 1
            archive.addfile(info, io.BytesIO(b"x"))
        error = self.check(capsys, "verify", tar)
        assert "not valid UTF-8" in error

    def test_diff_with_unlistable_directory(self, trees, capsys, unlistable):
        tmp, *_ = trees
        unlistable.add(tmp / "upd" / "app")
        pkg = tmp / "p.satpkg"
        error = self.check(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)
        assert "cannot list directory" in error
        assert not pkg.exists()

    def test_verify_cut_tar(self, tmp_path, capsys):
        tree = FileTree.from_dict("v", {"a.txt": b"a" * 700, "b.txt": b"b" * 300})
        cut = tmp_path / "cut.tar"
        cut.write_bytes(write_tar(tree)[:1800])  # inside b.txt's header
        self.check(capsys, "verify", cut)

    def updated_store(self, capsys, tmp):
        """A store with v1.0 stable and v1.1 active but not yet stable."""
        store = tmp / "store"
        for argv in (
            ("commit", tmp / "orig", "--tag", "v1.0"),
            ("mark-stable", "--tag", "v1.0"),
            ("commit", tmp / "upd", "--tag", "v1.1"),
        ):
            assert run(capsys, *argv, "--store", store)[0] == 0
        return store

    def active(self, store):
        layer = LayerStore(store).stack.active_layer
        return layer.tag, layer.stable

    def test_commit_store_trees_is_a_regular_file(self, trees, capsys):
        tmp, *_ = trees
        store = self.updated_store(capsys, tmp)
        shutil.rmtree(store / "trees")
        (store / "trees").write_bytes(b"not a directory\n")
        self.check(capsys, "commit", tmp / "orig", "--store", store, "--tag", "v1.2")
        assert self.active(store) == ("v1.1", False)

    @pytest.mark.parametrize(
        "argv", [("mark-stable", "--tag", "v1.1"), ("rollback", "--exit-code", "1")]
    )
    def test_store_index_cannot_be_written(self, trees, capsys, argv):
        tmp, *_ = trees
        store = self.updated_store(capsys, tmp)
        (store / "layers.idx.tmp").mkdir()
        self.check(capsys, *argv, "--store", store)
        assert self.active(store) == ("v1.1", False)


class TestExistingFileOutput:
    """A file output that exists is refused, not replaced: exit 2, the
    old bytes kept, no temp file left beside it."""

    KEEP = b"keep me\n"

    def refused(self, capsys, out, *argv, as_json):
        out.write_bytes(self.KEEP)
        code, stdout, stderr = run(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 2
        if as_json:
            assert stderr == ""
            assert "already exists" in json.loads(stdout)["error"]
        else:
            assert stdout == "" and "already exists" in stderr
        assert out.read_bytes() == self.KEEP
        assert sorted(p.name for p in out.parent.glob(out.name + "*")) == [out.name]

    @pytest.mark.parametrize("as_json", [False, True])
    def test_diff_package(self, trees, capsys, as_json):
        tmp, *_ = trees
        out = tmp / "p.satpkg"
        self.refused(capsys, out, "diff", tmp / "orig", tmp / "upd", "-o", out,
                     as_json=as_json)

    @pytest.mark.parametrize("as_json", [False, True])
    def test_apply_tar(self, trees, capsys, as_json):
        tmp, *_ = trees
        pkg = tmp / "up.satpkg"
        assert run(capsys, "diff", tmp / "orig", tmp / "upd", "-o", pkg)[0] == 0
        out = tmp / "out.tar"
        self.refused(capsys, out, "apply", tmp / "orig", pkg, "-o", out,
                     as_json=as_json)

    @pytest.mark.parametrize("as_json", [False, True])
    def test_gen_variant_tar(self, tmp_path, capsys, as_json):
        materialize(sample_app_tree(0), tmp_path / "base")
        out = tmp_path / "var.tar"
        self.refused(
            capsys, out, "gen-variant", tmp_path / "base", out,
            "--ratio", "0.1", "--seed", "3", "--scope", "app", as_json=as_json,
        )
