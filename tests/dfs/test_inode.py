"""Unit tests for inodes and mode-bit permission evaluation."""

import json

import pytest

from repro.dfs.inode import AccessMode, FileType, Inode, check_mode_bits


class TestCheckModeBits:
    def test_owner_uses_owner_bits(self):
        # 0o700: owner rwx, nobody else anything
        assert check_mode_bits(0o700, 5, 5, 5, 5, AccessMode.READ)
        assert not check_mode_bits(0o700, 6, 5, 5, 5, AccessMode.READ)

    def test_group_uses_group_bits(self):
        assert check_mode_bits(0o070, 6, 5, 5, 5, AccessMode.WRITE)
        assert not check_mode_bits(0o070, 6, 7, 5, 5, AccessMode.WRITE)

    def test_other_uses_other_bits(self):
        assert check_mode_bits(0o007, 6, 7, 5, 5, AccessMode.EXECUTE)
        assert not check_mode_bits(0o006, 6, 7, 5, 5, AccessMode.EXECUTE)

    def test_owner_match_shadows_more_permissive_other(self):
        # POSIX quirk: owner class applies even if its bits are weaker.
        assert not check_mode_bits(0o077, 5, 5, 5, 5, AccessMode.READ)

    def test_root_passes_everything(self):
        assert check_mode_bits(0o000, 0, 0, 5, 5,
                               AccessMode.READ | AccessMode.WRITE)

    def test_combined_access_needs_all_bits(self):
        want = AccessMode.READ | AccessMode.WRITE
        assert check_mode_bits(0o600, 5, 5, 5, 5, want)
        assert not check_mode_bits(0o400, 5, 5, 5, 5, want)


class TestInode:
    def test_type_predicates(self):
        d = Inode(1, FileType.DIRECTORY)
        f = Inode(2, FileType.FILE)
        assert d.is_dir and not d.is_file
        assert f.is_file and not f.is_dir

    def test_permits_delegates_to_mode_bits(self):
        inode = Inode(1, FileType.FILE, mode=0o640, uid=5, gid=9)
        assert inode.permits(5, 0, AccessMode.WRITE)
        assert inode.permits(6, 9, AccessMode.READ)
        assert not inode.permits(6, 9, AccessMode.WRITE)
        assert not inode.permits(7, 8, AccessMode.READ)

    def test_record_round_trip(self):
        inode = Inode(7, FileType.FILE, mode=0o600, uid=3, gid=4, size=100,
                      ctime=1.5, mtime=2.5, inline_data=b"xyz")
        back = Inode.from_record(inode.to_record())
        assert back == inode

    def test_copy_is_independent(self):
        inode = Inode(1, FileType.FILE, size=10)
        dup = inode.copy()
        dup.size = 99
        assert inode.size == 10

    def test_from_record_defaults_nlink(self):
        rec = Inode(1, FileType.FILE).to_record()
        del rec["nlink"]
        assert Inode.from_record(rec).nlink == 1


class TestRecordFormat:
    """The wire/cache record, byte for byte (key order included)."""

    def test_file_record_bytes(self):
        inode = Inode(7, FileType.FILE, mode=0o600, uid=3, gid=4, size=100,
                      ctime=1.5, mtime=2.5)
        assert json.dumps(inode.to_record()) == (
            '{"ino": 7, "ftype": "file", "mode": 384, "uid": 3, "gid": 4,'
            ' "size": 100, "ctime": 1.5, "mtime": 2.5, "nlink": 1,'
            ' "inline_data": null}')

    def test_directory_record_bytes(self):
        inode = Inode(2, FileType.DIRECTORY, mode=0o755, uid=1000, gid=1000,
                      ctime=0.25, mtime=0.5, nlink=2)
        assert json.dumps(inode.to_record()) == (
            '{"ino": 2, "ftype": "dir", "mode": 493, "uid": 1000,'
            ' "gid": 1000, "size": 0, "ctime": 0.25, "mtime": 0.5,'
            ' "nlink": 2, "inline_data": null}')

    @pytest.mark.parametrize("ftype", list(FileType))
    def test_from_record_gives_back_the_member(self, ftype):
        back = Inode.from_record(Inode(3, ftype).to_record())
        assert back.ftype is ftype

    def test_unknown_ftype_raises_value_error(self):
        rec = Inode(3, FileType.FILE).to_record()
        rec["ftype"] = "symlink"
        with pytest.raises(ValueError):
            Inode.from_record(rec)

    def test_missing_optional_fields_take_defaults(self):
        rec = Inode(3, FileType.FILE, nlink=4, inline_data=b"x").to_record()
        del rec["nlink"], rec["inline_data"]
        back = Inode.from_record(rec)
        assert (back.nlink, back.inline_data) == (1, None)
