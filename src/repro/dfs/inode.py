"""Inodes, file types, and POSIX mode-bit permission checks."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["FileType", "Inode", "AccessMode", "check_mode_bits"]


class FileType(enum.Enum):
    FILE = "file"
    DIRECTORY = "dir"


class AccessMode(enum.IntFlag):
    """Requested access, mirroring the r/w/x permission triplet."""

    READ = 4
    WRITE = 2
    EXECUTE = 1


def check_mode_bits(mode: int, uid: int, gid: int, owner_uid: int,
                    owner_gid: int, want: AccessMode) -> bool:
    """Classic owner/group/other mode-bit evaluation.

    uid 0 is root and passes everything, matching POSIX superuser
    semantics (the DFS admin tooling in the paper runs as root).
    """
    if uid == 0:
        return True
    if uid == owner_uid:
        bits = (mode >> 6) & 0o7
    elif gid == owner_gid:
        bits = (mode >> 3) & 0o7
    else:
        bits = mode & 0o7
    return (bits & int(want)) == int(want)


@dataclass
class Inode:
    """File/directory metadata record.

    ``ctime``/``mtime`` are simulated-time floats stamped by the owner of
    the namespace (the MDS actor passes its env clock in).  ``inline_data``
    is used by Pacon's small-file optimization when metadata records are
    stored in the distributed cache; the DFS itself keeps file bytes on
    data servers and only tracks ``size`` here.
    """

    ino: int
    ftype: FileType
    mode: int = 0o755
    uid: int = 0
    gid: int = 0
    size: int = 0
    ctime: float = 0.0
    mtime: float = 0.0
    nlink: int = 1
    inline_data: Optional[bytes] = None

    @property
    def is_dir(self) -> bool:
        return self.ftype is FileType.DIRECTORY

    @property
    def is_file(self) -> bool:
        return self.ftype is FileType.FILE

    def permits(self, uid: int, gid: int, want: AccessMode) -> bool:
        return check_mode_bits(self.mode, uid, gid, self.uid, self.gid, want)

    def to_record(self) -> Dict:
        """Serialize to the plain-dict wire/cache format."""
        return {
            "ino": self.ino,
            "ftype": self.ftype.value,
            "mode": self.mode,
            "uid": self.uid,
            "gid": self.gid,
            "size": self.size,
            "ctime": self.ctime,
            "mtime": self.mtime,
            "nlink": self.nlink,
            "inline_data": self.inline_data,
        }

    @classmethod
    def from_record(cls, record: Dict) -> "Inode":
        return cls(
            ino=record["ino"],
            ftype=FileType(record["ftype"]),
            mode=record["mode"],
            uid=record["uid"],
            gid=record["gid"],
            size=record["size"],
            ctime=record["ctime"],
            mtime=record["mtime"],
            nlink=record.get("nlink", 1),
            inline_data=record.get("inline_data"),
        )

    def copy(self) -> "Inode":
        return Inode(self.ino, self.ftype, self.mode, self.uid, self.gid,
                     self.size, self.ctime, self.mtime, self.nlink,
                     self.inline_data)
