"""Memory-mapped append-only arena of interned points-to masks.

No solver uses this module.  It stays only because the benchmark's
``wpabench/layers.py`` still probes ``PTArena.open``/``attach``; delete
it together with that probe (EXPERIMENTS.md E10 records why the
deduplication stack it belonged to was removed).

A flat byte region holding every distinct points-to mask a repository
had interned, one record per dense interning id.  It offered:

- **read-shared attachment** — fork workers :meth:`attach` the region
  read-only through ``mmap``, so the mask bytes live in shared physical
  pages instead of being re-deserialised (and copy-on-write duplicated)
  per process;
- **warm reattachment** — a later run on the same store re-interns the
  arena's masks in one sequential sweep before solving, so every set the
  previous run discovered is already hash-consed when the solver asks.

Layout (all little-endian)::

    [magic "PTARENA1"][u64 count][u64 used]      -- 24-byte header
    [u32 len][len mask bytes] * count            -- record region

Record ``i`` holds the mask of repo id ``i``; record 0 is therefore
always the zero-length empty set.  Appends write the new records first
and update the header last, so a reader never walks past ``used`` into a
torn tail — a crashed append loses at most the records it was writing,
never the prefix.  The arena is purely a performance cache: every
consumer validates it on open and falls back to an empty repository when
it does not parse, so results can never depend on its contents.
"""

from __future__ import annotations

import mmap
import os
import struct
from typing import Iterable, Iterator, List, Tuple

MAGIC = b"PTARENA1"
_HEADER = struct.Struct("<8sQQ")  # magic, record count, used record bytes
_LEN = struct.Struct("<I")
HEADER_SIZE = _HEADER.size


class ArenaError(ValueError):
    """The arena file is malformed (bad magic, truncation, overrun)."""


class PTArena:
    """One mask-arena file, open for appending or attached read-only.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "arena.bin")
    >>> arena = PTArena.open(path)
    >>> arena.append_masks([0b101, 0b11])
    2
    >>> reader = PTArena.attach(path)
    >>> list(reader.masks())
    [0, 5, 3]
    """

    def __init__(self, path: str, *, file=None, buf=None,
                 offsets: List[Tuple[int, int]], used: int, writable: bool):
        self.path = path
        self._file = file  # open r+b handle (writable mode)
        self._buf = buf  # read-only mmap (attached mode)
        self._offsets = offsets  # (absolute offset, length) per record
        self._used = used
        self.writable = writable

    # --------------------------------------------------------------- opening

    @classmethod
    def open(cls, path: str) -> "PTArena":
        """Open (creating if missing) *path* for appending.

        Exactly one process should hold a writable arena; readers use
        :meth:`attach`.  Raises :class:`ArenaError` if an existing file
        does not validate.
        """
        if not os.path.exists(path):
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(path, "wb") as handle:
                # Header + the mandatory empty-set record (repo id 0).
                handle.write(_HEADER.pack(MAGIC, 1, _LEN.size))
                handle.write(_LEN.pack(0))
        file = open(path, "r+b")
        try:
            offsets, used = cls._scan(file.read(), path)
        except ArenaError:
            file.close()
            raise
        return cls(path, file=file, offsets=offsets, used=used, writable=True)

    @classmethod
    def attach(cls, path: str) -> "PTArena":
        """Attach *path* read-only through a shared memory map.

        The map's physical pages are shared with every other process
        attached to the same file (and, under fork, with the parent),
        which is what cuts the per-worker copy-on-write churn.
        """
        with open(path, "rb") as handle:
            if os.fstat(handle.fileno()).st_size == 0:
                # mmap rejects empty files with an untyped ValueError; a
                # zero-truncated arena is malformed like any other.
                raise ArenaError(f"arena {path} is empty")
            buf = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            offsets, used = cls._scan(buf, path)
        except ArenaError:
            buf.close()
            raise
        return cls(path, buf=buf, offsets=offsets, used=used, writable=False)

    @staticmethod
    def _scan(data, path: str) -> Tuple[List[Tuple[int, int]], int]:
        """Validate the header and walk the record region; returns
        ``(offsets, used)`` or raises :class:`ArenaError`."""
        if len(data) < HEADER_SIZE:
            raise ArenaError(f"arena {path} is shorter than its header")
        magic, count, used = _HEADER.unpack_from(data, 0)
        if magic != MAGIC:
            raise ArenaError(f"arena {path} has bad magic {magic!r}")
        end = HEADER_SIZE + used
        if end > len(data):
            raise ArenaError(
                f"arena {path} is truncated: header claims {used} record "
                f"bytes, file has {len(data) - HEADER_SIZE}")
        offsets: List[Tuple[int, int]] = []
        pos = HEADER_SIZE
        while pos < end:
            if pos + _LEN.size > end:
                raise ArenaError(f"arena {path}: record length overruns "
                                 f"the region at offset {pos}")
            (length,) = _LEN.unpack_from(data, pos)
            pos += _LEN.size
            if pos + length > end:
                raise ArenaError(f"arena {path}: record of {length} bytes "
                                 f"overruns the region at offset {pos}")
            offsets.append((pos, length))
            pos += length
        if len(offsets) != count:
            raise ArenaError(f"arena {path}: header claims {count} records, "
                             f"region holds {len(offsets)}")
        if not offsets or offsets[0][1] != 0:
            raise ArenaError(f"arena {path}: record 0 must be the empty set")
        return offsets, used

    # --------------------------------------------------------------- reading

    def __len__(self) -> int:
        """Number of records (= the repo-id watermark the arena covers)."""
        return len(self._offsets)

    def mask(self, index: int) -> int:
        """The mask record *index* holds (repo id *index*)."""
        offset, length = self._offsets[index]
        if not length:
            return 0
        if self._buf is not None:
            data = self._buf[offset:offset + length]
        else:
            self._file.seek(offset)
            data = self._file.read(length)
        return int.from_bytes(data, "little")

    def masks(self) -> Iterator[int]:
        """Every record's mask, in repo-id order."""
        for index in range(len(self._offsets)):
            yield self.mask(index)

    @property
    def resident_bytes(self) -> int:
        """Bytes of the mapped/backing region (header + records)."""
        return HEADER_SIZE + self._used

    # -------------------------------------------------------------- appending

    def append_masks(self, masks: Iterable[int]) -> int:
        """Append one record per mask; returns how many were written.

        Records are flushed before the header is rewritten, so a reader
        (or a crash) mid-append sees the old consistent prefix.
        """
        if not self.writable:
            raise ArenaError(f"arena {self.path} is attached read-only")
        chunk = bytearray()
        pos = HEADER_SIZE + self._used
        count = 0
        for mask in masks:
            data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
            chunk += _LEN.pack(len(data))
            pos += _LEN.size
            self._offsets.append((pos, len(data)))
            chunk += data
            pos += len(data)
            count += 1
        if not count:
            return 0
        file = self._file
        file.seek(HEADER_SIZE + self._used)
        file.write(bytes(chunk))
        file.flush()
        self._used = pos - HEADER_SIZE
        file.seek(0)
        file.write(_HEADER.pack(MAGIC, len(self._offsets), self._used))
        file.flush()
        os.fsync(file.fileno())
        return count

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._buf is not None:
            self._buf.close()
            self._buf = None
