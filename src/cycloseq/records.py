"""Measure records, deterministic serialization, and the JSONL result cache.

The cache serves the last good record line under a key, in the one shape
MeasureRecord.to_json() writes: opening {"cache_key":"<key>".  A line read from
the file is parsed and its fields checked before it is served, whoever wrote it;
a line this process serialized from a MeasureRecord and appended itself is
served as written, until the process next reads the file whole, as it does
whenever the file's size or mtime is not what the process holds.
"""

from __future__ import annotations

import csv
import errno
import functools
import hashlib
import io
import json
import os
import re
import stat
import sys
import threading
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__

try:
    import fcntl
except ImportError:  # no flock where there is no fcntl: appends go unlocked
    fcntl = None


# json.dumps(obj, sort_keys=True, separators=(",", ":")), without the new encoder
# json.dumps builds for these arguments at every call
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def cache_key(seq, measure: str, params: dict) -> str:
    """Identity of a measure result on a BitSequence.

    Built from the content of the word (a sha256 of its packed bits, its length
    and its period), the measure and its params, and the toolkit version.  The
    label is provenance only: equal labels on different words get different keys.
    """
    payload = {
        "bits": hashlib.sha256(np.packbits(seq.bits).tobytes()).hexdigest(),
        "length": seq.length,
        "period": seq.period,
        "measure": measure,
        "params": params,
        "version": __version__,
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


@dataclass
class MeasureRecord:
    sequence_label: str
    measure: str  # Ck | autocorr | lc_profile | moc_profile | two_adic
    params: dict
    value: object
    witness: dict | None = None
    timestamp: str = ""
    toolkit_version: str = __version__
    cache_key: str | None = None  # see cache_key(); None for records never cached

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.now(timezone.utc).isoformat()

    def to_json(self) -> str:
        # every field holds JSON-native values, so no asdict deep copy is needed
        return _canonical(vars(self))

    def write_csv(self) -> None:
        """Print the record to stdout as CSV rows: a header, then one row per
        key of a dict value, or one row."""
        w = csv.writer(sys.stdout)
        base = [self.sequence_label, self.measure, _canonical(self.params)]
        tail = [_canonical(self.witness) if self.witness else "", self.timestamp,
                self.toolkit_version]
        w.writerow(["sequence_label", "measure", "params", "key", "value", "witness",
                    "timestamp", "toolkit_version"])
        if isinstance(self.value, dict):
            # rows in the key order of to_json, so a cache hit prints what its miss printed
            for key, val in sorted(self.value.items()):
                w.writerow(base + [key, _json_cell(val)] + tail)
        else:
            w.writerow(base + ["", _json_cell(self.value)] + tail)


_FIELDS = frozenset(f.name for f in fields(MeasureRecord))
_REQUIRED = frozenset(f.name for f in fields(MeasureRecord) if f.default is MISSING)


def _json_cell(v) -> str:
    if isinstance(v, (int, float, str)):
        return str(v)
    return _canonical(v)


# A record line as MeasureRecord.to_json() writes it opens with its key, since
# its fields are sorted; only a line that opens so is served under the key, so
# the byte search and the index, built from these openings alone, agree.
_RECORD_OPENING = re.compile(rb'^\{"cache_key":"([^"\\\n]*)"', re.MULTILINE)
_HELD_MAX = 16  # cache files a process holds at once; past this the oldest is dropped
_O_READ = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_O_APPEND = os.O_RDWR | os.O_APPEND | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _record_line(data, start: int, stop: int, key: str) -> str | None:
    """data[start:stop] without a trailing CR, if it is a good record under `key`.

    Refused: a line that does not open with {"cache_key":"<key>", and a corrupt
    line, one that is not JSON, not a JSON object, or holds a field that
    MeasureRecord does not take, or lacks one it needs.
    """
    if not data.startswith(b'{"cache_key":"%s"' % key.encode(), start, stop):
        return None
    try:
        line = data[start:stop].removesuffix(b"\r").decode()
        d = json.loads(line)
    except ValueError:  # JSONDecodeError or UnicodeDecodeError
        return None
    if isinstance(d, dict) and d.get("cache_key") == key and _REQUIRED <= d.keys() <= _FIELDS:
        return line
    return None


def _search(data, key: str) -> str | None:
    """The byte search: `data` is searched for `key`, last occurrence first, and
    only the line around each occurrence is checked; the first good record wins."""
    needle = key.encode()
    end = len(data)
    while end > 0 and (hit := data.rfind(needle, 0, end)) >= 0:
        start = data.rfind(b"\n", 0, hit) + 1
        stop = data.find(b"\n", hit)
        end = start - 1
        if (line := _record_line(data, start, stop if stop >= 0 else len(data), key)) is not None:
            return line
    return None


def _read_from(fd: int, size: int) -> bytearray:
    """The first `size` bytes of the open file, fewer where it ends first.

    Nothing past them is read: what was appended since the file's stamp was
    taken is left for the next lookup, which sees the file grown past it.
    """
    buf = bytearray(size)
    got = 0
    with io.FileIO(fd, closefd=False) as f, memoryview(buf) as view:
        f.seek(0)
        while got < size and (n := f.readinto(view[got:])):
            got += n
    del buf[got:]
    return buf


def _stamp(st) -> tuple:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class _Held:
    """What one process holds of one cache file: its first len(data) bytes, read
    or appended by the process, as of the file's stamp (device, inode, size, mtime).
    They change in two ways only: `reread`, a read of the whole file, and an
    append of the process's own that lands right at their end (RecordCache.append).

    The file stays open while it is held, so that its inode number cannot pass to
    a file that replaces it.  `index` maps a key to the start of the last line
    before `indexed` that opens as a record under it (see _RECORD_OPENING): the
    only line _search could serve under the key, unless it is corrupt.  It is
    built at the second lookup after a whole read, so that a process that looks
    up once never pays for it.  `own` holds the starts of the lines the process
    serialized and appended itself since the bytes were last read whole: such a
    line is a good record, and is served without being parsed.
    """

    __slots__ = ("fd", "dev", "ino", "mtime_ns", "data", "index", "indexed", "own")

    def __init__(self, fd: int):
        self.fd = fd
        st = os.fstat(fd)
        self.dev, self.ino = st.st_dev, st.st_ino
        self.reread(st)

    def stamp(self) -> tuple:
        return self.dev, self.ino, len(self.data), self.mtime_ns

    def reread(self, st) -> None:
        self.data = _read_from(self.fd, st.st_size)
        self.mtime_ns = st.st_mtime_ns
        self.index, self.indexed = None, 0
        self.own = set()

    def lookup(self, key: str) -> str | None:
        """What _search(self.data, key) returns: that search at the first lookup
        since the file was read whole, the index after."""
        data = self.data
        if self.index is None:
            self.index = {}
            return _search(data, key)
        end = data.rfind(b"\n") + 1  # the lines before `end` are terminated
        for m in _RECORD_OPENING.finditer(data, self.indexed, end):
            self.index[m[1]] = m.start()
        self.indexed = end
        # a last line with no terminator is never indexed, and it is the last line
        if end < len(data) and (line := _record_line(data, end, len(data), key)) is not None:
            return line
        start = self.index.get(key.encode())
        if start is None:
            return None
        stop = data.find(b"\n", start)
        if start in self.own:  # the process's own line: a good record, as it wrote it
            return data[start:stop].decode()
        line = _record_line(data, start, stop, key)
        return line if line is not None else _search(data, key)  # a corrupt line


# Every RecordCache of a path shares what the process holds of its file, since
# each `measure` request makes its own RecordCache; _LOCK guards this state.
_HELD: dict[str, _Held] = {}
_LOCK = threading.Lock()


def _drop(name: str) -> None:
    held = _HELD.pop(name, None)
    if held is not None:
        os.close(held.fd)


def _sync(name: str) -> _Held | None:
    """What the process holds of the file at `name`, brought up to date; None
    when there is no file.

    A held file whose size or mtime is not what the process holds is read again
    whole: whatever changed, an append by another writer or a rewrite anywhere in
    it, is seen, unless the rewrite keeps both the size and the mtime to the
    nanosecond.  A file under another device or inode is held anew.
    """
    held = _HELD.get(name)
    try:
        st = os.stat(name)
    except FileNotFoundError:
        _drop(name)
        return None
    if held is not None and (st.st_dev, st.st_ino) == (held.dev, held.ino):
        if (st.st_size, st.st_mtime_ns) != (len(held.data), held.mtime_ns):
            held.reread(os.fstat(held.fd))
        return held
    _drop(name)  # replaced by another file, or never held
    if stat.S_ISDIR(st.st_mode):  # refused as open() refuses it, naming the path
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), name)
    try:
        fd = os.open(name, _O_READ)
    except FileNotFoundError:  # removed since the stat
        return None
    try:
        held = _Held(fd)
    except BaseException:
        os.close(fd)
        raise
    if len(_HELD) >= _HELD_MAX:
        _drop(next(iter(_HELD)))
    _HELD[name] = held
    return held


class RecordCache:
    """Append-friendly JSONL store of records, keyed by their cache_key."""

    def __init__(self, path):
        self._name = os.fspath(path)

    @functools.cached_property
    def path(self) -> Path:
        # built only when asked for: a Path costs about as much as a held lookup
        return Path(self._name)

    def get(self, key: str) -> str | None:
        """The stored line of the last record under `key`, without its line
        terminator, or None.

        Served from what the process holds of the file (see _Held), which is read
        again whole when the file changed since the process last read or wrote
        it.  The first lookup after a whole read is the byte search (_search);
        later ones find the key's last record line through the index, and fall
        back to the byte search when that line is corrupt.
        """
        with _LOCK:
            held = _sync(self._name)
            return None if held is None else held.lookup(key)

    def append(self, record: MeasureRecord) -> str:
        """Append the record as one line, record.to_json(), and return that line.

        A newline goes first when the file ends in an unterminated line, as a
        process killed mid-append leaves it, so that the record starts a line.
        When the file is, up to the write, exactly what the process holds of it,
        the line joins the held bytes, so the process never reads it back, and a
        lookup that lands on it serves it without parsing it again.
        """
        line = record.to_json()
        try:
            fd = os.open(self._name, _O_APPEND, 0o666)
        except FileNotFoundError:  # a directory is missing: only then is one made
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self._name, _O_APPEND, 0o666)
        try:
            with _LOCK:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                st = os.fstat(fd)
                held = _HELD.get(self._name)
                if held is not None and held.stamp() == _stamp(st):
                    last = held.data[-1:]
                else:  # not held, or the file moved on since: its last byte, if any
                    held = None
                    os.lseek(fd, max(st.st_size - 1, 0), os.SEEK_SET)
                    last = os.read(fd, 1)
                lead = b"" if last in (b"", b"\n") else b"\n"
                out = lead + line.encode() + b"\n"
                rest = memoryview(out)
                while rest:
                    rest = rest[os.write(fd, rest) :]
                if held is not None:
                    st = os.fstat(fd)
                    if st.st_size == len(held.data) + len(out):
                        held.own.add(len(held.data) + len(lead))
                        held.data += out
                        held.mtime_ns = st.st_mtime_ns
        finally:
            os.close(fd)
        return line
