"""Measure records, deterministic serialization, and the JSONL result cache."""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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


class RecordCache:
    """Append-friendly JSONL store of records, keyed by their cache_key."""

    def __init__(self, path):
        self.path = Path(path)

    def get(self, key: str) -> str | None:
        """The stored line of the last record under `key`, without its line
        terminator, or None.

        The file is searched as bytes for `key`, last occurrence first, and only
        the line around each occurrence is parsed.  Corrupt lines are skipped:
        a line that is not JSON, not a JSON object, or holds a field that
        MeasureRecord does not take, or lacks one it needs.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return None
        needle = key.encode()
        end = len(data)
        while end > 0 and (hit := data.rfind(needle, 0, end)) >= 0:
            start = data.rfind(b"\n", 0, hit) + 1
            stop = data.find(b"\n", hit)
            end = start - 1
            try:
                line = data[start : stop if stop >= 0 else len(data)].removesuffix(b"\r").decode()
                d = json.loads(line)
            except ValueError:  # JSONDecodeError or UnicodeDecodeError
                continue
            if isinstance(d, dict) and d.get("cache_key") == key and _REQUIRED <= d.keys() <= _FIELDS:
                return line
        return None

    def append(self, line: str) -> None:
        """Append one serialized record, a MeasureRecord.to_json() line."""
        try:
            f = open(self.path, "ab")
        except FileNotFoundError:  # a directory is missing: only then is one made
            self.path.parent.mkdir(parents=True, exist_ok=True)
            f = open(self.path, "ab")
        with f:
            try:
                import fcntl

                fcntl.flock(f, fcntl.LOCK_EX)
            except ImportError:
                pass
            f.write(line.encode() + b"\n")
