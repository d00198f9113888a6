"""Measure records, deterministic serialization, and the JSONL result cache."""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

TOOLKIT_VERSION = "0.1.0"


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
        "version": TOOLKIT_VERSION,
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


@dataclass
class MeasureRecord:
    sequence_label: str
    measure: str  # Ck | autocorr | lc_profile | moc_profile | two_adic | charsum | bound_check
    params: dict
    value: object
    witness: dict | None = None
    kernel_values: dict | None = None
    timestamp: str = ""
    toolkit_version: str = TOOLKIT_VERSION
    cache_key: str | None = None  # see cache_key(); None for records never cached

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = datetime.now(timezone.utc).isoformat()

    def to_json(self) -> str:
        return _canonical(asdict(self))

    def write(self, stream=None, fmt: str = "json") -> None:
        stream = stream or sys.stdout
        if fmt == "json":
            stream.write(self.to_json() + "\n")
        elif fmt == "csv":
            import csv

            w = csv.writer(stream)
            base = [self.sequence_label, self.measure, _canonical(self.params)]
            tail = [
                _canonical(self.witness) if self.witness else "",
                _canonical(self.kernel_values) if self.kernel_values else "",
                self.timestamp,
                self.toolkit_version,
            ]
            header = [
                "sequence_label",
                "measure",
                "params",
                "key",
                "value",
                "witness",
                "kernel_values",
                "timestamp",
                "toolkit_version",
            ]
            w.writerow(header)
            if isinstance(self.value, dict):
                for key, val in self.value.items():
                    w.writerow(base + [key, _json_cell(val)] + tail)
            else:
                w.writerow(base + ["", _json_cell(self.value)] + tail)
        else:
            raise ValueError(f"unknown format {fmt!r}")


def _json_cell(v) -> str:
    if isinstance(v, (int, float, str)):
        return str(v)
    return _canonical(v)


class RecordCache:
    """Append-friendly JSONL store of records, keyed by their cache_key."""

    def __init__(self, path):
        self.path = Path(path)

    def get(self, key: str) -> dict | None:
        """The last record stored under `key`, or None; corrupt lines are skipped.

        Only lines containing `key` as a substring are parsed.
        """
        if not self.path.exists():
            return None
        for line in reversed(self.path.read_text().splitlines()):
            if key not in line:
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError:
                continue
            if d.get("cache_key") == key:
                return d
        return None

    def append(self, record: MeasureRecord) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as f:
            try:
                import fcntl

                fcntl.flock(f, fcntl.LOCK_EX)
            except ImportError:
                pass
            f.write(record.to_json() + "\n")
