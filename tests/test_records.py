import json
import os
import random
import sys
import threading
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq import records
from cycloseq.records import MeasureRecord, RecordCache, _canonical, cache_key
from cycloseq.seqgen import BitSequence


def _record(key, value):
    return MeasureRecord(sequence_label="w", measure="Ck", params={"k": 1}, value=value,
                         cache_key=key)


def _value(cache, key):
    """The value of the record `get` serves under `key`; get returns its stored line."""
    return json.loads(cache.get(key))["value"]


def _get_oracle(path, key):
    """The line-splitting lookup RecordCache.get replaced, with its corrupt-line rules:
    every line holding `key` is parsed, last first."""
    if not path.exists():
        return None
    for line in reversed(path.read_text().splitlines()):
        if key not in line:
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(d, dict) or d.get("cache_key") != key:
            continue
        try:
            MeasureRecord(**d)
        except TypeError:
            continue
        return d
    return None


def test_cache_get_last_record_wins(tmp_path):
    cache = RecordCache(tmp_path / "c.jsonl")
    for key, value in (("a" * 64, 1), ("b" * 64, 2), ("a" * 64, 3)):
        cache.append(_record(key, value))
    assert _value(cache, "a" * 64) == 3
    assert _value(cache, "b" * 64) == 2
    assert cache.get("c" * 64) is None


def test_cache_get_skips_corrupt_lines(tmp_path):
    cache = RecordCache(tmp_path / "c.jsonl")
    cache.append(_record("a" * 64, 1))
    with open(cache.path, "a") as f:
        f.write('{"cache_key": "' + "a" * 64 + '", "value": \n')  # truncated write
    assert _value(cache, "a" * 64) == 1


def test_cache_get_matches_the_key_field_only(tmp_path):
    cache = RecordCache(tmp_path / "c.jsonl")
    rec = _record("b" * 64, 1)
    rec.sequence_label = "a" * 64  # the key appears in the line, but not as its cache_key
    cache.append(rec)
    assert cache.get("a" * 64) is None


def test_cache_get_serves_the_stored_line(tmp_path):
    cache = RecordCache(tmp_path / "c.jsonl")
    rec = _record("a" * 64, 1)
    stored = cache.append(rec)
    assert stored == rec.to_json()
    assert cache.get("a" * 64) == stored
    # a CRLF-terminated record is served without its carriage return
    crlf = _record("a" * 64, 2).to_json()
    with open(cache.path, "ab") as f:
        f.write(crlf.encode() + b"\r\n")
    assert cache.get("a" * 64) == crlf


def test_cache_get_missing_file(tmp_path):
    assert RecordCache(tmp_path / "absent.jsonl").get("a" * 64) is None


def test_cache_get_skips_non_object_lines(tmp_path):
    cache = RecordCache(tmp_path / "c.jsonl")
    cache.append(_record("a" * 64, 1))
    for line in ('["' + "a" * 64 + '"]', '"' + "a" * 64 + '"'):
        _write(cache.path, line + "\n", "ab")
        assert _value(cache, "a" * 64) == 1


def test_cache_get_skips_records_with_unknown_or_missing_fields(tmp_path):
    cache = RecordCache(tmp_path / "c.jsonl")
    good = json.loads(_record("a" * 64, 1).to_json())

    def write(d):
        _write(cache.path, _canonical(d) + "\n", "ab")

    write({**good, "value": 2, "extra": 1})
    assert cache.get("a" * 64) is None  # nothing older: the request recomputes
    write(good)
    write({**good, "value": 3, "extra": 1})
    missing = dict(good, value=4)
    del missing["params"]
    write(missing)
    # a record written while MeasureRecord still had a kernel_values field
    write({**good, "value": 5, "kernel_values": None})
    assert _value(cache, "a" * 64) == 1  # the next older record under the key


KEYS = ["a" * 8, "b" * 8, "ab" * 4]


@st.composite
def _cache_line(draw):
    key = draw(st.sampled_from(KEYS))
    rec = json.loads(_record(key, draw(st.integers(-5, 5))).to_json())
    kind = draw(st.sampled_from(["record", "truncated", "in-label", "list", "string",
                                 "extra-field", "missing-field", "crlf", "blank", "reordered",
                                 "escaped-name"]))
    if kind == "reordered":  # a good record in another shape: cache_key last, spaced
        return json.dumps(dict(reversed(rec.items())))
    if kind == "escaped-name":  # a good record whose field name spells "_" as an escape
        return json.dumps(rec).replace('"cache_key"', '"cache\\u005fkey"')
    if kind == "truncated":
        line = _canonical(rec)
        return line[: draw(st.integers(0, len(line) - 1))]
    if kind == "in-label":
        rec["sequence_label"], rec["cache_key"] = key, draw(st.sampled_from(KEYS))
    elif kind == "list":
        return json.dumps([key, rec["value"]])
    elif kind == "string":
        return json.dumps(key)
    elif kind == "extra-field":
        rec["extra"] = 1
    elif kind == "missing-field":
        del rec[draw(st.sampled_from(["sequence_label", "measure", "params", "value"]))]
    elif kind == "crlf":
        return _canonical(rec) + "\r"
    elif kind == "blank":
        return ""
    return _canonical(rec)


@given(st.lists(_cache_line(), max_size=12), st.booleans(), st.sampled_from(KEYS + ["c" * 8]))
@settings(max_examples=300, deadline=None)
def test_cache_get_matches_line_splitting_oracle(tmp_path_factory, lines, trailing_newline, key):
    path = tmp_path_factory.mktemp("cache") / "c.jsonl"
    text = "\n".join(lines) + ("\n" if trailing_newline and lines else "")
    path.write_bytes(text.encode())
    line = RecordCache(path).get(key)
    assert (None if line is None else json.loads(line)) == _get_oracle(path, key)


def _byte_search(path, key):
    """The byte search over the whole file, read afresh: what get served before
    the process held what it read."""
    return records._search(path.read_bytes(), key) if path.exists() else None


def _write(path, text, mode):
    with open(path, mode) as f:
        f.write(text.encode())


_SESSION_OPS = st.one_of(
    st.tuples(st.just("append"), st.builds(_record, st.sampled_from(KEYS), st.integers(-5, 5))),
    st.tuples(st.just("write"), st.lists(_cache_line(), min_size=1, max_size=2), st.booleans()),
    st.tuples(st.just("truncate"), st.integers(0, 10**4)),
    st.tuples(st.just("rewrite"), st.lists(_cache_line(), max_size=2)),
    st.tuples(st.just("recreate"), st.lists(_cache_line(), max_size=2)),
    st.tuples(st.just("unlink")),
)


@given(st.lists(_SESSION_OPS, max_size=8))
@settings(max_examples=300, deadline=None)
def test_cache_session_matches_line_splitting_oracle(tmp_path_factory, ops):
    """One path, one process, nothing of what the process holds reset: after
    each step, get serves what the oracle and a fresh byte search serve.  The
    process appends good records; corrupt lines come from other writers.

    The files stay below the 4096 bytes that are compared before growth is taken
    for an append, so every rewrite is compared whole.  An unterminated last line
    never ends in a bare CR: a later write would leave that CR inside a line, where
    the oracle's splitlines() ends a line and the byte search does not.
    """
    path = tmp_path_factory.mktemp("cache") / "c.jsonl"
    for op in ops:
        size = path.stat().st_size if path.exists() else 0
        if op[0] == "append":
            RecordCache(path).append(op[1])
        elif op[0] == "write":
            text = "\n".join(op[1]) + "\n" if op[2] else "\n".join(op[1]).removesuffix("\r")
            _write(path, text, "ab")
        elif op[0] == "truncate" and size:
            os.truncate(path, op[1] % size)
        elif op[0] == "rewrite":  # in place, to a longer file with other records
            text = "".join(line + "\n" for line in op[1])
            while len(text.encode()) <= size:
                text += _record(KEYS[len(text) % 3], len(text) % 11 - 5).to_json() + "\n"
            _write(path, text, "r+b" if path.exists() else "wb")
        elif op[0] == "recreate":
            path.unlink(missing_ok=True)
            _write(path, "".join(line + "\n" for line in op[1]), "wb")
        elif op[0] == "unlink":
            path.unlink(missing_ok=True)
        assert not path.exists() or path.stat().st_size < records._WINDOW
        for key in KEYS + ["c" * 8]:
            line = RecordCache(path).get(key)
            assert line == _byte_search(path, key)
            assert (None if line is None else json.loads(line)) == _get_oracle(path, key)


def _count_reads(monkeypatch) -> list[int]:
    """Wrap the cache's file reads: the returned list gets each read's byte count."""
    counts = []
    read = records._read_from

    def counted(*args):
        data = read(*args)
        counts.append(len(data))
        return data

    monkeypatch.setattr(records, "_read_from", counted)
    return counts


def test_cache_session_reads_linearly(tmp_path, monkeypatch):
    # 500 requests, each key twice: the process reads back none of its own appends
    counts = _count_reads(monkeypatch)
    path = tmp_path / "c.jsonl"
    keys = [f"{i:064x}" for i in range(250)] * 2
    random.Random(5).shuffle(keys)
    served = {}
    for key in keys:
        line = RecordCache(path).get(key)
        if line is None:
            line = RecordCache(path).append(_record(key, len(served)))
        assert served.setdefault(key, line) == line
    assert len(served) == 250
    assert sum(counts) <= 2 * path.stat().st_size


def test_cache_first_get_reads_the_file_once_and_builds_no_index(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    lines = [_record(f"{i:064x}", i).to_json() for i in range(6000)]
    path.write_text("".join(line + "\n" for line in lines))
    counts = _count_reads(monkeypatch)
    assert RecordCache(path).get(f"{4321:064x}") == lines[4321]
    assert counts == [path.stat().st_size]
    assert not records._HELD[str(path)].index  # a one-shot lookup indexes no line
    assert RecordCache(path).get(f"{17:064x}") == lines[17]
    assert RecordCache(path).get("f" * 64) is None
    assert counts == [path.stat().st_size] and len(records._HELD[str(path)].index) == 6000


def test_cache_reads_only_what_another_writer_appended(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    recs = [_record(f"{i:064x}", i) for i in range(100)]
    lines = [rec.to_json() for rec in recs]
    path.write_text("".join(line + "\n" for line in lines[:60]))
    cache = RecordCache(path)
    assert cache.get(f"{0:064x}") == lines[0]
    counts = _count_reads(monkeypatch)
    _write(path, "".join(line + "\n" for line in lines[60:90]), "ab")  # another writer
    # appended where the process's copy no longer ends: not taken into the copy
    cache.append(recs[90])
    assert cache.get(f"{90:064x}") == lines[90] and cache.get(f"{75:064x}") == lines[75]
    grown = sum(len(line) + 1 for line in lines[60:91])
    assert counts == [records._WINDOW + grown]
    # the bytes just before the old end changed, so the file is read again whole
    text = path.read_text().replace('"value":89', '"value":-1')
    _write(path, text + lines[91] + "\n", "r+b")
    assert json.loads(cache.get(f"{89:064x}"))["value"] == -1
    assert counts[1:] == [records._WINDOW + len(lines[91]) + 1, path.stat().st_size]


def _rewrite_at_its_size(path, old, new, seconds):
    """Rewrite the file in place, the same size, its mtime moved on by `seconds`:
    a clock with coarse ticks may leave a quick rewrite's mtime where it was."""
    st = path.stat()
    text = path.read_text()
    assert old in text and len(old) == len(new)
    _write(path, text.replace(old, new), "r+b")
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + seconds * 10**9))


def test_cache_reads_again_a_file_rewritten_in_place_at_its_size(tmp_path):
    path = tmp_path / "c.jsonl"
    recs = [_record(f"{i:064x}", i) for i in range(61)]
    lines = [rec.to_json() for rec in recs]
    path.write_text("".join(line + "\n" for line in lines[:60]))
    cache = RecordCache(path)
    assert cache.get(f"{13:064x}") == lines[13]
    # the rewrite is far before the end: the whole file is compared
    _rewrite_at_its_size(path, '"value":13', '"value":31', 1)
    assert json.loads(cache.get(f"{13:064x}"))["value"] == 31
    # an append after a rewrite the process has not seen joins nothing it holds
    _rewrite_at_its_size(path, '"value":58', '"value":85', 2)
    cache.append(recs[60])
    assert json.loads(cache.get(f"{58:064x}"))["value"] == 85
    assert cache.get(f"{60:064x}") == lines[60]


def _count_parses(monkeypatch) -> list[int]:
    """Wrap the cache's line parse: the returned list gets each parsed line's start."""
    starts = []
    parse = records._record_line

    def counted(data, start, stop, key):
        starts.append(start)
        return parse(data, start, stop, key)

    monkeypatch.setattr(records, "_record_line", counted)
    return starts


def _held_cache(path) -> RecordCache:
    """A cache on a new file that the process already holds and has looked up
    once, so that its appends join what it holds."""
    path.write_text(_record("f" * 64, 0).to_json() + "\n")
    cache = RecordCache(path)
    assert cache.get("f" * 64) is not None
    return cache


def test_cache_serves_its_own_line_unparsed(tmp_path, monkeypatch):
    cache = _held_cache(tmp_path / "c.jsonl")
    own = cache.append(_record("a" * 64, 1))
    starts = _count_parses(monkeypatch)
    assert RecordCache(cache.path).get("a" * 64) == own
    assert starts == []
    # a line it read from the file, not one it appended, is parsed
    assert RecordCache(cache.path).get("f" * 64) is not None
    assert starts == [0]


def test_cache_never_serves_a_corrupt_line_another_writer_appends_later(tmp_path, monkeypatch):
    cache = _held_cache(tmp_path / "c.jsonl")
    own = cache.append(_record("a" * 64, 1))
    good = json.loads(own)
    starts = _count_parses(monkeypatch)
    for corrupt in (own[:-9], _canonical({**good, "value": 2, "extra": 1}),
                    _canonical(dict(good, value=3, measure=None)).replace('"measure":null,', "")):
        size = cache.path.stat().st_size
        _write(cache.path, corrupt + "\n", "ab")  # another writer, under the same key
        assert cache.get("a" * 64) == own
        assert size in starts  # the later line was parsed, and refused
    # a good record another writer appends later is served: the last record wins
    later = _canonical({**good, "value": 4})
    _write(cache.path, later + "\n", "ab")
    assert cache.get("a" * 64) == later


@pytest.mark.parametrize("change", ["truncate", "replace"])
def test_cache_parses_its_own_lines_again_once_it_reads_the_file_again(tmp_path, monkeypatch,
                                                                        change):
    cache = _held_cache(tmp_path / "c.jsonl")
    own = cache.append(_record("a" * 64, 1))
    cache.append(_record("b" * 64, 2))
    starts = _count_parses(monkeypatch)
    assert cache.get("a" * 64) == own and starts == []
    start = cache.path.read_bytes().index(own.encode())
    if change == "truncate":  # the last line goes: the file shrank
        os.truncate(cache.path, start + len(own) + 1)
    else:  # the same bytes under another inode
        other = tmp_path / "other.jsonl"
        other.write_bytes(cache.path.read_bytes())
        os.replace(other, cache.path)
    assert cache.get("a" * 64) == own
    assert starts == [start]
    assert cache.get("a" * 64) == own
    assert starts == [start, start]


def test_cache_serves_threads_that_share_it(tmp_path):
    # more threads than cores, switching often: every append is served back and
    # none is lost from the file or from what the process holds
    path = tmp_path / "c.jsonl"
    n = (os.cpu_count() or 2) + 2
    errors = []

    def worker(t):
        try:
            for i in range(25):
                line = RecordCache(path).append(_record(f"{t:04d}{i:04d}", i))
                if RecordCache(path).get(f"{t:04d}{i:04d}") != line:
                    errors.append((t, i))
        except Exception as e:  # noqa: BLE001 - reported by the assert below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    stored = path.read_text().splitlines()
    assert len(stored) == 25 * n
    assert all(RecordCache(path).get(json.loads(line)["cache_key"]) == line for line in stored)


_INTS = st.integers(-(10**60), 10**60)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_PROFILE = st.lists(st.integers(0, 500))
# (measure, params, value, witness) strategies, one entry per shape `measure` and
# `baseline` emit
_SHAPES = [
    ("Ck", st.fixed_dictionaries({"k": st.integers(1, 6)}), st.integers(0, 10**4),
     st.fixed_dictionaries({"D": st.lists(st.integers(0, 99), max_size=6),
                            "M": st.integers(1, 10**4), "exhaustive": st.booleans()})),
    ("autocorr", st.just({"t": "all"}),
     st.dictionaries(st.integers(1, 300).map(str), st.integers(-300, 300)), st.none()),
    ("autocorr", st.fixed_dictionaries({"t": st.integers(1, 300)}), st.integers(-300, 300),
     st.none()),
    ("lc_profile", st.just({}), _PROFILE, st.none()),
    ("moc_profile", st.just({}), _PROFILE, st.none()),
    ("two_adic", st.just({}), st.fixed_dictionaries({
        "S2": _INTS, "modulus": _INTS, "gcd": _INTS, "complexity": _FLOATS,
        "maximal": st.booleans()}), st.none()),
    ("Ck", st.just({"mode": "baseline", "k": 2, "N": 64, "trials": 5, "seed": 1}),
     st.fixed_dictionaries({"mean_ratio": _FLOATS, "max_ratio": _FLOATS,
                            "quartiles": st.lists(_FLOATS, min_size=3, max_size=3),
                            "values": st.lists(st.integers(0, 99))}), st.none()),
]


@st.composite
def _records(draw):
    measure, params, value, witness = draw(st.sampled_from(_SHAPES))
    return MeasureRecord(
        sequence_label=draw(st.text(max_size=20)),
        measure=measure,
        params=draw(params),
        value=draw(value),
        witness=draw(witness),
        timestamp=draw(st.sampled_from(["", "2026-01-01T00:00:00+00:00"])),
        cache_key=draw(st.none() | st.text("0123456789abcdef", min_size=64, max_size=64)),
    )


@given(_records())
@settings(max_examples=300, deadline=None)
def test_to_json_matches_asdict_serialization(rec):
    assert rec.to_json() == _canonical(asdict(rec))


def test_cache_append_creates_missing_directories(tmp_path):
    # the first append under two missing directory levels makes them both
    cache = RecordCache(tmp_path / "a" / "b" / "c.jsonl")
    stored = cache.append(_record("a" * 64, 1))
    assert cache.path.read_bytes() == stored.encode() + b"\n"
    assert cache.get("a" * 64) == stored


def test_records_keep_the_version_stored_keys_were_made_with():
    # a key of another version misses every stored record: Hall's p = 13 word,
    # C_2, keys as it did when its records were first written
    seq = BitSequence.create([int(b) for b in "0110010010011"], period=13)
    key = cache_key(seq, "Ck", {"k": 2})
    assert key == "d3971a9c6fc9f4f3daa5f292e25db84edc75be99d7aa55752bda0bdbe5bd2fb9"
    assert _record(key, 7).toolkit_version == "0.1.0"
