import json
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

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
        cache.append(_record(key, value).to_json())
    assert _value(cache, "a" * 64) == 3
    assert _value(cache, "b" * 64) == 2
    assert cache.get("c" * 64) is None


def test_cache_get_skips_corrupt_lines(tmp_path):
    cache = RecordCache(tmp_path / "c.jsonl")
    cache.append(_record("a" * 64, 1).to_json())
    with open(cache.path, "a") as f:
        f.write('{"cache_key": "' + "a" * 64 + '", "value": \n')  # truncated write
    assert _value(cache, "a" * 64) == 1


def test_cache_get_matches_the_key_field_only(tmp_path):
    cache = RecordCache(tmp_path / "c.jsonl")
    rec = _record("b" * 64, 1)
    rec.sequence_label = "a" * 64  # the key appears in the line, but not as its cache_key
    cache.append(rec.to_json())
    assert cache.get("a" * 64) is None


def test_cache_get_serves_the_stored_line(tmp_path):
    cache = RecordCache(tmp_path / "c.jsonl")
    stored = _record("a" * 64, 1).to_json()
    cache.append(stored)
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
    cache.append(_record("a" * 64, 1).to_json())
    for line in ('["' + "a" * 64 + '"]', '"' + "a" * 64 + '"'):
        cache.append(line)
        assert _value(cache, "a" * 64) == 1


def test_cache_get_skips_records_with_unknown_or_missing_fields(tmp_path):
    cache = RecordCache(tmp_path / "c.jsonl")
    good = json.loads(_record("a" * 64, 1).to_json())
    cache.append(_canonical({**good, "value": 2, "extra": 1}))
    assert cache.get("a" * 64) is None  # nothing older: the request recomputes
    cache.append(_canonical(good))
    cache.append(_canonical({**good, "value": 3, "extra": 1}))
    missing = dict(good, value=4)
    del missing["params"]
    cache.append(_canonical(missing))
    # a record written while MeasureRecord still had a kernel_values field
    cache.append(_canonical({**good, "value": 5, "kernel_values": None}))
    assert _value(cache, "a" * 64) == 1  # the next older record under the key


KEYS = ["a" * 8, "b" * 8, "ab" * 4]


@st.composite
def _cache_line(draw):
    key = draw(st.sampled_from(KEYS))
    rec = json.loads(_record(key, draw(st.integers(-5, 5))).to_json())
    kind = draw(st.sampled_from(["record", "truncated", "in-label", "list", "string",
                                 "extra-field", "missing-field", "crlf", "blank"]))
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
    stored = _record("a" * 64, 1).to_json()
    cache.append(stored)
    assert cache.path.read_bytes() == stored.encode() + b"\n"
    assert cache.get("a" * 64) == stored


def test_records_keep_the_version_stored_keys_were_made_with():
    # a key of another version misses every stored record: Hall's p = 13 word,
    # C_2, keys as it did when its records were first written
    seq = BitSequence.create([int(b) for b in "0110010010011"], period=13)
    key = cache_key(seq, "Ck", {"k": 2})
    assert key == "d3971a9c6fc9f4f3daa5f292e25db84edc75be99d7aa55752bda0bdbe5bd2fb9"
    assert _record(key, 7).toolkit_version == "0.1.0"
