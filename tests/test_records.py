from cycloseq.records import MeasureRecord, RecordCache


def _record(key, value):
    return MeasureRecord(sequence_label="w", measure="Ck", params={"k": 1}, value=value,
                         cache_key=key)


def test_cache_get_last_record_wins(tmp_path):
    cache = RecordCache(tmp_path / "c.jsonl")
    for key, value in (("a" * 64, 1), ("b" * 64, 2), ("a" * 64, 3)):
        cache.append(_record(key, value))
    assert cache.get("a" * 64)["value"] == 3
    assert cache.get("b" * 64)["value"] == 2
    assert cache.get("c" * 64) is None


def test_cache_get_skips_corrupt_lines(tmp_path):
    cache = RecordCache(tmp_path / "c.jsonl")
    cache.append(_record("a" * 64, 1))
    with open(cache.path, "a") as f:
        f.write('{"cache_key": "' + "a" * 64 + '", "value": \n')  # truncated write
    assert cache.get("a" * 64)["value"] == 1


def test_cache_get_matches_the_key_field_only(tmp_path):
    cache = RecordCache(tmp_path / "c.jsonl")
    rec = _record("b" * 64, 1)
    rec.sequence_label = "a" * 64  # the key appears in the line, but not as its cache_key
    cache.append(rec)
    assert cache.get("a" * 64) is None


def test_cache_get_missing_file(tmp_path):
    assert RecordCache(tmp_path / "absent.jsonl").get("a" * 64) is None
