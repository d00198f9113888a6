import argparse
import bisect
import contextlib
import csv
import dataclasses
import io
import json
import math
import shlex
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq import bounds, charsum, cli, measures, ntheory, seqgen
from cycloseq.cli import EXIT_BUDGET, EXIT_OK, EXIT_PARAM, EXIT_VERIFY, main
from cycloseq.errors import InvariantViolation
from cycloseq.ntheory import SexticParams
from cycloseq.records import MeasureRecord, _record_line, cache_key
from cycloseq.seqgen import read_sequence
from test_measures import _floyd_reference


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_hall_file(tmp_path, capsys):
    out = tmp_path / "h13.seq"
    code, stdout, _ = run(
        capsys, "generate", "--construction", "hall", "--p", "13", "--g", "smallest",
        "--length", "13", "--output", str(out),
    )
    assert code == EXIT_OK
    assert stdout.strip() == "hall(p=13,g=2)"
    seq = read_sequence(out)
    assert seq.to01() == "0110010010011"
    assert seq.period == 13


def test_generate_three_in_c1_policy(tmp_path, capsys):
    out = tmp_path / "h31.seq"
    code, stdout, _ = run(
        capsys, "generate", "--construction", "hall", "--p", "31", "--g", "three-in-c1",
        "--length", "31", "--output", str(out),
    )
    assert code == EXIT_OK
    assert "g=3" in stdout


def test_generate_cyclotomic_matches_hall(tmp_path, capsys):
    a = tmp_path / "a.seq"
    b = tmp_path / "b.seq"
    run(capsys, "generate", "--construction", "hall", "--p", "13", "--output", str(a))
    run(capsys, "generate", "--construction", "cyclotomic", "--p", "13", "--m", "6",
        "--classes", "0,1,3", "--output", str(b))
    assert read_sequence(a).to01() == read_sequence(b).to01()


@pytest.mark.parametrize("argv, label", [
    (("hall", "--p", "13"), "hall(p=13,g=2)"),
    (("hall", "--p", "31", "--g", "three-in-c1"), "hall(p=31,g=3)"),
    (("legendre", "--p", "13"), "legendre(p=13)"),
    (("dhl", "--p", "13"), "dhl(p=13,g=2)"),
    (("dhl", "--p", "13", "--g", "6"), "dhl(p=13,g=6)"),
    (("cyclotomic", "--p", "13", "--m", "4", "--classes", "1,0"),
     "cyclotomic(p=13,g=2,m=4,S={0,1})"),
    (("cyclotomic", "--p", "13", "--m", "3", "--classes", "0", "--g", "6"),
     "cyclotomic(p=13,g=6,m=3,S={0})"),
], ids=["hall", "hall-three-in-c1", "legendre", "dhl", "dhl-g6", "cyclotomic", "cyclotomic-g6"])
def test_generate_label_per_construction(argv, label, tmp_path, capsys):
    out = tmp_path / "w.seq"
    code, stdout, _ = run(capsys, "generate", "--construction", *argv, "--output", str(out))
    assert code == EXIT_OK and stdout == label + "\n"
    p = argv[2]
    assert out.read_text().splitlines()[0] == f"# {label} period={p}"


@pytest.mark.parametrize("g", ["three-in-c1", "smallest", "5", "4", "0", "foo"])
def test_legendre_ignores_g(g, tmp_path, capsys):
    # the squares are C0 of order 2 for every root, so --g is never read: a given
    # --g is refused, whatever its value, and nothing is written
    out = tmp_path / "w.seq"
    argv = ("generate", "--construction", "legendre", "--p", "7", "--output", str(out))
    assert run(capsys, *argv, "--g", g) == (
        EXIT_PARAM, "", "error: --construction legendre does not read --g\n")
    assert not out.exists()
    assert run(capsys, *argv) == (EXIT_OK, "legendre(p=7)\n", "")
    assert read_sequence(out).to01() == "0110100"
    # 3 and 5 are the primitive roots mod 7: both give the same word
    for root in (3, 5):
        word = seqgen.named_sequence(ntheory.PrimeParams.create(7, root), "legendre", 7)
        assert word.to01() == "0110100"


@pytest.mark.parametrize("p, g, message", [
    ("7", "smallest", "p=7 is not a prime = 1 (mod 4)"),
    ("7", "three-in-c1", "p=7 is not a prime = 1 (mod 4)"),
    ("7", "3", "p=7 is not a prime = 1 (mod 4)"),
    ("7", "4", "p=7 is not a prime = 1 (mod 4)"),  # 4 is no root mod 7 either
    ("13", "3", "3 is not a primitive root mod 13"),
    ("13", "0", "g must be in 1..12; got 0"),
    ("13", "13", "g must be in 1..12; got 13"),
    ("13", "three-in-c1", "no primitive root mod 13 has 3 in C1 (ind(3) = 4 mod 6 = 4)"),
])
def test_dhl_refusals(p, g, message, tmp_path, capsys):
    out = tmp_path / "w.seq"
    code, stdout, err = run(capsys, "generate", "--construction", "dhl", "--p", p, "--g", g,
                            "--output", str(out))
    assert code == EXIT_PARAM and stdout == "" and not out.exists()
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, primes", [
    (("verify", "--suite", "moc-le-lc", "--primes", "1033", "--N", "2p"), [1033]),
    (("verify", "--suite", "diffset", "--primes", "1033,1459", "--g-policy", "both"), [1033, 1459]),
    (("verify", "--suite", "cross-construction", "--primes", "upto:50", "--g-policy", "both"),
     [7, 13, 19, 31, 37, 43]),
    (("verify", "--suite", "index-representation", "--primes", "13,31", "--g-policy", "both"),
     [13, 31]),
    (("verify", "--suite", "bw06", "--primes", "11,13"), [11, 13]),
    (("verify", "--suite", "weil", "--primes", "11,13,31", "--kmax", "1", "--queries", "20"),
     [13, 31]),
    (("scan", "--ck", "2", "--primes", "13,31,43", "--g-policy", "three-in-c1"), [13, 31, 43]),
    (("scan", "--ck", "2", "--primes", "upto:50"), [7, 13, 19, 31, 37, 43]),
], ids=["moc-le-lc", "diffset-both", "cross-construction-both", "index-representation-both",
        "bw06", "weil", "scan-three-in-c1", "scan"])
def test_verify_builds_one_index_table_a_prime(argv, primes, monkeypatch, capsys):
    # every prime-walking command builds one arena a prime: moc-le-lc's Hall,
    # Legendre and DHL words share it, and under three-in-c1 (alone or beside
    # smallest) the arena is rebased from the smallest root's, also where no
    # root puts 3 in C1 (13 and 37); the same command again in the process
    # builds none, and prints the same
    built = []
    build = ntheory.build_index_table
    monkeypatch.setattr(ntheory, "build_index_table", lambda p, g: built.append(p) or build(p, g))
    code, stdout, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert argv[0] != "verify" or " 0 failed," in stdout
    assert sorted(built) == primes
    built.clear()
    assert run(capsys, *argv) == (code, stdout, "")
    assert built == []


def test_suites_leave_index_tables_only_in_the_memo(capsys):
    # coset tables are derived where they are read: after suites that read
    # classes of order 2, 3 and 6 under both policies, every memo key is (p, root)
    for argv in (("cross-construction", "--primes", "13,31,1033", "--g-policy", "both"),
                 ("index-representation", "--primes", "13,31,1033", "--g-policy", "both"),
                 ("diffset", "--primes", "13,31,1033", "--g-policy", "both"),
                 ("weil", "--primes", "13,31", "--kmax", "1", "--queries", "20")):
        code, stdout, _ = run(capsys, "verify", "--suite", *argv)
        assert code == EXIT_OK and " 0 failed," in stdout, argv
    keys = list(ntheory._MEMO.tables)
    assert {key[0] for key in keys} == {13, 31, 1033}
    assert all(len(key) == 2 and (key[1] in ntheory.G_POLICIES or isinstance(key[1], int))
               for key in keys), keys


@pytest.mark.parametrize("suite, module, check", [
    ("iw17", bounds, "check_iw17"), ("bw06", bounds, "check_bw06"), ("moc-le-lc", cli, "_moc_le_lc"),
])
def test_verify_builds_a_word_only_when_it_is_checked(suite, module, check, monkeypatch, capsys):
    # the words of the word-walking suites are built one prime at a time: at no
    # build are the words of more than one prime waiting for their checks
    events = []
    build = seqgen.named_sequence
    checked = getattr(module, check)
    monkeypatch.setattr(seqgen, "named_sequence", lambda params, name, n:
                        events.append(("build", params.p)) or build(params, name, n))
    monkeypatch.setattr(module, check, lambda seq: events.append(("check", None)) or checked(seq))
    code, stdout, _ = run(capsys, "verify", "--suite", suite, "--primes", "upto:50", "--N", "2p")
    assert code == EXIT_OK and " 0 failed," in stdout
    waiting = []
    for event, p in events:
        if event == "build":
            waiting.append(p)
            assert len(set(waiting)) == 1, events
        else:
            waiting.pop(0)
    assert waiting == [] and len(events) == 2 * (len(stdout.splitlines()) - 1)


@pytest.mark.parametrize("suite, module, name, extra", [
    ("cross-construction", seqgen, "hall_sequence_via_characters", ()),
    ("iw17", bounds, "check_iw17", ()),
    ("bw06", bounds, "check_bw06", ()),
    ("moc-le-lc", cli, "_moc_le_lc", ()),
    ("diffset", bounds, "difference_set_check", ()),
    ("weil", charsum, "weil_verdicts", ("--kmax", "1", "--queries", "5")),
    ("index-representation", seqgen, "check_index_representation", ()),
], ids=["cross-construction", "iw17", "bw06", "moc-le-lc", "diffset", "weil", "index-representation"])
def test_verify_suites_look_up_what_they_call_when_they_run(suite, module, name, extra,
                                                             monkeypatch, capsys):
    # rebound after the CLI is imported, as a tracer rebinds them, each function
    # a suite calls is reached: a table that bound them at import would miss it
    called = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: called.append(name) or fn(*a, **kw))
    code, stdout, _ = run(capsys, "verify", "--suite", suite, "--primes", "13", *extra)
    assert code == EXIT_OK and " 0 failed," in stdout
    assert called


def test_generate_parameter_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "generate", "--construction", "hall", "--p", "12",
        "--output", str(tmp_path / "x.seq"),
    )
    assert code == EXIT_PARAM
    assert err.strip().startswith("error:")


@pytest.mark.parametrize("argv", [("--construction", "hall"), ("--p", "13"), ()],
                         ids=["no-p", "no-construction", "neither"])
def test_generate_needs_construction_and_p(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, "generate", *argv)
    assert code == EXIT_PARAM
    assert stdout == "" and err.startswith("error:") and "--construction and --p" in err
    assert not list(tmp_path.iterdir())


def test_generate_empty_output_is_refused(tmp_path, monkeypatch, capsys):
    # an empty --output is a bad path, not a request for the default name
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, "generate", "--construction", "hall", "--p", "13", "--output", "")
    assert code == EXIT_PARAM
    assert stdout == "" and err.startswith("error:")
    assert not list(tmp_path.iterdir())


def test_measure_ck_with_witness(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    code, stdout, _ = run(
        capsys, "measure", "--construction", "hall", "--p", "13", "--ck", "1",
        "--cache", str(cache),
    )
    assert code == EXIT_OK
    rec = json.loads(stdout)
    assert rec["value"] == 4
    assert rec["witness"] == {"D": [3], "M": 8, "exhaustive": True}
    assert rec["measure"] == "Ck"
    assert rec["sequence_label"] == "hall(p=13,g=2)"


def test_measure_cache_coherence(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = ("measure", "--construction", "hall", "--p", "13", "--ck", "1",
            "--cache", str(cache))
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)  # served from cache
    assert first == second
    _, fresh, _ = run(capsys, *args[:-2], "--no-cache")
    a, b = json.loads(first), json.loads(fresh)
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


def test_measure_cache_keyed_on_content_not_label(tmp_path, capsys):
    # hall p=13 at lengths 13 and 26 share the label hall(p=13,g=2)
    args = ("measure", "--construction", "hall", "--p", "13", "--ck", "1",
            "--cache", str(tmp_path / "cache.jsonl"))
    _, short, _ = run(capsys, *args)
    _, long, _ = run(capsys, *args, "--length", "26")
    a, b = json.loads(short), json.loads(long)
    assert a["sequence_label"] == b["sequence_label"]
    assert (a["value"], b["value"]) == (4, 5)
    assert a["cache_key"] != b["cache_key"]


def test_measure_exact_cache_ignores_budget(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = ("measure", "--construction", "hall", "--p", "13", "--ck", "2", "--cache", str(cache))
    _, first, _ = run(capsys, *args, "--budget", "1000000000")
    code, second, _ = run(capsys, *args, "--budget", "100000000")
    assert code == EXIT_OK
    assert second == first  # served verbatim, timestamp included
    assert len(cache.read_text().splitlines()) == 1
    assert json.loads(first)["params"] == {"k": 2}


def test_measure_cache_headerless_files(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    records = []
    for name, bits in (("hall.seq", "0110010010011"), ("zeros.seq", "0" * 13)):
        (tmp_path / name).write_text(bits + "\n")  # no header: both labels are ""
        _, out, _ = run(capsys, "measure", "--input", str(tmp_path / name), "--ck", "1",
                        "--cache", str(cache))
        records.append(json.loads(out))
    assert [r["value"] for r in records] == [4, 13]
    assert records[0]["cache_key"] != records[1]["cache_key"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("measure", [("--ck", "2"), ("--ck", "3", "--sampled", "40"),
                                     ("--autocorr", "all"), ("--lc-profile",), ("--moc-profile",),
                                     ("--two-adic",)],
                         ids=["ck2", "ck3-sampled", "autocorr-all", "lc-profile", "moc-profile",
                              "two-adic"])
def test_measure_cache_hit_prints_what_the_miss_printed(tmp_path, capsys, measure, fmt):
    args = ("measure", "--construction", "hall", "--p", "31", *measure, "--format", fmt,
            "--cache", str(tmp_path / "c.jsonl"))
    code, miss, _ = run(capsys, *args)
    assert code == EXIT_OK
    assert run(capsys, *args) == (EXIT_OK, miss, "")
    if fmt == "csv" and measure[0] in ("--autocorr", "--two-adic"):
        keys = [row.split(",")[3] for row in miss.splitlines()[1:]]
        assert keys == sorted(keys)  # the key order of the JSON record


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("source", ["construction", "file", "headerless-file"])
def test_measure_hit_on_its_own_line_is_served_unparsed(tmp_path, monkeypatch, capsys, source,
                                                         fmt):
    cache = tmp_path / "c.jsonl"
    (tmp_path / "hall.seq").write_text("# hall(p=13,g=2) period=13\n0110010010011\n")
    (tmp_path / "bare.seq").write_text("0110010010011\n")
    word = {"construction": ("--construction", "hall", "--p", "13"),
            "file": ("--input", str(tmp_path / "hall.seq")),
            "headerless-file": ("--input", str(tmp_path / "bare.seq"), "--period", "13")}[source]
    # two requests first, so that the process holds the file when it appends
    for k in ("1", "2"):
        assert run(capsys, "measure", *word, "--ck", k, "--cache", str(cache))[0] == EXIT_OK
    args = ("measure", *word, "--ck", "3", "--format", fmt, "--cache", str(cache))
    code, miss, _ = run(capsys, *args)
    assert code == EXIT_OK
    parsed = []
    monkeypatch.setattr("cycloseq.records._record_line",
                        lambda *a: parsed.append(a[1]) or _record_line(*a))
    assert run(capsys, *args) == (EXIT_OK, miss, "")
    assert parsed == []
    assert len(cache.read_text().splitlines()) == 3


@pytest.mark.parametrize("spelling", ["same", "dot", "symlink", "hardlink", "default"])
def test_measure_refuses_a_cache_that_is_the_input_file(tmp_path, monkeypatch, capsys,
                                                        spelling):
    monkeypatch.chdir(tmp_path)
    word = tmp_path / ("cycloseq-cache.jsonl" if spelling == "default" else "b.seq")
    word.write_text("0110010010011\n")
    cache = {"same": str(word), "dot": f"{tmp_path}/./{word.name}", "symlink": "link.seq",
             "hardlink": "hard.seq", "default": None}[spelling]
    if spelling == "symlink":
        (tmp_path / "link.seq").symlink_to(word)
    elif spelling == "hardlink":
        (tmp_path / "hard.seq").hardlink_to(word)
    args = ("measure", "--input", str(word), "--ck", "1",
            *(() if cache is None else ("--cache", cache)))
    for _ in range(2):
        code, stdout, err = run(capsys, *args)
        assert code == EXIT_PARAM and stdout == ""
        assert err.startswith("error: --cache ") and "is the --input file" in err
    assert word.read_text() == "0110010010011\n"
    # another cache, or none, is served as before
    assert run(capsys, *args[:5], "--cache", "c.jsonl")[0] == EXIT_OK
    assert run(capsys, *args[:5], "--no-cache")[0] == EXIT_OK


@pytest.mark.parametrize("corrupt", ['["{key}"]', '{{"cache_key": "{key}", "extra": 1}}',
                                     "{stored}"],
                         ids=["list", "extra-field-only", "record-with-extra-field"])
def test_measure_skips_corrupt_cache_lines(tmp_path, capsys, corrupt):
    cache = tmp_path / "c.jsonl"
    args = ("measure", "--construction", "hall", "--p", "13", "--ck", "1", "--cache", str(cache))
    code, first, _ = run(capsys, *args)
    assert code == EXIT_OK
    stored = json.loads(first)
    forged = json.dumps({**stored, "value": 99, "extra": 1})  # an unknown field
    with open(cache, "a") as f:
        f.write(corrupt.format(key=stored["cache_key"], stored=forged) + "\n")
    assert run(capsys, *args) == (EXIT_OK, first, "")  # the older record is served
    cache.write_text(corrupt.format(key=stored["cache_key"], stored=forged) + "\n")
    code, fresh, _ = run(capsys, *args)  # nothing usable: the value is recomputed
    assert code == EXIT_OK
    assert json.loads(fresh)["value"] == 4


@pytest.mark.parametrize("raw", [b"\xff\xfe01\n", b"0\xef\xbc\x901\n", b"01x01\n"],
                         ids=["non-utf8", "full-width-zero", "letter"])
def test_measure_refuses_a_non_01_input_file(tmp_path, capsys, raw):
    path = tmp_path / "bin.seq"
    path.write_bytes(raw)
    code, stdout, err = run(capsys, "measure", "--input", str(path), "--ck", "1", "--no-cache")
    assert code == EXIT_PARAM
    assert stdout == ""
    assert err.startswith("error:") and "bin.seq" in err


def test_measure_autocorr_all(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "measure", "--construction", "hall", "--p", "31", "--g", "three-in-c1",
        "--autocorr", "all", "--cache", str(tmp_path / "c.jsonl"),
    )
    assert code == EXIT_OK
    rec = json.loads(stdout)
    assert len(rec["value"]) == 30
    assert all(v == -1 for v in rec["value"].values())


@pytest.mark.parametrize("t", [1, 5, 12])
def test_measure_autocorr_at_one_shift(t, tmp_path, capsys):
    args = ("measure", "--construction", "hall", "--p", "13", "--autocorr", str(t),
            "--cache", str(tmp_path / "c.jsonl"))
    code, miss, _ = run(capsys, *args)
    assert code == EXIT_OK
    assert run(capsys, *args) == (EXIT_OK, miss, "")  # the hit prints the miss's line
    rec = json.loads(miss)
    seq = seqgen.named_sequence(ntheory.PrimeParams.create(13, "smallest"), "hall", 13)
    assert rec["params"] == {"t": t}
    assert rec["value"] == measures.periodic_autocorrelations(seq)[t - 1]


def test_measure_autocorr_all_needs_a_declared_period(tmp_path, capsys):
    path = tmp_path / "bare.seq"
    path.write_text("0110010010011\n")  # no header, so no period
    code, stdout, err = run(capsys, "measure", "--input", str(path), "--autocorr", "all",
                            "--no-cache")
    assert code == EXIT_PARAM and stdout == ""
    assert err.startswith("error:") and "declared period" in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_measure_autocorr_all_csv_one_line_per_shift(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "measure", "--construction", "hall", "--p", "31", "--g", "three-in-c1",
        "--autocorr", "all", "--format", "csv", "--cache", str(tmp_path / "c.jsonl"),
    )
    assert code == EXIT_OK
    lines = [l for l in stdout.splitlines() if l.strip()]
    assert len(lines) == 31  # header + 30 shifts
    assert all(",-1," in l for l in lines[1:])


def test_measure_two_adic(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "measure", "--construction", "hall", "--p", "13", "--two-adic",
        "--cache", str(tmp_path / "c.jsonl"),
    )
    rec = json.loads(stdout)
    assert rec["value"]["S2"] == 6438
    assert rec["value"]["modulus"] == 8191
    assert rec["value"]["gcd"] == 1
    assert rec["value"]["maximal"] is True


def test_measure_two_adic_record_at_cap_round_trips(tmp_path, capsys):
    # the cap keeps S2 and 2**T - 1 within the int-to-str digit limit, so the
    # largest prime period it admits still writes, caches and re-reads a record
    p = max(n for n in range(measures.TWO_ADIC_CAP + 1) if ntheory.is_prime(n))
    assert p == 9973
    args = ("measure", "--construction", "legendre", "--p", str(p), "--two-adic",
            "--cache", str(tmp_path / "c.jsonl"))
    code, first, _ = run(capsys, *args)
    assert code == EXIT_OK
    code, second, _ = run(capsys, *args)
    assert code == EXIT_OK and second == first  # served from the cache
    rec = json.loads(first)
    rep = measures.two_adic_complexity(seqgen.legendre_sequence(p, p))
    assert rec["value"]["S2"] == rep.numerator
    assert rec["value"]["modulus"] == rep.modulus == 2**p - 1
    assert rec["value"]["gcd"] == rep.gcd_value


def test_measure_from_file(tmp_path, capsys):
    seqfile = tmp_path / "s.seq"
    run(capsys, "generate", "--construction", "legendre", "--p", "7", "--output", str(seqfile))
    code, stdout, _ = run(
        capsys, "measure", "--input", str(seqfile), "--lc-profile",
        "--cache", str(tmp_path / "c.jsonl"),
    )
    assert code == EXIT_OK
    rec = json.loads(stdout)
    assert rec["measure"] == "lc_profile"
    assert len(rec["value"]) == 7


def test_measure_budget_exit_code(tmp_path, capsys):
    code, _, err = run(
        capsys, "measure", "--construction", "hall", "--p", "499", "--ck", "3",
        "--budget", "1000", "--cache", str(tmp_path / "c.jsonl"),
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


@pytest.mark.parametrize("construction, message", [
    (("hall",), "p=0 is not a prime = 1 (mod 6)"),
    (("legendre",), "p=0 is not an odd prime"),
    (("cyclotomic", "--m", "2", "--classes", "0"), "p=0 is not an odd prime"),
], ids=["hall", "legendre", "cyclotomic"])
def test_measure_names_p_zero_as_generate_does(construction, message, tmp_path, capsys):
    # --p 0 is given: it is refused by the prime check, not as a missing --p
    for argv in (("measure", "--ck", "1", "--no-cache"),
                 ("generate", "--output", str(tmp_path / "w.seq"))):
        code, stdout, err = run(capsys, *argv, "--construction", *construction, "--p", "0")
        assert (code, stdout, err) == (EXIT_PARAM, "", f"error: {message}\n")


def test_measure_empty_input_is_not_ignored(capsys):
    # --input "" is given: refused beside --construction like any other path,
    # never dropped for the construction's word
    code, stdout, err = run(capsys, "measure", "--input", "", "--construction", "hall",
                            "--p", "13", "--ck", "1", "--no-cache")
    assert (code, stdout) == (EXIT_PARAM, "")
    assert err == "error: --input does not read --construction, --p\n"


@pytest.mark.parametrize("argv", [
    ("baseline", "--n", str(10**20), "--k", "100000"),
    ("measure", "--construction", "hall", "--p", "100003", "--ck", "20000", "--no-cache"),
    ("verify", "--suite", "weil", "--primes", "1000003", "--kmax", "20000"),
], ids=["baseline", "measure", "weil"])
def test_astronomical_charge_is_refused_at_once(argv, monkeypatch, capsys):
    # comb(10**20, 10**5) alone took seconds to compute only to be refused: the
    # charge is refused from its lower bound, and never computed
    monkeypatch.setattr(math, "comb", lambda *a: pytest.fail("comb computed"))
    start = time.perf_counter()
    code, stdout, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, stdout) == (EXIT_BUDGET, "")
    assert err.startswith("error: estimated at least 2**") and err.count("\n") == 1


def test_measure_autocorr_not_an_integer(tmp_path, capsys):
    code, stdout, err = run(
        capsys, "measure", "--construction", "hall", "--p", "13", "--autocorr", "abc",
        "--cache", str(tmp_path / "c.jsonl"),
    )
    assert code == EXIT_PARAM
    assert stdout == ""
    assert err.strip().startswith("error:") and "--autocorr" in err


def test_generate_length_zero_is_refused(tmp_path, capsys):
    out = tmp_path / "x.seq"
    code, stdout, err = run(capsys, "generate", "--construction", "hall", "--p", "13",
                            "--length", "0", "--output", str(out))
    assert code == EXIT_PARAM
    assert stdout == "" and err.startswith("error:") and not out.exists()


def test_measure_period_zero_is_refused(tmp_path, capsys):
    seqfile = tmp_path / "s.seq"
    run(capsys, "generate", "--construction", "legendre", "--p", "7", "--output", str(seqfile))
    code, stdout, err = run(capsys, "measure", "--input", str(seqfile), "--period", "0",
                            "--lc-profile", "--no-cache")
    assert code == EXIT_PARAM
    assert stdout == "" and "period must be positive" in err


@pytest.mark.parametrize("argv", [
    ("generate", "--construction", "hall", "--p", "13", "--format", "csv"),
    ("generate", "--construction", "hall", "--p", "13", "--seed", "1"),
    ("generate", "--construction", "hall", "--p", "13", "--budget", "5"),
    ("generate", "--construction", "hall", "--p", "13", "--cache", "c.jsonl"),
    ("generate", "--construction", "hall", "--p", "13", "--no-cache"),
    ("verify", "--suite", "diffset", "--primes", "13", "--format", "csv"),
    ("verify", "--suite", "diffset", "--primes", "13", "--cache", "c.jsonl"),
    ("verify", "--suite", "diffset", "--primes", "13", "--no-cache"),
    ("scan", "--ck", "1", "--primes", "13", "--seed", "1"),
    ("scan", "--ck", "1", "--primes", "13", "--cache", "c.jsonl"),
    ("baseline", "--n", "8", "--k", "1", "--cache", "c.jsonl"),
    ("baseline", "--n", "8", "--k", "1", "--no-cache"),
])
def test_option_a_subcommand_does_not_read_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_PARAM
    assert "unrecognized arguments" in capsys.readouterr().err


# the suites that read each option only some suites read, written out here
# rather than read off the CLI's table
_SUITE_READERS = {
    "--g-policy": ("cross-construction", "diffset", "index-representation"),
    "--seed": ("weil",), "--kmax": ("weil",), "--queries": ("weil",),
    "--N": ("iw17", "bw06", "moc-le-lc"),
}
_SUITE_PAIRS = [
    ("diffset", ("--seed", "5")),
    ("diffset", ("--kmax", "3")),
    ("diffset", ("--queries", "5")),
    ("diffset", ("--N", "2p")),
    ("cross-construction", ("--N", "p")),
    ("index-representation", ("--seed", "0")),
    ("iw17", ("--seed", "1")),
    ("bw06", ("--kmax", "2")),
    ("moc-le-lc", ("--queries", "3")),
    ("weil", ("--N", "2p")),
]
# every other (suite, option) pair
_SUITE_PAIRS += [(suite, (option, value)) for suite in cli.SUITES
                 for option, value in (("--g-policy", "smallest"), ("--seed", "1"), ("--kmax", "2"),
                                       ("--queries", "3"), ("--N", "2p"))
                 if all((suite, option) != (s, o) for s, (o, _) in _SUITE_PAIRS)]


@pytest.mark.parametrize("suite, option", _SUITE_PAIRS, ids="-".join)
def test_verify_refuses_options_its_suite_does_not_read(suite, option, capsys):
    # only weil reads --seed, --kmax and --queries, only iw17, bw06 and
    # moc-le-lc read --N, and only the three sextic suites read --g-policy:
    # elsewhere each is refused, whatever its value; a reader runs with it
    code, stdout, err = run(capsys, "verify", "--suite", suite, "--primes", "7", *option)
    if suite in _SUITE_READERS[option[0]]:
        assert (code, err) == (EXIT_OK, "") and " 0 failed," in stdout
    elif option[0] == "--g-policy":
        assert (code, stdout, err) == (
            EXIT_PARAM, "", "error: --g-policy is read only by the suites cross-construction, "
                            f"diffset, index-representation; {suite} checks the smallest root's words\n")
    else:
        assert (code, stdout, err) == (EXIT_PARAM, "", f"error: --suite {suite} does not read {option[0]}\n")


def test_verify_names_every_unread_option_it_refuses(capsys):
    code, stdout, err = run(capsys, "verify", "--suite", "diffset", "--primes", "13",
                            "--N", "2p", "--queries", "5", "--seed", "1")
    assert (code, stdout, err) == (EXIT_PARAM, "", "error: --suite diffset does not read "
                                                   "--seed, --queries, --N\n")


def test_verify_suites_apply_the_defaults_of_the_options_they_read(capsys):
    # the defaults each reader applies are the ones the options used to have
    for args, defaults in (
        (("--suite", "weil", "--primes", "7"), ("--seed", "0", "--kmax", "6", "--queries", "200")),
        (("--suite", "iw17", "--primes", "7,13"), ("--N", "p")),
        (("--suite", "moc-le-lc", "--primes", "7,13"), ("--N", "p")),
    ):
        assert run(capsys, "verify", *args) == run(capsys, "verify", *args, *defaults)


def test_scan_accepts_no_cache(capsys):
    args = ("scan", "--ck", "1", "--primes", "13")
    assert run(capsys, *args, "--no-cache") == run(capsys, *args)


def test_measure_sampled_zero_is_refused(capsys):
    code, stdout, err = run(
        capsys, "measure", "--construction", "hall", "--p", "13", "--ck", "1",
        "--sampled", "0", "--no-cache",
    )
    assert code == EXIT_PARAM
    assert stdout == ""
    assert "samples must be >= 1" in err


@pytest.mark.parametrize("extra", [("--ck", "2", "--lc-profile"), ("--autocorr", "1", "--two-adic"),
                                   ("--moc-profile", "--ck", "1", "--sampled", "3")])
def test_measure_refuses_two_measures(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--construction", "hall", "--p", "13", *extra, "--no-cache"])
    assert exc.value.code == EXIT_PARAM
    assert "not allowed with argument" in capsys.readouterr().err


def test_measure_sampled_without_ck_is_refused(capsys):
    code, stdout, err = run(capsys, "measure", "--construction", "hall", "--p", "13",
                            "--sampled", "5", "--lc-profile", "--no-cache")
    assert (code, stdout) == (EXIT_PARAM, "")
    assert "--sampled needs --ck" in err


@pytest.mark.parametrize("extra, error", [
    (("--autocorr", "5", "--budget", "7"), "--budget needs --ck"),
    (("--lc-profile", "--budget", "1000000000"), "--budget needs --ck"),
    (("--autocorr", "5", "--cache", "{tmp}/c.jsonl"), "--no-cache does not read --cache"),
], ids=["budget-autocorr", "budget-lc-profile", "cache"])
def test_measure_refuses_options_it_does_not_read(extra, error, tmp_path, capsys):
    # only C_k spends a budget, and --no-cache reads and writes no cache file
    code, stdout, err = run(capsys, "measure", "--construction", "hall", "--p", "13",
                            *(a.format(tmp=tmp_path) for a in extra), "--no-cache")
    assert (code, stdout, err) == (EXIT_PARAM, "", f"error: {error}\n")
    assert not (tmp_path / "c.jsonl").exists()


def test_measure_applies_the_default_budget_and_cache(tmp_path, monkeypatch, capsys):
    # hall C_3 at p = 499 charges comb(499, 3) * 499 > 10**9 windows
    args = ("measure", "--construction", "hall", "--p", "499", "--ck", "3", "--no-cache")
    code, stdout, err = run(capsys, *args)
    assert (code, stdout) == (EXIT_BUDGET, "") and "exceed budget 1000000000;" in err
    assert run(capsys, *args, "--budget", str(measures.DEFAULT_BUDGET)) == (code, stdout, err)
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run(capsys, "measure", "--construction", "hall", "--p", "13", "--ck", "1")
    assert code == EXIT_OK
    assert (tmp_path / "cycloseq-cache.jsonl").read_text() == stdout


def test_measure_sampled_over_budget_is_refused(capsys, monkeypatch):
    # 10**6 samples of 10009 steps each: refused before the first draw
    monkeypatch.setattr(measures, "_walk_maxima", None)
    code, stdout, err = run(capsys, "measure", "--construction", "hall", "--p", "10009",
                            "--ck", "2", "--sampled", "1000000", "--budget", "1000", "--no-cache")
    assert (code, stdout) == (EXIT_BUDGET, "")
    assert "estimated 10009000000 window evaluations exceed budget 1000" in err


def test_measure_sampled_cache_ignores_budget(tmp_path, capsys):
    # 40 samples of 31 steps charge 1240; a stored record is served under any budget
    cache = tmp_path / "cache.jsonl"
    args = ("measure", "--construction", "hall", "--p", "31", "--ck", "3", "--sampled", "40")
    assert run(capsys, *args, "--no-cache", "--budget", "1239")[0] == EXIT_BUDGET
    code, first, _ = run(capsys, *args, "--cache", str(cache), "--budget", "1240")
    assert code == EXIT_OK
    assert run(capsys, *args, "--cache", str(cache), "--budget", "1239") == (EXIT_OK, first, "")
    assert json.loads(first)["params"] == {"k": 3, "samples": 40, "seed": 0, "draw": "floyd"}


def test_measure_seed_needs_sampled(capsys):
    # only the sampled C_k draws: a seed given to anything else was ignored
    args = ("measure", "--construction", "hall", "--p", "13", "--ck", "2", "--no-cache")
    assert run(capsys, *args, "--seed", "5") == (EXIT_PARAM, "", "error: --seed needs --sampled\n")
    assert run(capsys, *args, "--seed", "0")[0] == EXIT_PARAM
    # --sampled with no --seed draws with seed 0, under the key it always had
    keys = [json.loads(run(capsys, *args, "--sampled", "10", *seed)[1])["cache_key"]
            for seed in ((), ("--seed", "0"))]
    assert keys == ["fd1d0fa961c2d54e96b88f0ce04262625fe6c76eb744cd64d6b655bc6a7a72b1"] * 2


@pytest.mark.parametrize("source, message", [
    (("--construction", "hall", "--p", "13", "--m", "3", "--classes", "0"),
     "--construction hall does not read --m, --classes"),
    (("--construction", "legendre", "--p", "13", "--m", "2"), "--construction legendre does not read --m"),
    (("--construction", "dhl", "--p", "13", "--classes", "0"), "--construction dhl does not read --classes"),
    (("--input", "{seq}", "--construction", "hall"), "--input does not read --construction"),
    (("--input", "{seq}", "--p", "13"), "--input does not read --p"),
    (("--input", "{seq}", "--m", "6", "--classes", "0,1,3"), "--input does not read --m, --classes"),
    (("--input", "{seq}", "--length", "5"), "--input does not read --length"),
    # --g, whatever its value: Legendre's word is the same under every root
    (("--construction", "legendre", "--p", "13", "--g", "abc"),
     "--construction legendre does not read --g"),
    (("--construction", "legendre", "--p", "13", "--g", "smallest", "--m", "2"),
     "--construction legendre does not read --g, --m"),
    (("--input", "{seq}", "--g", "5"), "--input does not read --g"),
], ids=["hall-m-classes", "legendre-m", "dhl-classes", "input-construction", "input-p",
        "input-m-classes", "input-length", "legendre-g", "legendre-g-m", "input-g"])
def test_options_the_word_source_does_not_read_are_refused(source, message, tmp_path,
                                                          monkeypatch, capsys):
    seq = tmp_path / "w.seq"
    seq.write_text("0110100\n")
    source = [a.format(seq=seq) for a in source]
    code, stdout, err = run(capsys, "measure", *source, "--ck", "1", "--no-cache")
    assert (code, stdout, err) == (EXIT_PARAM, "", f"error: {message}\n")
    if "--input" not in source:  # generate builds its word the same way, and writes none
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "generate", *source) == (EXIT_PARAM, "", f"error: {message}\n")
        assert [f.name for f in tmp_path.iterdir()] == ["w.seq"]


def _stored(seq, params, value):
    """A C_k cache line for `seq` keyed on `params`, as a toolkit that took
    those params would have written it."""
    return MeasureRecord(sequence_label=seq.label, measure="Ck", params=params, value=value,
                         witness={"D": [0], "M": 1, "exhaustive": False},
                         cache_key=cache_key(seq, "Ck", params)).to_json()


def test_measure_sampled_record_without_draw_is_a_miss(tmp_path, capsys):
    # a record stored under the params before the draw scheme joined them was
    # drawn by another scheme: it is recomputed, appended and printed, never served
    seq = seqgen.hall_sequence(SexticParams.create(31), 31)
    cache = tmp_path / "cache.jsonl"
    old = _stored(seq, {"k": 3, "samples": 40, "seed": 0}, 99)
    cache.write_text(old + "\n")
    code, out, _ = run(capsys, "measure", "--construction", "hall", "--p", "31", "--ck", "3",
                       "--sampled", "40", "--cache", str(cache))
    assert code == EXIT_OK
    assert cache.read_text().splitlines() == [old, out.rstrip("\n")]
    rec = json.loads(out)
    assert rec["params"]["draw"] == "floyd" and rec["value"] != 99
    assert rec["value"] == measures.correlation_measure_sampled(seq, 3, 40, 0).value


def test_measure_exact_record_keeps_its_key(tmp_path, capsys, monkeypatch):
    # exact C_k's params did not change, so a stored exact record is still served
    seq = seqgen.hall_sequence(SexticParams.create(31), 31)
    cache = tmp_path / "cache.jsonl"
    old = _stored(seq, {"k": 2}, 99)
    cache.write_text(old + "\n")
    monkeypatch.setattr(measures, "correlation_measure_exact", None)
    code, out, _ = run(capsys, "measure", "--construction", "hall", "--p", "31", "--ck", "2",
                       "--cache", str(cache))
    assert (code, out) == (EXIT_OK, old + "\n")
    assert cache.read_text() == old + "\n"


def test_verify_diffset(capsys):
    code, stdout, _ = run(
        capsys, "verify", "--suite", "diffset", "--primes", "31,43",
        "--g-policy", "three-in-c1",
    )
    assert code == EXIT_OK
    assert stdout.count("[PASS") == 2


def test_sextic_suites_check_both_policies_unless_told_one(capsys):
    for suite in ("cross-construction", "diffset", "index-representation"):
        args = ("verify", "--suite", suite, "--primes", "31,43")
        assert run(capsys, *args) == run(capsys, *args, "--g-policy", "both")


@pytest.mark.parametrize("suite", ["iw17", "bw06", "moc-le-lc", "weil"])
@pytest.mark.parametrize("policy", ["smallest", "three-in-c1", "both"])
def test_g_policy_is_refused_by_suites_that_ignore_it(suite, policy, capsys):
    # these suites check the smallest root's words: a policy would not be applied
    code, stdout, err = run(capsys, "verify", "--suite", suite, "--primes", "31,43",
                            "--kmax", "1", "--g-policy", policy)
    assert code == EXIT_PARAM and stdout == ""
    assert err.startswith("error: --g-policy") and err.count("\n") == 1
    assert all(name in err for name in ("cross-construction", "diffset", "index-representation"))


@pytest.mark.parametrize("command", [("verify", "--suite", "diffset"), ("scan", "--ck", "2")])
def test_primes_upto_the_limit_is_refused_before_the_walk(command, monkeypatch, capsys):
    def no_walk(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(ntheory, "is_prime", no_walk)
    for bound in (ntheory.P_LIMIT, 3 * 10**9):
        code, stdout, err = run(capsys, *command, "--primes", f"upto:{bound}")
        assert code == EXIT_PARAM and stdout == ""
        assert err == f"error: upto:{bound} is not below the 2**31 limit on p\n"
    # the edge: a bound below the limit is walked
    monkeypatch.undo()
    monkeypatch.setattr(ntheory, "P_LIMIT", 44)
    assert run(capsys, *command, "--primes", "upto:44")[0] == EXIT_PARAM
    code, stdout, _ = run(capsys, *command, "--primes", "upto:43")
    assert code == EXIT_OK and "43" in stdout


@pytest.mark.parametrize("command", [
    *(("verify", "--suite", suite, *(("--kmax", "1", "--queries", "2") if suite == "weil" else ()))
      for suite in cli.SUITES),
    ("scan", "--ck", "1"),
], ids=[*cli.SUITES, "scan"])
def test_each_run_parses_primes_once(command, monkeypatch, capsys):
    # the weil suite charges its primes and then walks them: one parse for both
    parsed = []
    admitted = cli._admitted
    monkeypatch.setattr(cli, "_admitted", lambda spec, m: parsed.append(spec) or admitted(spec, m))
    code, _, _ = run(capsys, *command, "--primes", "upto:13")
    assert code == EXIT_OK and parsed == ["upto:13"]


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(["2", "3", "5", "7", "11", "13", "17", "19", "23", "29", "31", "37",
                              "41", "43", "97", "101", " 13", "31 ", "", " "]),
             max_size=8).map(",".join),
    st.integers(-1, 3000).map(lambda b: f"upto:{b}"),
), st.sampled_from([2, 4, 6]))
def test_admitted_primes_are_a_brute_force_filter(spec, m):
    # a list (repeats, 2, blanks, any order) keeps its primes in the order given,
    # upto:B is the primes from 3 to B; either way exactly those with m | p - 1,
    # as one int64 array
    if spec.startswith("upto:"):
        bound = int(spec[len("upto:"):])
        ps = [p for p in range(3, bound + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    else:
        ps = [int(tok) for tok in spec.split(",") if tok.strip()]
    admitted = cli._admitted(spec, m)
    assert admitted.dtype == np.int64 and admitted.ndim == 1
    assert admitted.tolist() == [p for p in ps if (p - 1) % m == 0]


def test_primes_upto_are_the_primes_from_3_to_the_bound():
    parsed = [cli._admitted(f"upto:{b}", 2) for b in (-1, 0, 1, 2, 3, 4)]
    assert all(ps.dtype == np.int64 for ps in parsed)
    assert [ps.tolist() for ps in parsed] == [[], [], [], [], [3], [3]]
    walked = [p for p in range(3, 20001) if ntheory.is_prime(p)]
    for bound in range(20001):  # every bound: each prime square and its neighbours
        expected = walked[:bisect.bisect_right(walked, bound)]
        assert cli._admitted(f"upto:{bound}", 2).tolist() == expected


@pytest.mark.parametrize("command", [
    ("verify", "--suite", "diffset"), ("verify", "--suite", "weil"), ("verify", "--suite", "bw06"),
    ("scan", "--ck", "2"),
], ids=["diffset", "weil", "bw06", "scan"])
def test_listed_primes_past_the_limit_are_refused(command, capsys):
    # a listed prime past 2**31 is refused as upto:B past it is, whatever order
    # the command admits and before its budget is charged, so every listed
    # prime fits the int64 array; a listed composite is still "not prime"
    assert cli._admitted("13, 2,31", 2).tolist() == [13, 31]
    assert cli._admitted("", 2).dtype == np.int64
    # 2147483693 = 5 (mod 6), which no sextic suite admits, was skipped silently
    for p in (2147483659, 2147483693, 2**89 - 1):
        code, stdout, err = run(capsys, *command, "--primes", f"13,{p}")
        assert (code, stdout, err) == (EXIT_PARAM, "", f"error: p={p} exceeds the 2**31 limit\n")
    code, stdout, err = run(capsys, *command, "--primes", "13,2147483661")
    assert (code, stdout, err) == (EXIT_PARAM, "", "error: 2147483661 is not prime\n")


def test_main_reaches_rebound_command_on_later_calls(monkeypatch, tmp_path, capsys):
    # the parser is built once per process; main must still dispatch to the
    # cmd_* bound at call time
    args = ("measure", "--construction", "hall", "--p", "13", "--ck", "1",
            "--cache", str(tmp_path / "c.jsonl"))
    assert run(capsys, *args)[0] == EXIT_OK
    seen = []
    monkeypatch.setattr(cli, "cmd_measure", lambda a: seen.append(a.ck) or EXIT_VERIFY)
    assert run(capsys, *args)[0] == EXIT_VERIFY
    assert seen == [1]


_MEASURE_FLAGS = [("--format", "csv"), ("--seed", "3"), ("--budget", "5"), ("--cache", "c.jsonl"),
                  ("--no-cache",), ("--construction", "legendre"), ("--p", "13"),
                  ("--g", "three-in-c1"), ("--m", "6"), ("--classes", "0,1,3"), ("--length", "20"),
                  ("--input", "x.seq"), ("--period", "13"), ("--sampled", "5"), ("--ck", "2"),
                  ("--autocorr", "all"), ("--lc-profile",), ("--moc-profile",), ("--two-adic",)]


@pytest.mark.parametrize("argv", [
    ("generate",),
    ("generate", "--construction", "hall", "--p", "13", "--output", "h.seq"),
    ("measure",),
    *(("measure", *flag) for flag in _MEASURE_FLAGS),
    ("verify", "--suite", "diffset", "--primes", "13"),
    ("verify", "--suite", "diffset", "--primes", "13", "--g-policy", "both"),
    ("verify", "--suite", "moc-le-lc", "--primes", "upto:20", "--N", "2p", "--kmax", "2"),
    ("verify", "--suite", "weil", "--primes", "13", "--queries", "5", "--seed", "1"),
    ("scan", "--ck", "2", "--primes", "13"),
    ("scan", "--ck", "2", "--primes", "13", "--g-policy", "three-in-c1", "--no-cache",
     "--format", "csv", "--budget", "7"),
    ("baseline", "--n", "8", "--k", "1"),
    ("baseline", "--n", "8", "--k", "1", "--trials", "3", "--seed", "2", "--format", "csv"),
], ids="_".join)
def test_main_parses_once_as_the_top_level_parser_would(argv, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda a: seen.append(a) or EXIT_OK)
    assert main(list(argv)) == EXIT_OK
    top, _ = cli._make_parser()
    assert [vars(a) for a in seen] == [vars(top.parse_args(list(argv)))]


def _parse_args(command, argv):
    """What the subcommand's argparse parser makes of argv: a Namespace, or None
    where it exits (an error, or -h)."""
    parser = cli._make_parser()[1][command]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return parser.parse_args(argv, argparse.Namespace(command=command))
    except SystemExit:
        return None


@st.composite
def _subcommand_argv(draw, command):
    """Tokens for one subcommand, read from its parser's actions: valid values
    mixed with bad ints, values off choices, values that start with '-', repeats,
    abbreviations, --opt=value, -h, --, positionals, options of other subcommands,
    missing values and missing required options."""
    parser = cli._make_parser()[1][command]
    odd = ["x", "1.5", "", " 3", "-1", "-x", "bogus"]
    every_option = sorted({s for sub in cli._make_parser()[1].values()
                           for a in sub._actions for s in a.option_strings})
    tokens = []
    if draw(st.booleans()):  # the required options, each with a valid value
        for a in parser._actions:
            if a.required:
                tokens += [a.option_strings[0], str(a.choices[0]) if a.choices else "13"]
    for _ in range(draw(st.integers(0, 6))):
        a = draw(st.sampled_from(parser._actions))
        opt = draw(st.sampled_from(a.option_strings))
        valid = list(map(str, a.choices or (["13", "2"] if a.type is int else ["13", "0,1,3", "all"])))
        value = draw(st.sampled_from(odd) if draw(st.integers(0, 5)) == 0 else st.sampled_from(valid))
        form = draw(st.sampled_from(["full"] * 12 + ["eq", "abbrev", "bare", "stray"]))
        if form == "full":
            tokens += [opt] if a.nargs == 0 else [opt, value]
        elif form == "eq":
            tokens.append(f"{opt}={value}")
        elif form == "abbrev":
            tokens += [opt[:-1], value]
        elif form == "bare":  # a flag, or an option missing its value
            tokens.append(opt)
        else:
            tokens.append(draw(st.sampled_from(["-h", "--", "stray", *every_option])))
    return tokens


@pytest.mark.parametrize("command", ["generate", "measure", "verify", "scan", "baseline"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exact_parse_is_argparse_or_declines(command, data):
    argv = data.draw(_subcommand_argv(command))
    exact = cli._parse_exact(command, argv)
    expected = _parse_args(command, argv)
    if exact is not None:
        assert expected is not None and vars(exact) == vars(expected)
    if expected is None:
        assert exact is None


def test_readme_command_lines_take_the_exact_parse():
    # a later option of another action kind must not send these back to argparse
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("cycloseq ")]
    assert len(lines) >= 10
    for command, *argv in lines:
        exact = cli._parse_exact(command, argv)
        assert exact is not None, (command, *argv)
        assert vars(exact) == vars(_parse_args(command, argv))


@pytest.mark.parametrize("argv, code, text", [
    ([], EXIT_PARAM, "usage: cycloseq"),
    (["--help"], EXIT_OK, "usage: cycloseq"),
    (["bogus"], EXIT_PARAM, "invalid choice"),
])
def test_top_level_parser_answers_what_names_no_subcommand(argv, code, text, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    out = capsys.readouterr()
    assert text in out.out + out.err


def test_diffset_forged_cyclotomic_numbers_is_invariant_violation(monkeypatch, capsys):
    # one cyclotomic number off by one breaks the pair count: the six
    # lambda(h) no longer sum to w(w - 1) ordered pairs of ones
    def forged(params, m):
        cyc = ntheory.cyclotomic_numbers(params, m)
        cyc[0, 0] += 1
        return cyc

    monkeypatch.setattr(bounds, "cyclotomic_numbers", forged)
    with pytest.raises(InvariantViolation, match="w\\(w-1\\)"):
        bounds.difference_set_check(SexticParams.create(31, "three-in-c1"))
    code, stdout, err = run(
        capsys, "verify", "--suite", "diffset", "--primes", "31", "--g-policy", "three-in-c1",
    )
    assert code == EXIT_VERIFY and stdout == ""
    assert err.startswith("error:") and "pairs of ones" in err and err.count("\n") == 1


def test_bw06_forged_connection_polynomial_is_invariant_violation(monkeypatch, capsys):
    # one flipped coefficient c_1 breaks a recurrence of the BM witness, which
    # only a wrong BM can cause: the message names the first n it breaks at,
    # found here by plain Python over the forged polynomial
    def forged(seq):
        profile = measures.berlekamp_massey_profile(seq)
        return dataclasses.replace(profile, connection=profile.connection ^ 2)

    monkeypatch.setattr(bounds, "berlekamp_massey_profile", forged)
    seq = seqgen.hall_sequence(SexticParams.create(13, g=2), 13)
    profile, bits = forged(seq), seq.bits.tolist()
    lc = profile.final
    t = next(t for t in range(13 - lc)
             if sum(bits[t + lc - i] for i in range(lc + 1) if profile.connection >> i & 1) % 2)
    text = (f"hall(p=13,g=2): BM witness breaks the recurrence at n = {lc + t}, "
            f"step {t} of the N - L = {13 - lc} steps (N=13, L={lc})")
    with pytest.raises(InvariantViolation) as exc:
        bounds.check_bw06(seq)
    assert str(exc.value) == text
    code, stdout, err = run(capsys, "verify", "--suite", "bw06", "--primes", "13")
    assert code == EXIT_VERIFY and stdout == ""
    assert err == f"error: {text}\n"


def test_iw17_forged_moc_is_invariant_violation(monkeypatch, capsys):
    # M = 1 reported on 0...01 (its M is N - 1): windows 0 and 1 repeat, but
    # s_(n+0) != s_(n+1) at n = N - 2, which only a wrong MOC can cause
    monkeypatch.setattr(bounds, "max_order_complexity", lambda seq: 1)
    seq = seqgen.BitSequence.create([0] * 19 + [1])
    with pytest.raises(InvariantViolation) as exc:
        bounds.check_iw17(seq)
    assert str(exc.value) == (": MOC witness i = 0, j = 1 has s_(n+i) != s_(n+j) at n = 18, "
                              "one of the N - j = 19 steps (N=20, M=1)")
    code, stdout, err = run(capsys, "verify", "--suite", "iw17", "--primes", "13")
    assert code == EXIT_VERIFY
    assert err.startswith("error:") and "MOC witness i = " in err and "N - j" in err


def test_exact_ck_walk_that_disagrees_with_the_search_is_invariant_violation(monkeypatch, capsys):
    # the step after the walk's later first extreme flips, so the walk moves past
    # that extreme while the earlier one stays: its spread grows past the search's
    walks = measures._walks

    def forged(rows, shifts):
        walk = walks(rows, shifts)
        for P in walk:
            b = max(P.argmin(), P.argmax()) + 1
            P[b:] -= 2 * (P[b] - P[b - 1])
        return walk

    monkeypatch.setattr(measures, "_walks", forged)
    seq = seqgen.hall_sequence(SexticParams.create(31), 31)
    with pytest.raises(InvariantViolation, match="where the search read C_2 = 6"):
        measures.correlation_measure_exact(seq, 2)
    code, stdout, err = run(capsys, "measure", "--construction", "hall", "--p", "31", "--ck", "2",
                            "--no-cache")
    assert code == EXIT_VERIFY and stdout == ""
    assert err.startswith("error:") and "walks to spread" in err and err.count("\n") == 1


def test_verify_cross_construction_upto(capsys):
    code, stdout, _ = run(
        capsys, "verify", "--suite", "cross-construction", "--primes", "upto:60",
    )
    assert code == EXIT_OK
    assert "failed" in stdout and " 0 failed" in stdout


def test_verify_index_representation(capsys):
    code, stdout, _ = run(
        capsys, "verify", "--suite", "index-representation", "--primes", "7,13,19,31",
    )
    assert code == EXIT_OK


def test_verify_moc_le_lc(capsys):
    code, stdout, _ = run(
        capsys, "verify", "--suite", "moc-le-lc", "--primes", "upto:31", "--N", "2p",
    )
    assert code == EXIT_OK
    # legendre at the ten odd primes, hall at 7, 13, 19, 31 and dhl at 5, 13, 17, 29
    checks = stdout.splitlines()[:-1]
    assert len(checks) == 18
    assert all(line.startswith("[PASS  ] moc-le-lc ") for line in checks), stdout
    assert stdout.splitlines()[-1] == "suite=moc-le-lc: 18 passed, 0 failed, 0 n/a, 0 reported"


@st.composite
def _moc_le_lc_words(draw):
    """Biased words of 2..300 bits, some after a constant run that keeps L small
    for long."""
    n = draw(st.integers(2, 300))
    run_length = draw(st.sampled_from([0, 0, 1, n // 3, n // 2, n - 1]))
    ones = draw(st.integers(0, 8))
    draws = draw(st.lists(st.integers(0, 7), min_size=n - run_length, max_size=n - run_length))
    head = [draw(st.integers(0, 1))] * run_length
    return seqgen.BitSequence.create(head + [int(v < ones) for v in draws])


@given(st.data(), _moc_le_lc_words(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_moc_le_lc_verdict_equals_the_full_comparison(data, seq, forge):
    # the early stop rests on one lemma: with M never falling, comparing up to the
    # first prefix with L(n) >= M(N) decides every prefix; a forged nondecreasing
    # M, near L or anywhere, must get the verdict of the full comparison (an M is
    # never negative, so neither is a forged one)
    lc = measures.berlekamp_massey_profile(seq).values
    moc = measures.max_order_complexity_profile(seq).values
    if forge:
        offsets = data.draw(st.lists(st.integers(-3, 1), min_size=len(lc), max_size=len(lc)))
        steps = data.draw(st.lists(st.integers(0, 2), min_size=len(lc), max_size=len(lc)))
        moc = tuple(np.maximum.accumulate(np.maximum(
            0, data.draw(st.sampled_from([np.add(lc, offsets), np.cumsum(steps)])))).tolist())
    expected = all(m <= l for m, l in zip(moc, lc))
    with pytest.MonkeyPatch.context() as mp:
        # the final value and the profile of each prefix agree with the forged M
        mp.setattr(measures, "max_order_complexity", lambda s: moc[-1])
        mp.setattr(measures, "max_order_complexity_profile",
                   lambda s: measures.ComplexityProfile(values=moc[: s.length]))
        assert cli._moc_le_lc(seq) == expected, (seq, moc, lc)


def test_verify_moc_le_lc_fails_past_the_final_lc(monkeypatch, capsys):
    # a forged M(N) one past L(N), with the profile's last value raised to match:
    # L never reaches it, so BM runs to N and the last prefix fails
    real, bm = measures.max_order_complexity_profile, measures.berlekamp_massey_profile
    words = []

    def forged_final(seq):
        words.append([seq.length])
        return bm(seq).final + 1

    def forged(seq):
        values = real(seq).values
        return measures.ComplexityProfile(values=values[:-1] + (bm(seq).final + 1,))

    def counted_bm(seq):
        words[-1].append(seq.length)
        return bm(seq)

    monkeypatch.setattr(measures, "max_order_complexity", forged_final)
    monkeypatch.setattr(measures, "max_order_complexity_profile", forged)
    monkeypatch.setattr(measures, "berlekamp_massey_profile", counted_bm)
    code, stdout, _ = run(capsys, "verify", "--suite", "moc-le-lc", "--primes", "13,31",
                          "--N", "2p")
    assert code == EXIT_VERIFY
    assert len(words) == 5 and all(w[-1] == w[0] for w in words), words
    checks = stdout.splitlines()[:-1]
    assert len(checks) == 5 and all(line.startswith("[FAIL  ] moc-le-lc ") for line in checks)
    assert stdout.splitlines()[-1] == "suite=moc-le-lc: 0 passed, 5 failed, 0 n/a, 0 reported"


def test_verify_moc_le_lc_runs_bm_until_l_reaches_the_final_moc(monkeypatch, capsys):
    # BM reads about 2*M(N) bits of each word, not N: at most 8 * (M(N) + 1) in
    # all; the automaton reads only BM's last prefix
    words = []
    final, moc, bm = (measures.max_order_complexity, measures.max_order_complexity_profile,
                      measures.berlekamp_massey_profile)

    def counted_final(seq):
        m = final(seq)
        words.append({"M": m, "N": seq.length, "bm": [], "moc": []})
        return m

    def counted_moc(seq):
        words[-1]["moc"].append(seq.length)
        return moc(seq)

    def counted_bm(seq):
        words[-1]["bm"].append(seq.length)
        return bm(seq)

    monkeypatch.setattr(measures, "max_order_complexity", counted_final)
    monkeypatch.setattr(measures, "max_order_complexity_profile", counted_moc)
    monkeypatch.setattr(measures, "berlekamp_massey_profile", counted_bm)
    code, stdout, _ = run(capsys, "verify", "--suite", "moc-le-lc",
                          "--primes", "1033,1459,1481,2903", "--N", "2p")
    assert code == EXIT_OK and " 8 passed, 0 failed," in stdout
    assert len(words) == 8
    for w in words:
        M, N, reads = w["M"], w["N"], w["bm"]
        assert reads and sum(reads) <= 8 * (M + 1) < N, w
        assert sum(w["moc"]) <= sum(reads), w


def test_verify_iw17_small(capsys):
    # the MOC register's witness settles every instance; --budget bounds the
    # weil suite only
    for extra in ((), ("--budget", "10")):
        code, stdout, _ = run(capsys, "verify", "--suite", "iw17", "--primes", "7,13", *extra)
        assert code == EXIT_OK
        checks = stdout.splitlines()[:-1]
        assert len(checks) == 5
        assert all(line.startswith("[PASS") and line.endswith("  certified-witness")
                   for line in checks), stdout
        assert "5 passed, 0 failed, 0 n/a" in stdout


def test_verify_bw06_reads_certified_witness_only(capsys):
    # BM's witness settles every instance; --budget bounds the weil suite only
    for extra in ((), ("--budget", "10")):
        code, stdout, _ = run(capsys, "verify", "--suite", "bw06", "--primes", "upto:7", *extra)
        assert code == EXIT_OK
        checks = stdout.splitlines()[:-1]
        assert len(checks) == 5
        assert all(line.startswith("[PASS") and line.endswith("  certified-witness")
                   for line in checks), stdout
        assert "5 passed, 0 failed, 0 n/a" in stdout


def test_verify_weil_small(capsys):
    code, stdout, _ = run(
        capsys, "verify", "--suite", "weil", "--primes", "13", "--kmax", "2",
        "--queries", "20",
    )
    assert code == EXIT_OK
    assert "[PASS" in stdout


def test_verify_weil_kmax_above_p(capsys):
    # k > p has no shift tuple: the complete sums stop at k = p and the
    # random queries draw k from 1..min(--kmax, p)
    code, stdout, err = run(capsys, "verify", "--suite", "weil", "--primes", "7", "--kmax", "8",
                            "--queries", "50")
    assert code == EXIT_OK, err
    assert "weil complete p=7 k<=8" in stdout and "/50 within" in stdout
    assert "suite=weil: 1 passed, 0 failed" in stdout


def test_verify_weil_complete_sums_stop_at_p(monkeypatch, capsys):
    # 5**k exponent rows for k > p would check no sum: the loop must not build them
    orders = []
    verdicts = cli.charsum.weil_verdicts

    def recording(params, exponents, shifts, window):
        orders.append(exponents.shape[1])
        return verdicts(params, exponents, shifts, window)

    monkeypatch.setattr(cli.charsum, "weil_verdicts", recording)
    code, stdout, _ = run(capsys, "verify", "--suite", "weil", "--primes", "7", "--kmax", "8",
                          "--queries", "0")
    assert code == EXIT_OK and "weil complete p=7 k<=8" in stdout
    assert orders == list(range(1, 8))


def test_weil_random_queries_read_their_own_row(monkeypatch, capsys):
    # The queries of one k share a batch of distinct exponent rows.  A stub
    # passes a query only at its own row (and only for some rows), so a query
    # that read another row's verdict would lower the reported count.  The draws
    # are mirrored in the suite's order: every k, every window, then per k its
    # shifts (by the plain Floyd oracle) and its exponents.
    p, kmax, queries, seed = 31, 3, 300, 11
    def passes(ms):
        return sum(m * 7**i for i, m in enumerate(ms)) % 3 != 0

    rng = np.random.default_rng(seed)
    ks = rng.integers(1, kmax + 1, size=queries)
    windows = rng.integers(2, p + 1, size=queries)
    own = {}
    expected = 0
    for k in range(1, kmax + 1):
        ws = windows[ks == k].tolist()
        if not ws:
            continue
        shifts = _floyd_reference(rng, p, k, len(ws))
        for D, ms, w in zip(shifts, rng.integers(1, 6, size=(len(ws), k)).tolist(), ws):
            own.setdefault((D, w), set()).add(tuple(ms))
            expected += passes(ms)

    def stub(params, exponents, shifts, window):
        windows = np.broadcast_to(window, len(shifts))
        return np.array([[tuple(ms) in own.get((tuple(ds), int(w)), ()) and passes(tuple(ms))
                          for ms in exponents.tolist()]
                         for ds, w in zip(np.asarray(shifts).tolist(), windows)], dtype=bool)

    monkeypatch.setattr(cli.charsum, "weil_verdicts", stub)
    _, stdout, _ = run(capsys, "verify", "--suite", "weil", "--primes", str(p), "--kmax",
                       str(kmax), "--queries", str(queries), "--seed", str(seed))
    line = next(l for l in stdout.splitlines() if "weil incomplete" in l)
    assert 0 < expected < queries
    assert line.endswith(f"  {expected}/{queries} within k*sqrt(p)*(1+ln p)"), line


def test_weil_stdout_does_not_depend_on_the_seed(capsys):
    # the benchmark's reference outputs are recorded at one seed and hold for all
    outs = set()
    for seed in range(10):
        code, stdout, _ = run(capsys, "verify", "--suite", "weil", "--primes", "13,31", "--kmax",
                              "2", "--queries", "200", "--seed", str(seed))
        assert code == EXIT_OK
        outs.add(stdout)
    assert len(outs) == 1
    assert outs.pop().count("  200/200 within k*sqrt(p)*(1+ln p)") == 2


def test_verify_weil_refused_over_budget(capsys):
    # p = 31 at the default --kmax 6: about 3.7e11 window evaluations
    code, stdout, err = run(capsys, "verify", "--suite", "weil", "--primes", "31")
    assert code == EXIT_BUDGET
    assert stdout == ""  # refused before any check ran
    assert err.startswith("error:") and "budget" in err and "--kmax" in err


def test_verify_weil_budget_counts_every_prime(capsys):
    # the estimate sums C(p, k) * 5**k * p over both primes and every k <= --kmax,
    # and charges each prime's queries * min(queries, 5**kmax) * p
    estimate = sum(math.comb(p, k) * 5**k * p for p in (13, 31) for k in (1, 2))
    estimate += sum(5 * min(5, 5**2) * p for p in (13, 31))
    args = ("verify", "--suite", "weil", "--primes", "13,31", "--kmax", "2", "--queries", "5")
    code, stdout, _ = run(capsys, *args, "--budget", str(estimate))
    assert code == EXIT_OK and "[PASS" in stdout
    code, stdout, _ = run(capsys, *args, "--budget", str(estimate - 1))
    assert code == EXIT_BUDGET and stdout == ""


def test_verify_weil_queries_over_budget_are_refused(monkeypatch, capsys):
    # 10**15 queries charge 6.5e16 windows: refused before any draw, where
    # the allocation of their k's would run out of memory
    monkeypatch.setattr(cli.np.random, "default_rng", None)
    code, stdout, err = run(capsys, "verify", "--suite", "weil", "--primes", "13", "--kmax", "1",
                            "--queries", str(10**15))
    assert code == EXIT_BUDGET and stdout == ""
    assert err.startswith("error:") and "budget" in err and "--queries" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "weil", "--primes", "13", "--kmax", "0"),
        ("verify", "--suite", "weil", "--primes", "13", "--kmax", "1", "--queries", "-3"),
        ("verify", "--suite", "bw06", "--primes", "13", "--kmax", "0"),
        ("verify", "--suite", "diffset", "--primes", "upto:abc"),
        ("verify", "--suite", "diffset", "--primes", "13,x"),
        ("measure", "--construction", "cyclotomic", "--p", "13", "--m", "6",
         "--classes", "0,x", "--lc-profile", "--no-cache"),
        ("measure", "--construction", "hall", "--p", "13", "--ck", "1", "--sampled", "5",
         "--seed", "-1", "--no-cache"),
        ("verify", "--suite", "weil", "--primes", "13", "--kmax", "1", "--seed", "-1"),
        ("baseline", "--n", "16", "--k", "1", "--trials", "2", "--seed", "-1"),
        ("scan", "--ck", "2", "--primes", "upto:20", "--budget", "-1"),
        ("scan", "--ck", "2", "--primes", "upto:20", "--budget", "0"),
        ("measure", "--construction", "hall", "--p", "13", "--ck", "2", "--budget", "-1",
         "--no-cache"),
        ("measure", "--construction", "hall", "--p", "13", "--ck", "2", "--budget", "0",
         "--no-cache"),
        ("measure", "--construction", "cyclotomic", "--p", "13", "--m", "6", "--classes",
         "0,1,3", "--length", "20", "--period", "5", "--lc-profile", "--no-cache"),
    ],
    ids=["weil-kmax-0", "queries-negative", "bw06-kmax-0", "primes-upto-abc", "primes-13-x",
         "classes-0-x", "measure-sampled-seed-negative", "weil-seed-negative",
         "baseline-seed-negative", "scan-budget-negative", "scan-budget-zero",
         "measure-budget-negative", "measure-budget-zero", "construction-period-not-wrapping"],
)
def test_bad_input_is_refused(argv, capsys):
    code, stdout, err = run(capsys, *argv)
    assert code == EXIT_PARAM
    assert stdout == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("request_, message", [
    (("generate", "--construction", "hall", "--p", "13", "--g", "bogus", "--output", "h.seq"),
     "--g must be smallest, three-in-c1, or an integer; got 'bogus'"),
    (("generate", "--construction", "cyclotomic", "--p", "13", "--m", "6", "--output", "c.seq"),
     "cyclotomic needs --m and --classes"),
    (("measure", "--ck", "2", "--no-cache"), "need --input FILE or --construction/--p"),
    (("measure", "--construction", "hall", "--p", "13", "--no-cache"),
     "pick one of --ck / --autocorr / --lc-profile / --moc-profile / --two-adic"),
    (("baseline", "--n", "5", "--k", "6"), "order k=6 outside 1..5"),
    (("baseline", "--n", "8", "--k", "1", "--trials", "0"), "trials must be >= 1"),
    (lambda: measures.correlation_measure_exact(seqgen.BitSequence.create([0, 1, 1, 0]), 5),
     "order k=5 outside 1..4"),
    (lambda: measures.correlation_measure_sampled(seqgen.BitSequence.create([0, 1, 1, 0]), 0, 3, 0),
     "order k=0 outside 1..4"),
], ids=["g-bogus", "cyclotomic-no-classes", "measure-no-source", "measure-no-measure",
        "baseline-k-above-n", "baseline-trials-0", "ck-exact-k-above-n", "ck-sampled-k-0"])
def test_refusal_exits_2_with_its_message(request_, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = request_
    if callable(request_):  # a library call, its error mapped to an exit code by main
        monkeypatch.setattr(cli, "cmd_baseline", lambda args: request_())
        argv = ("baseline", "--n", "1", "--k", "1")
    assert run(capsys, *argv) == (EXIT_PARAM, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_measure_consistent_period_on_construction(capsys):
    # the cyclotomic word has period 13: declaring it changes nothing
    args = ("measure", "--construction", "cyclotomic", "--p", "13", "--m", "6", "--classes",
            "0,1,3", "--length", "30", "--lc-profile", "--no-cache")
    records = []
    for extra in ((), ("--period", "13")):
        code, stdout, _ = run(capsys, *args, *extra)
        assert code == EXIT_OK
        records.append(json.loads(stdout))
        del records[-1]["timestamp"]
    assert records[0] == records[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "--input", "{tmp}/nosuch.seq", "--lc-profile", "--no-cache"),
        ("measure", "--construction", "hall", "--p", "13", "--ck", "1", "--cache", "{tmp}"),
        ("generate", "--construction", "hall", "--p", "13", "--output", "{tmp}/nosuch/x.seq"),
        ("measure", "--input", "{tmp}", "--ck", "1", "--no-cache"),
    ],
    ids=["measure-missing-input", "measure-cache-is-a-directory", "generate-missing-dir",
         "measure-input-is-a-directory"],
)
def test_os_error_is_exit_2(argv, tmp_path, capsys):
    code, stdout, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == EXIT_PARAM
    assert stdout == ""
    assert err.startswith("error:") and str(tmp_path) in err


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "--construction", "hall", "--p", "31", "--length", str(10**15), "--ck", "1",
         "--no-cache"),
        ("generate", "--construction", "hall", "--p", "31", "--length", str(10**15),
         "--output", "{tmp}/x.seq"),
        # a budget past the 10**15 queries' charge, so that the allocator is reached
        ("verify", "--suite", "weil", "--primes", "13", "--kmax", "1", "--queries", str(10**15),
         "--budget", str(10**20)),
        # 10**20 elements are past the address space, where numpy refuses with a ValueError
        ("measure", "--construction", "hall", "--p", "13", "--length", str(10**20), "--ck", "1",
         "--no-cache"),
        ("generate", "--construction", "hall", "--p", "13", "--length", str(10**20),
         "--output", "{tmp}/x.seq"),
        ("verify", "--suite", "weil", "--primes", "13", "--kmax", "1", "--queries", str(10**20),
         "--budget", str(10**60)),
    ],
    ids=["measure-length", "generate-length", "weil-queries",
         "measure-length-1e20", "generate-length-1e20", "weil-queries-1e20"],
)
def test_out_of_memory_is_exit_2(argv, tmp_path, capsys):
    # 10**15 or more elements: every allocator refuses at once, nothing is touched
    code, stdout, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == EXIT_PARAM
    assert stdout == "" and not (tmp_path / "x.seq").exists()
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("construction", ["hall", "dhl", "cyclotomic"])
@pytest.mark.parametrize("g", ["15", "-11"])
def test_g_outside_units_is_refused(construction, g, capsys):
    # g = 15 would otherwise act as 2 mod 13 and label the word g=15
    code, stdout, err = run(capsys, "measure", "--construction", construction, "--p", "13",
                            "--g", g, "--m", "6", "--classes", "0,1,3", "--lc-profile",
                            "--no-cache")
    assert code == EXIT_PARAM
    assert stdout == ""
    assert err.startswith("error:") and "g must be in 1..12" in err


def test_verify_nonprime_rejected(capsys):
    code, _, err = run(capsys, "verify", "--suite", "diffset", "--primes", "15")
    assert code == EXIT_PARAM


def test_scan_csv(capsys):
    code, stdout, _ = run(
        capsys, "scan", "--ck", "1", "--primes", "13", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("p,g,C_k,")
    row = lines[1].split(",")
    assert row[0] == "13" and row[2] == "4"
    assert row[6] == "True"


def test_scan_empty_range(capsys):
    code, stdout, _ = run(capsys, "scan", "--ck", "2", "--primes", "upto:5",
                          "--format", "csv")
    assert code == EXIT_OK
    assert len(stdout.strip().splitlines()) == 1  # header only


def test_scan_marks_primes_below_k_and_goes_on(capsys):
    # a 7-bit word has no C_8: its row keeps p and g, and the next primes are scanned
    code, stdout, err = run(capsys, "scan", "--ck", "8", "--primes", "7,13,19,31")
    assert (code, err) == (EXIT_OK, "")
    rows = [json.loads(line) for line in stdout.splitlines()]
    assert [(r["p"], r["status"]) for r in rows] == [
        (7, "k-above-p"), (13, "ok"), (19, "ok"), (31, "ok")]
    assert rows[0]["g"] == 3 and rows[0]["C_k"] == rows[0]["theorem1_kernel"] == ""
    assert [r["C_k"] for r in rows[1:]] == [5, 9, 21]


def test_scan_marks_a_prime_over_budget_and_goes_on(capsys):
    # C_2 at p = 13 charges comb(13, 2) * 13 = 1014, at p = 31 comb(31, 2) * 31 = 14415
    code, stdout, err = run(capsys, "scan", "--ck", "2", "--primes", "13,31", "--budget", "2000")
    assert (code, err) == (EXIT_OK, "")
    rows = [json.loads(line) for line in stdout.splitlines()]
    assert [(r["p"], r["status"], r["C_k"]) for r in rows] == [
        (13, "ok", 7), (31, "budget-exceeded", "")]
    assert rows[1]["g"] == 3 and rows[1]["theorem1_kernel"] != ""


@pytest.mark.parametrize("k", ["0", "-1"])
def test_scan_refuses_ck_below_one(k, capsys):
    code, stdout, err = run(capsys, "scan", "--ck", k, "--primes", "7,13")
    assert (code, stdout) == (EXIT_PARAM, "")
    assert err == f"error: --ck must be >= 1; got {k}\n"


def test_scan_c2_small_range(capsys):
    code, stdout, _ = run(
        capsys, "scan", "--ck", "2", "--primes", "upto:60", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = stdout.strip().splitlines()[1:]
    assert len(lines) == len([p for p in (7, 13, 19, 31, 37, 43)])
    assert all(",ok" in l for l in lines)


def test_baseline_over_budget_hints_at_its_own_options(capsys):
    # baseline has no --sampled: its refusal names the options it does have
    code, stdout, err = run(capsys, "baseline", "--n", "256", "--k", "3", "--trials", "2",
                            "--budget", "1000")
    assert (code, stdout) == (EXIT_BUDGET, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "lower --n, --k or --trials, or raise --budget" in err and "sampled" not in err


def test_baseline_charges_every_trial_before_the_first_draw(monkeypatch, capsys):
    # 10**8 words of binom(64, 2) * 64 = 129 024 evaluations each: refused at
    # once, where one word's charge ran for hours
    monkeypatch.setattr(bounds, "BitSequence", None)  # no word is drawn
    assert run(capsys, "baseline", "--n", "64", "--k", "2", "--trials", "100000000") == (
        EXIT_BUDGET, "", "error: estimated 12902400000000 window evaluations exceed budget "
                         "1000000000; lower --n, --k or --trials, or raise --budget\n")
    monkeypatch.undo()
    # the edge: 5 words charge 645 120 exactly
    argv = ("baseline", "--n", "64", "--k", "2", "--trials", "5", "--budget")
    assert run(capsys, *argv, "645119")[0] == EXIT_BUDGET
    assert run(capsys, *argv, "645120")[0] == EXIT_OK


@pytest.mark.parametrize("n, k, code, message", [
    ("-5", "2", EXIT_PARAM, "n must be >= 1; got -5"),
    ("0", "2", EXIT_PARAM, "n must be >= 1; got 0"),
    # charged for all 100 words of the default --trials
    (str(10**20), "2", EXIT_BUDGET, f"estimated {math.comb(10**20, 2) * 10**20 * 100} window"),
    # past str()'s 4300 digits an estimate is given by its size
    (str(10**20), "300", EXIT_BUDGET, "estimated at least 2**"),
], ids=["n-negative", "n-zero", "n-1e20", "n-1e20-k300"])
def test_baseline_refuses_n_before_the_first_draw(n, k, code, message, monkeypatch, capsys):
    monkeypatch.setattr(bounds, "BitSequence", None)  # no word is drawn
    code_, stdout, err = run(capsys, "baseline", "--n", n, "--k", k)
    assert (code_, stdout) == (code, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_baseline_deterministic(capsys):
    code, a, _ = run(capsys, "baseline", "--n", "64", "--k", "2", "--trials", "5",
                     "--seed", "9")
    code2, b, _ = run(capsys, "baseline", "--n", "64", "--k", "2", "--trials", "5",
                      "--seed", "9")
    assert code == code2 == EXIT_OK
    ra, rb = json.loads(a), json.loads(b)
    ra.pop("timestamp"), rb.pop("timestamp")
    assert ra == rb


def test_baseline_prints_the_library_value(capsys):
    argv = ("baseline", "--n", "64", "--k", "2", "--trials", "5", "--seed", "11")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["value"] == bounds.random_baseline(64, 2, 5, 11)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    keys = [row["key"] for row in csv.DictReader(io.StringIO(out))]
    assert keys == ["max_ratio", "mean_ratio", "quartiles", "values"]
