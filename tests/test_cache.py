"""The command line's document cache (``phode.doccache``): a hit rebuilds
exactly what ``parse_system_text`` or ``read_trajectory`` gives, and a
cache that is missing, damaged, unreadable or unwritable changes no output
and no exit code."""

import dataclasses
import hashlib
import json
import os
import select
import signal
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import phode.cli
from phode import doccache
from phode.cli import main
from phode.coupling import CoupledNetwork, CouplingSpec, LinearPortRelation
from phode.decoupling import Partition, decouple_auto
from phode.fileio import dump_document, parse_system_text, read_trajectory
from phode.integrate import EnergyReport, Trajectory

from util import random_linear_ph, random_separable

FIELDS = ("E", "J", "R", "B", "L", "P", "S", "N")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A fresh, empty cache location of one test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "phode"


@pytest.fixture
def parses(monkeypatch):
    """The texts that ``phode.cli.parse_system_text`` is called with."""
    calls = []

    def counted(text):
        calls.append(text)
        return parse_system_text(text)

    monkeypatch.setattr(phode.cli, "parse_system_text", counted)
    return calls


def entries(folder: Path) -> list:
    return sorted(folder.glob("*.entry")) if folder.is_dir() else []


def read(path) -> object:
    return phode.cli._read(str(path), phode.cli.parse_system_text, cached=True)


def skew_network(rng):
    """Two subsystems with feedthrough, skew-coupled through two ports each."""
    subs = tuple(random_linear_ph(rng, n=k, m=1, feedthrough=True) for k in (20, 40))
    ports = tuple(rng.standard_normal((k, 2)) for k in (20, 40))
    C = rng.standard_normal((4, 4))
    return CoupledNetwork(subs, CouplingSpec(ports, C - C.T))


def general_network(rng):
    net = skew_network(rng)
    C = net.coupling.C + 0.1 * np.eye(len(net.coupling.C))
    return CoupledNetwork(net.subsystems, CouplingSpec(net.coupling.port_matrices, C))


def relation_network(rng):
    net = decouple_auto(random_separable(rng, (30, 30), m=1), Partition((30, 30)))
    assert isinstance(net.coupling, LinearPortRelation)
    return net


def model_text(rng):
    doc = {"kind": "linear", "model": "poroelastic", "params": {"dim_w": 6, "dim_p": 4}}
    return json.dumps(doc, indent=1) + " " * doccache.MIN_BYTES


# name -> text of a document of at least MIN_BYTES bytes
DOCUMENTS = {
    "linear": lambda rng: dump_document(random_linear_ph(rng, n=60, m=3, implicit=True)),
    "feedthrough": lambda rng: dump_document(random_linear_ph(rng, n=60, m=3,
                                                              feedthrough=True)),
    "model": model_text,
    "network-skew": lambda rng: dump_document(skew_network(rng)),
    "network-general": lambda rng: dump_document(general_network(rng)),
    "network-relation": lambda rng: dump_document(relation_network(rng)),
    "phdae": lambda rng: dump_document(relation_network(rng), kind="phdae"),
}


def document(tmp_path, name, seed=0) -> Path:
    path = tmp_path / f"{name}-{seed}.json"
    path.write_text(DOCUMENTS[name](np.random.default_rng(seed)))
    assert path.stat().st_size >= doccache.MIN_BYTES
    return path


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def assert_same_array(a, b):
    assert type(a) is type(b) is np.ndarray and a.dtype == b.dtype == np.float64
    assert a.shape == b.shape and np.array_equal(bits(a), bits(b))
    for flag in ("C_CONTIGUOUS", "F_CONTIGUOUS", "WRITEABLE"):
        assert a.flags[flag] == b.flags[flag]


def assert_same_system(a, b):
    assert type(a) is type(b)
    for key in FIELDS:
        assert_same_array(getattr(a, key), getattr(b, key))


def assert_same(a, b):
    """``a`` and ``b`` are of one type, coupling class, skewness and port
    layout, and their matrices hold the same bits."""
    assert type(a) is type(b)
    if not isinstance(a, CoupledNetwork):
        return assert_same_system(a, b)
    assert len(a.subsystems) == len(b.subsystems)
    for sa, sb in zip(a.subsystems, b.subsystems):
        assert_same_system(sa, sb)
    ca, cb = a.coupling, b.coupling
    assert type(ca) is type(cb) and ca.layout == cb.layout
    for pa, pb in zip(ca.port_matrices, cb.port_matrices):
        assert_same_array(pa, pb)
    if isinstance(ca, CouplingSpec):
        assert ca.is_skew == cb.is_skew
        assert_same_array(ca.C, cb.C)
    else:
        assert_same_array(ca.M, cb.M)
        assert_same_array(ca.N, cb.N)


def outcome(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_a_hit_is_the_parse(tmp_path, cache, parses, name):
    path = document(tmp_path, name)
    ref = parse_system_text(path.read_text())
    miss = read(path)
    assert len(parses) == 1 and len(entries(cache)) == 1
    hit = read(path)
    assert len(parses) == 1           # the hit parsed nothing
    assert_same(miss, ref)
    assert_same(hit, ref)


def test_kinds_of_the_documents(tmp_path, cache):
    kinds = {name: read(document(tmp_path, name)) for name in DOCUMENTS}
    assert kinds["network-skew"].coupling.is_skew
    assert not kinds["network-general"].coupling.is_skew
    assert isinstance(kinds["phdae"].coupling, LinearPortRelation)
    assert np.any(kinds["feedthrough"].P) and np.any(kinds["feedthrough"].N)


def test_commands_give_the_same_output_on_a_hit(tmp_path, cache, capsys):
    path = str(document(tmp_path, "feedthrough"))
    separable = tmp_path / "separable.json"
    separable.write_text(dump_document(random_separable(np.random.default_rng(4), (30, 30))))
    for argv in (["validate", path],
                 ["simulate", path, "--x0", ",".join(["0.1"] * 60), "--t1", "0.1", "-o", "-"],
                 ["decouple", str(separable), "--partition", "30,30", "-o", "-"]):
        first = outcome(argv, capsys)
        assert first[0] == 0 and first[2] == ""
        assert outcome(argv, capsys) == first


def test_small_documents_are_not_cached(tmp_path, cache, capsys):
    path = tmp_path / "small.json"
    path.write_text(dump_document(random_linear_ph(np.random.default_rng(1), n=10)))
    assert path.stat().st_size < doccache.MIN_BYTES
    assert main(["validate", str(path)]) == 0
    assert not cache.exists()


def test_refused_document_is_not_stored(tmp_path, cache, parses, capsys):
    text = document(tmp_path, "linear").read_text()
    bad = tmp_path / "bad.json"
    bad.write_text(text[:-2] + ', "J": [[0]]}')   # a duplicate key
    lines = [outcome(["validate", str(bad)], capsys) for _ in range(2)]
    assert lines[0] == lines[1] == (1, "", f"phode: {bad}: duplicate key 'J'\n")
    assert len(parses) == 2 and entries(cache) == []


def test_structure_is_checked_on_every_load(tmp_path, cache, capsys):
    # a document that parses is stored, and the check still fails it on a hit
    doc = json.loads(document(tmp_path, "linear").read_text())
    doc["R"][0][0] = -1e3
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(doc))
    argv = ["simulate", str(path), "--x0", ",".join(["1"] * 60), "-o", "-"]
    first = outcome(argv, capsys)
    assert first[0] == 2 and "structure validation failed" in first[2]
    assert len(entries(cache)) == 1
    assert outcome(argv, capsys) == first


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no integer digit limit")
def test_lowered_digit_limit_still_refuses_a_long_integer(tmp_path, cache, capsys):
    doc = json.loads(document(tmp_path, "linear").read_text())
    doc["note"] = 10 ** 999           # 1000 digits, in a field no parser reads
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert outcome(["validate", str(path)], capsys)[0] == 0
    assert len(entries(cache)) == 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert outcome(["validate", str(path)], capsys) == (
            1, "", f"phode: {path}: integer of 1000 digits is too long (at most 640)\n")
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(entries(cache)) == 1


def matrices(obj) -> list:
    """The matrices of a system or network, in the order of ``doccache._flatten``."""
    return doccache._flatten(obj)[1]


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_a_hit_is_views_of_one_aligned_buffer(tmp_path, cache, name):
    path = document(tmp_path, name)
    ref = parse_system_text(path.read_text())
    read(path)
    [entry] = entries(cache)
    hit = read(path)
    got = matrices(hit)
    buffer = got[0].base
    assert type(buffer) is np.ndarray and buffer.dtype == np.uint8 and buffer.flags.owndata
    assert buffer.nbytes == entry.stat().st_size
    start = buffer.__array_interface__["data"][0]
    for a, b in zip(got, matrices(ref), strict=True):
        assert a.base is buffer and a.flags.aligned
        assert a.shape == b.shape and a.strides == b.strides
        assert np.array_equal(bits(a), bits(b))
        assert (a.__array_interface__["data"][0] - start) % 8 == 0


def misaligned(whole: bytes) -> bytes:
    """``whole``, an entry, with its header line one byte past a multiple of 8."""
    line, rest = whole.split(b"\n", 1)
    line = line.rstrip(b" ")
    return line + b" " * (-len(line) % 8) + b"\n" + rest


@pytest.mark.parametrize("damage", ["truncated", "garbage", "foreign", "empty", "misaligned"])
def test_damaged_entry_is_a_miss_and_is_rewritten(tmp_path, cache, parses, damage):
    path = document(tmp_path, "network-relation")
    read(path)
    [entry] = entries(cache)
    whole = entry.read_bytes()
    assert whole.index(b"\n") % 8 == 7                 # a header line of 8k bytes
    if damage == "misaligned":
        entry.write_bytes(misaligned(whole))
    elif damage == "truncated":
        entry.write_bytes(whole[:-8])
    elif damage == "garbage":
        entry.write_bytes(np.random.default_rng(2).bytes(len(whole)))
    elif damage == "foreign":
        # the whole entry of another document, under this document's name
        other = document(tmp_path, "network-skew", seed=3)
        read(other)
        entry.write_bytes(next(e for e in entries(cache) if e != entry).read_bytes())
    else:
        entry.write_bytes(b"")
    parsed = len(parses)
    assert_same(read(path), parse_system_text(path.read_text()))
    assert len(parses) == parsed + 1
    assert entry.read_bytes() == whole


def baseline(tmp_path, monkeypatch, capsys):
    """(argv, outcome) of some commands on a big document, with a working cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "working"))
    path = str(document(tmp_path, "network-skew"))
    runs = [["validate", path], ["condense", path, "-o", "-"],
            ["cosim", path, "--x0", ",".join(["0.1"] * 60), "--t1", "0.05", "-o", "-"],
            ["simulate", path, "--x0", "1"]]     # a network where a system is expected
    return [(argv, outcome(argv, capsys)) for argv in runs]


def test_absent_location_is_created_0700(tmp_path, monkeypatch, capsys):
    old = os.umask(0o022)
    try:
        expected = baseline(tmp_path, monkeypatch, capsys)
        base = tmp_path / "absent" / "deeper"
        monkeypatch.setenv("XDG_CACHE_HOME", str(base))
        assert [(argv, outcome(argv, capsys)) for argv, _ in expected] == expected
    finally:
        os.umask(old)
    assert stat.S_IMODE((base / "phode").stat().st_mode) == 0o700
    assert len(entries(base / "phode")) == 1


@pytest.mark.parametrize("where", ["file", "phode-file", "relative"])
def test_unusable_location_changes_nothing(tmp_path, monkeypatch, capsys, where):
    expected = baseline(tmp_path, monkeypatch, capsys)
    assert expected[0][1][0] == 0 and expected[-1][1][0] == 1
    home = tmp_path / "home"
    monkeypatch.setenv("HOME", str(home))
    if where == "file":               # XDG_CACHE_HOME names a file
        (tmp_path / "a-file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "a-file"))
    elif where == "phode-file":       # the cache directory is a file
        (tmp_path / "base").mkdir()
        (tmp_path / "base" / "phode").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "base"))
    else:                             # ignored for ~/.cache, which is a file
        home.mkdir()
        (home / ".cache").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
        monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert [(argv, outcome(argv, capsys)) for argv, _ in expected] == expected
    assert not (tmp_path / "relative").exists()


@pytest.mark.skipif(hasattr(os, "geteuid") and os.geteuid() == 0,
                    reason="permissions do not bind the superuser")
def test_read_only_location_changes_nothing(tmp_path, monkeypatch, capsys):
    expected = baseline(tmp_path, monkeypatch, capsys)
    base = tmp_path / "ro"
    base.mkdir(mode=0o500)
    monkeypatch.setenv("XDG_CACHE_HOME", str(base))
    try:
        for _ in range(2):
            assert [(argv, outcome(argv, capsys)) for argv, _ in expected] == expected
    finally:
        base.chmod(0o700)


def test_unopenable_cache_changes_nothing(tmp_path, monkeypatch, capsys, cache):
    # every open of a path in the cache fails, as in a directory without read
    # and write permission (which binds no superuser, so it is simulated)
    expected = baseline(tmp_path, monkeypatch, capsys)
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache.parent))
    cache.mkdir(parents=True, mode=0o700)

    def guard(opener):
        def guarded(file, *args, **kwargs):
            if not isinstance(file, int) and Path(file).parent == cache:
                raise PermissionError(13, "Permission denied", str(file))
            return opener(file, *args, **kwargs)
        return guarded

    monkeypatch.setattr(doccache, "open", guard(open), raising=False)
    monkeypatch.setattr(os, "open", guard(os.open))
    for _ in range(2):
        assert [(argv, outcome(argv, capsys)) for argv, _ in expected] == expected
    assert list(cache.iterdir()) == []


def planted(tmp_path, monkeypatch, folder) -> tuple:
    """(path, entry): a big document and, in ``folder``, a whole entry of
    its key that rebuilds another system, as another user could write it."""
    path = document(tmp_path, "linear")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "own"))
    read(path)
    [entry] = entries(tmp_path / "own" / "phode")
    whole = entry.read_bytes()
    start = whole.index(b"\n") + 1                      # E[0, 0], plus one
    shifted = np.frombuffer(whole, "<f8", 1, start) + 1
    (folder / entry.name).write_bytes(whole[:start] + shifted.tobytes() + whole[start + 8:])
    return path, folder / entry.name


def test_planted_entry_is_a_hit_in_a_private_directory(tmp_path, monkeypatch):
    # the entry of the tests below is read, when the directory is private
    folder = tmp_path / "xdg" / "phode"
    folder.mkdir(parents=True, mode=0o700)
    path, _ = planted(tmp_path, monkeypatch, folder)
    monkeypatch.setenv("XDG_CACHE_HOME", str(folder.parent))
    assert read(path).E[0, 0] == parse_system_text(path.read_text()).E[0, 0] + 1


@pytest.mark.parametrize("mode", [0o777, 0o770, 0o707, 0o750, 0o1777])
def test_directory_others_may_use_is_no_cache(tmp_path, monkeypatch, parses, mode):
    folder = tmp_path / "shared" / "phode"
    folder.mkdir(parents=True)
    folder.chmod(mode)
    path, entry = planted(tmp_path, monkeypatch, folder)
    before = entry.read_bytes()
    monkeypatch.setenv("XDG_CACHE_HOME", str(folder.parent))
    parsed = len(parses)
    for _ in range(2):
        assert_same(read(path), parse_system_text(path.read_text()))
    assert len(parses) == parsed + 2                    # no hit, and nothing stored
    assert entries(folder) == [entry] and entry.read_bytes() == before
    assert stat.S_IMODE(folder.stat().st_mode) == mode


def test_directory_of_another_user_is_no_cache(tmp_path, monkeypatch, parses):
    folder = tmp_path / "xdg" / "phode"
    folder.mkdir(parents=True, mode=0o700)
    path, entry = planted(tmp_path, monkeypatch, folder)
    monkeypatch.setenv("XDG_CACHE_HOME", str(folder.parent))
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    parsed = len(parses)
    for _ in range(2):
        assert_same(read(path), parse_system_text(path.read_text()))
    assert len(parses) == parsed + 2 and entries(folder) == [entry]


def test_temporary_file_is_never_followed(tmp_path, cache, parses):
    path = document(tmp_path, "linear")
    key = doccache.key_of(path.read_bytes())
    victim = tmp_path / "victim"
    victim.write_bytes(b"kept")
    cache.mkdir(parents=True, mode=0o700)
    link = cache / f".{key}.{os.getpid()}.tmp"
    link.symlink_to(victim)
    assert_same(read(path), parse_system_text(path.read_text()))
    assert victim.read_bytes() == b"kept" and entries(cache) == []
    assert link.is_symlink()


def test_interrupted_write_leaves_no_temporary_file(tmp_path, cache, monkeypatch):
    path = document(tmp_path, "network-relation")

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        read(path)
    assert list(cache.iterdir()) == []


def test_stale_temporary_files_are_deleted(tmp_path, cache):
    cache.mkdir(parents=True, mode=0o700)
    stale, fresh = cache / ".a.1.tmp", cache / ".b.2.tmp"
    for f in (stale, fresh):
        f.write_bytes(bytes(1000))
    old = stale.stat().st_mtime_ns - (doccache.STALE_S + 1) * 10 ** 9
    os.utime(stale, ns=(old, old))
    read(document(tmp_path, "linear"))
    assert not stale.exists() and fresh.exists() and len(entries(cache)) == 1


def test_entries_stay_within_the_bound(tmp_path, cache, monkeypatch):
    assert doccache.MAX_BYTES == 256 * 2 ** 20
    paths = [document(tmp_path, "linear", seed) for seed in range(4)]
    stored = []
    for age, path in zip((30, 20, 10), paths):
        read(path)
        [entry] = set(entries(cache)) - set(stored)
        mtime = entry.stat().st_mtime_ns - age * 10 ** 9
        os.utime(entry, ns=(mtime, mtime))
        stored.append(entry)
    sizes = {e.stat().st_size for e in stored}
    assert len(sizes) == 1
    # room for three entries: storing a fourth deletes the oldest
    monkeypatch.setattr(doccache, "MAX_BYTES", 3 * sizes.pop() + 1)
    read(paths[3])
    kept = entries(cache)
    assert len(kept) == 3 and stored[0] not in kept and set(stored[1:]) <= set(kept)
    assert sum(e.stat().st_size for e in kept) <= doccache.MAX_BYTES
    # its document is a miss again, stored anew in place of the next oldest
    read(paths[0])
    assert set(entries(cache)) == set(kept) - {stored[1]} | {stored[0]}


def test_a_miss_holds_the_text_not_the_bytes(tmp_path, cache, monkeypatch):
    path = document(tmp_path, "linear")
    size = path.stat().st_size
    held = []

    def measured(text):
        held.append(tracemalloc.get_traced_memory()[0])
        return parse_system_text(text)

    monkeypatch.setattr(phode.cli, "parse_system_text", measured)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        read(path)
    finally:
        tracemalloc.stop()
    # the text alone is one byte a character (ASCII); with the bytes it is two
    assert held and held[0] - start < 1.5 * size


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_newlines_are_read_as_read_text_reads_them(tmp_path, cache, capsys, newline):
    text = document(tmp_path, "network-general").read_text()
    path = tmp_path / "crlf.json"
    path.write_bytes(text.replace("\n", newline).encode())
    assert_same(read(path), parse_system_text(text))
    assert_same(read(path), parse_system_text(text))
    # a decode error names the line that read_text's newlines give
    path.write_bytes(text.replace("\n", newline).encode()[:-3] + b"]")
    with pytest.raises(phode.cli.CliError) as uncached:
        phode.cli._read(str(path), parse_system_text)
    assert "line 1:" not in str(uncached.value)
    assert outcome(["validate", str(path)], capsys) == (1, "", f"phode: {uncached.value}\n")


@pytest.mark.parametrize("body", [b"a\r\nb\rc\nd", b"\r\r\n\n\r", b"x\r", b"\r\n" * 40000,
                                  "caf\u00e9\r\n\U0001f600\r".encode(), b""])
def test_every_read_decodes_as_read_text(tmp_path, body):
    # one decoder for every size and for every file _read reads
    path = tmp_path / "text"
    path.write_bytes(body)
    assert phode.cli._read(str(path), lambda text: text) == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("body", [b"ab\xffcd", b"\r\n\xe9\r\n", b"ok\xe2\x82"])
def test_every_read_fails_to_decode_where_read_text_fails(tmp_path, body):
    path = tmp_path / "text"
    path.write_bytes(body)
    with pytest.raises(UnicodeDecodeError) as ref:
        path.read_text(encoding="utf-8")
    with pytest.raises(phode.cli.CliError) as exc:
        phode.cli._read(str(path), lambda text: text)
    assert str(exc.value) == (f"{path}: not UTF-8 text: byte 0x{body[ref.value.start]:02x} "
                              f"at position {ref.value.start}")


def test_non_utf8_error_line_is_that_of_a_small_document(tmp_path, cache, capsys):
    text = document(tmp_path, "linear").read_text()
    lines = []
    for name, body in (("big.json", text), ("small.json", text[:1000])):
        path = tmp_path / name
        path.write_bytes(body[:500].encode() + b"\xff" + body[500:].encode())
        assert main(["validate", str(path)]) == 1
        lines.append(capsys.readouterr().err.replace(name, "DOC"))
    assert lines[0] == lines[1] == "phode: " + str(tmp_path / "DOC") + (
        ": not UTF-8 text: byte 0xff at position 500\n")


# ---------------------------------------------------------------------------
# trajectory tables: simulate -o and cosim -o store them, report reads them

SYSTEM, TRAJECTORY = doccache.SYSTEM, doccache.TRAJECTORY
# the integer digit limit that the key holds (0 before Python has one)
DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)


@pytest.fixture
def csv_parses(monkeypatch):
    """The texts that ``phode.cli.read_trajectory`` is called with."""
    calls = []

    def counted(text):
        calls.append(text)
        return read_trajectory(text)

    monkeypatch.setattr(phode.cli, "read_trajectory", counted)
    return calls


def read_table(path) -> np.ndarray:
    return phode.cli._read(str(path), phode.cli._trajectory_table, cached=True, kind=TRAJECTORY)


def big_system(tmp_path, seed=0) -> Path:
    path = tmp_path / f"sys-{seed}.json"
    path.write_text(dump_document(random_linear_ph(np.random.default_rng(seed), n=36, m=2)))
    assert path.stat().st_size >= doccache.MIN_BYTES
    return path


def x0(n):
    return ",".join(f"{0.1 * (i % 7) - 0.3:g}" for i in range(n))


# name -> (argv of a run writing a CSV of at least MIN_BYTES, the document)
def runs(tmp_path) -> dict:
    system = str(big_system(tmp_path))
    network = str(document(tmp_path, "network-skew"))
    simulate = ["simulate", system, "--x0", x0(36), "--t1", "1"]
    return {"midpoint": (simulate, system),
            "strang": (simulate + ["--method", "strang"], system),
            "cosim": (["cosim", network, "--x0", x0(60), "--t1", "1",
                       "--mode", "gauss-seidel"], network)}


def assert_same_columns(table, text):
    """The columns of ``table`` are, bit for bit and stride for stride, the
    arrays ``read_trajectory`` reads from ``text``."""
    views = (table[:, 0], table[:, 1:-2], table[:, -2], table[:, -1])
    for a, b in zip(views, read_trajectory(text)):
        assert_same_array(a, b)
        assert a.strides == b.strides


@pytest.mark.parametrize("run", ["midpoint", "strang", "cosim"])
def test_a_written_trajectory_is_a_hit_that_is_the_parse(tmp_path, cache, csv_parses, run):
    argv, _ = runs(tmp_path)[run]
    out = tmp_path / "out.csv"
    assert main(argv + ["-o", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) >= doccache.MIN_BYTES and len(entries(cache)) == 2
    # the writer's entry is the table of the file's bytes
    stored = doccache.get(doccache.key_of(data, TRAJECTORY), TRAJECTORY)
    assert_same_columns(stored, out.read_text())
    assert read_trajectory(out.read_text())[0].base.shape == stored.shape
    hit = read_table(out)
    assert csv_parses == []
    assert_same_columns(hit, out.read_text())
    # a view of the buffer that holds the whole entry, aligned
    entry = cache / f"{doccache.key_of(data, TRAJECTORY)}.entry"
    assert hit.base.dtype == np.uint8 and hit.base.nbytes == entry.stat().st_size
    assert hit.flags.aligned


def test_report_is_the_same_on_a_hit_and_without_a_cache(tmp_path, monkeypatch, cache,
                                                          csv_parses, capsys):
    argv, system = runs(tmp_path)["midpoint"]
    out = tmp_path / "out.csv"
    assert main(argv + ["-o", str(out)]) == 0
    report = ["report", str(out), system]
    hit = outcome(report, capsys)
    assert hit[0] == 0 and hit[2] == "" and csv_parses == []
    (tmp_path / "a-file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "a-file"))
    assert outcome(report, capsys) == hit
    assert len(csv_parses) == 1


def test_an_edited_csv_misses(tmp_path, cache, csv_parses, capsys):
    argv, system = runs(tmp_path)["midpoint"]
    out = tmp_path / "out.csv"
    assert main(argv + ["-o", str(out)]) == 0
    text = out.read_text()
    lines = text.split("\n")
    cells = lines[3].split(",")
    # row 3's H, one digit changed: the same length, another value
    digit = next(i for i, ch in enumerate(cells[-2]) if ch in "123456789")
    cells[-2] = cells[-2][:digit] + str(int(cells[-2][digit]) % 9 + 1) + cells[-2][digit + 1:]
    edited = "\n".join(lines[:3] + [",".join(cells)] + lines[4:])
    assert len(edited) == len(text) and edited != text
    out.write_text(edited)
    table = read_table(out)
    assert len(csv_parses) == 1
    assert table[2, -2] == float(cells[-2]) != read_trajectory(text)[2][2]
    assert_same_columns(table, edited)
    # a cell that is no number: the row and column line, on every report
    cells[-2] = "x" * len(cells[-2])
    out.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]))
    for _ in range(2):
        code, stdout, err = outcome(["report", str(out), system], capsys)
        assert (code, stdout) == (1, "")
        assert err.startswith(f"phode: {out}: row 3: non-numeric cell: ")
        assert err.endswith(f"in column {len(cells) - 1}.\n")


def test_a_repeated_time_is_refused_on_a_miss_and_on_a_hit(tmp_path, cache, csv_parses,
                                                            capsys):
    argv, system = runs(tmp_path)["midpoint"]
    out = tmp_path / "out.csv"
    assert main(argv + ["-o", "-"]) == 0
    lines = capsys.readouterr().out.split("\n")
    out.write_text("\n".join(lines[:3] + lines[2:]))        # row 2 twice
    assert out.stat().st_size >= doccache.MIN_BYTES
    read_trajectory(out.read_text())                        # which the reader takes
    expected = (1, "", f"phode: {out}: time grid must be strictly increasing\n")
    assert outcome(["report", str(out), system], capsys) == expected
    assert len(entries(cache)) == 2 and len(csv_parses) == 1
    assert outcome(["report", str(out), system], capsys) == expected
    assert len(csv_parses) == 1                             # the second was a hit


def test_the_kind_is_in_the_key(tmp_path, cache, capsys):
    argv, system = runs(tmp_path)["midpoint"]
    assert outcome(["validate", system], capsys)[0] == 0    # cached as a system
    assert len(entries(cache)) == 1
    assert outcome(["report", system, system], capsys) == (
        1, "", f"phode: {system}: unexpected trajectory header\n")
    out = tmp_path / "out.csv"
    assert main(argv + ["-o", str(out)]) == 0
    assert len(entries(cache)) == 2                          # and the CSV's table
    with pytest.raises(phode.cli.CliError) as uncached:     # the JSON line
        phode.cli._read(str(out), parse_system_text)
    assert "not valid JSON" in str(uncached.value)
    assert outcome(["validate", str(out)], capsys) == (1, "", f"phode: {uncached.value}\n")
    assert doccache.key_of(out.read_bytes()) != doccache.key_of(out.read_bytes(), TRAJECTORY)
    # an entry is of the kind its header names, whatever its layout: one
    # of a single table that names the system kind is no table
    key = doccache.key_of(out.read_bytes(), TRAJECTORY)
    entry = cache / f"{key}.entry"
    whole = entry.read_bytes()
    start = whole.index(b"\n")
    head = json.loads(whole[:start])
    assert_same_columns(doccache.get(key, TRAJECTORY), out.read_text())
    entry.write_bytes(json.dumps({**head, "kind": "system"}).encode() + whole[start:])
    assert doccache.get(key, TRAJECTORY) is None


def test_standard_output_and_small_texts_store_nothing(tmp_path, cache, capsys):
    argv, _ = runs(tmp_path)["midpoint"]
    small = tmp_path / "small.json"
    small.write_text(dump_document(random_linear_ph(np.random.default_rng(1), n=4)))
    out = tmp_path / "out.csv"
    assert main(argv + ["-o", "-"]) == 0
    assert len(capsys.readouterr().out) >= doccache.MIN_BYTES
    assert main(["simulate", str(small), "--x0", "1,0,0,0", "--t1", "1", "-o", str(out)]) == 0
    assert out.stat().st_size < doccache.MIN_BYTES
    assert main(["report", str(out), str(small)]) == 0
    assert len(entries(cache)) == 1                          # the big document alone


def test_an_entry_that_is_there_is_not_written_again(tmp_path, cache, capsys):
    argv, _ = runs(tmp_path)["strang"]
    out = tmp_path / "out.csv"
    assert main(argv + ["-o", str(out)]) == 0
    [entry] = [e for e in entries(cache)
               if e.name.startswith(doccache.key_of(out.read_bytes(), TRAJECTORY))]
    old = entry.stat().st_mtime_ns - 10 ** 9
    os.utime(entry, ns=(old, old))
    assert main(argv + ["-o", str(out)]) == 0
    assert entry.stat().st_mtime_ns == old
    # a damaged entry is a miss of the reader, which writes it anew
    whole = entry.read_bytes()
    entry.write_bytes(whole[:-8])
    assert_same_columns(read_table(out), out.read_text())
    assert entry.read_bytes() == whole


def test_a_table_that_read_trajectory_refuses_is_not_stored(cache):
    # a non-finite value, which read_trajectory refuses in the CSV
    x = np.array([[1.0], [np.inf], [0.0]])
    traj = Trajectory(t=np.arange(3.0), x=x, u=np.zeros((3, 0)), y=np.zeros((3, 0)),
                      H=np.ones(3), method="midpoint")
    rep = EnergyReport(residuals=np.zeros(2), dissipation_ok=True, driven=False)
    phode.cli._store_table("0" * 64, traj, rep)
    assert entries(cache) == []
    phode.cli._store_table("0" * 64, dataclasses.replace(traj, x=np.ones((3, 1))), rep)
    assert len(entries(cache)) == 1


def test_a_table_that_does_not_fit_changes_nothing(tmp_path, cache, monkeypatch, capsys):
    argv, system = runs(tmp_path)["cosim"]
    out = tmp_path / "out.csv"
    expected = outcome(argv + ["-o", "-"], capsys)

    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(doccache, "put", no_memory)
    assert outcome(argv + ["-o", str(out)], capsys) == (0, "", expected[2])
    assert out.read_text() == expected[1]


def test_importing_the_command_line_loads_no_hashlib_and_starts_no_thread():
    # the first key of a process imports it, and the first key of a large
    # document starts the worker thread, so a command on small files does neither
    code = ("import sys, threading, phode.cli; "
            "print('hashlib' in sys.modules, threading.active_count())")
    src = str(Path(phode.cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "False 1\n"


def tree_key(data: bytes, kind: str) -> str:
    """The key of a document of at least SPLIT_BYTES bytes, as its definition
    reads: the SHA-256 of the salt, the digit limit, the kind, the length and
    the digests of the first len // 2 bytes and of the rest."""
    half = len(data) // 2
    return hashlib.sha256(b"%s%d\0%s\0%d\0%s%s" % (
        doccache._salt(), DIGITS(), kind.encode(), len(data),
        hashlib.sha256(data[:half]).digest(), hashlib.sha256(data[half:]).digest())
    ).hexdigest()


def large_text(seed=0) -> str:
    rng = np.random.default_rng(seed)
    return "".join(f"{v:.17g}\n" for v in rng.standard_normal(doccache.SPLIT_BYTES // 10))


def test_key_of_a_large_document_is_that_of_its_halves():
    data = large_text().encode()
    assert len(data) >= doccache.SPLIT_BYTES and len(data) % 2
    for kind in (SYSTEM, TRAJECTORY):
        assert doccache.key_of(data, kind) == tree_key(data, kind)
    # taken with the worker thread, which the first such key started
    assert "phode-doccache-key" in [t.name for t in threading.enumerate()]
    # below the threshold the key is one SHA-256 of all of the key
    small = data[:doccache.SPLIT_BYTES - 1]
    assert doccache.key_of(small) == hashlib.sha256(b"%s%d\0%s\0%s" % (
        doccache._salt(), DIGITS(), SYSTEM.encode(), small)).hexdigest()


def test_an_edit_in_either_half_changes_the_key():
    data = bytearray(large_text().encode())
    keys = {doccache.key_of(bytes(data))}
    for at in (10, len(data) // 2 - 1, len(data) // 2, len(data) - 10):
        edited = data.copy()
        edited[at] ^= 1
        keys.add(doccache.key_of(bytes(edited)))
    assert len(keys) == 5


@pytest.mark.parametrize("step", [1000, 65536, 2 ** 19 + 7])
def test_the_writers_key_is_that_of_the_file(tmp_path, monkeypatch, step):
    # the writer's slices cut the halves anywhere; its key is key_of's
    text = large_text(1)
    monkeypatch.setattr(phode.cli, "_WRITE_SLICE_CHARS", step)
    out = tmp_path / "out.csv"
    key = phode.cli._write(str(out), text, TRAJECTORY)
    assert key == doccache.key_of(out.read_bytes(), TRAJECTORY) == tree_key(
        text.encode(), TRAJECTORY)


def test_a_text_that_is_not_ascii_gets_no_key(tmp_path):
    out = tmp_path / "out.csv"
    text = "\u00e9" + "0\n" * doccache.MIN_BYTES
    assert phode.cli._write(str(out), text, TRAJECTORY) is None
    assert out.read_text(encoding="utf-8") == text


def test_keys_taken_at_once_on_many_threads(monkeypatch):
    # one worker hashes the second halves of all of them, in any order
    texts = [large_text(seed).encode() for seed in range(6)]
    want = [tree_key(data, SYSTEM) for data in texts]
    got = [None] * (2 * len(texts))

    def key(i):
        got[i] = doccache.key_of(texts[i % len(texts)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=key, args=(i,)) for i in range(len(got))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want + want


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_keys_with_a_worker_of_its_own():
    data = large_text().encode()
    key = doccache.key_of(data)                 # the worker of this process runs
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:                                # pragma: no cover - the child
        try:
            os.write(w, doccache.key_of(data).encode())
        finally:
            os._exit(0)
    os.close(w)
    try:
        ready, _, _ = select.select([r], [], [], 60)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        assert ready and os.read(r, 100).decode() == key
    finally:
        os.close(r)
