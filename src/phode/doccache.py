"""The command line's cache of parsed documents, keyed by content.

Two kinds of document have entries: a system document (``SYSTEM``), whose
system or network every command that loads one stores, and a trajectory
CSV (``TRAJECTORY``), whose table of values ``report`` stores and
``simulate -o`` and ``cosim -o`` store as they write it.  An entry sits in
``$XDG_CACHE_HOME/phode`` (``~/.cache/phode`` when the variable is unset
or not an absolute path), named by the SHA-256 of the document's bytes
together with its kind and everything else its parse depends on: the
source of the phode modules, the Python and NumPy versions and
``sys.get_int_max_str_digits()``.  An entry is one line of JSON (the key,
the kind, the layout of a system or network, the figures of each system's
structural checks and the shape and memory order of each matrix), padded
to a multiple of 8 bytes, and then the matrices' float64 values,
little-endian.  A system's figures
(``LinearPHSystem.structure``, computed when the entry is stored) are
recorded only when every verdict holds or fails by a factor of 2, so that
no other rounding of the checks could flip one; a system without them is
checked again at every load.  A hit reads the entry into one buffer, whose
aligned slices are the matrices, rebuilds the system or network through
the constructors the parser calls, or the table, without a copy, puts the
recorded figures back on its systems and refreshes the entry's mtime.  An
entry that cannot be read, is misaligned or does not match its key and
kind is a miss, and a cache location that cannot be read or written leaves
every command as it is without one.  So does a directory that another
user owns or that group or others may use at all, and a system without
user ids: the cache is only ever a private one.

A settled file (``memo_of``) is found by its status, not its bytes: the
read that keys it leaves a memo, a file named by the key of the file's
device, inode, size, mtime and ctime that holds the 64 hex digits of its
entry's key, so that a later read with the same status costs an ``fstat``,
the memo and the entry.  A write after the status was taken moves the
file's ctime past the clock reading that dated it, less a tick, so its next
status names another memo; only a clock set back by more than
``SETTLED_NS``, or a filesystem whose ctime does not move on a write, could
serve a stale one.  Eviction counts memos with the entries.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import stat
import sys
import time
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .core import LinearPHSystem
from .coupling import CoupledNetwork, CouplingSpec, LinearPortRelation

#: documents below this many bytes are never cached: in a warm process a
#: lookup and a hit (0.14 ms at 4.5 KB) cost less than the parse (0.26 ms),
#: but a one-shot command pays about 5 ms at its first key and every store
#: about 1-2 ms whatever its size, which a small document does not win back
MIN_BYTES = 2 ** 16
#: a file whose mtime and ctime are this many ns older than the clock is
#: settled: more than FAT's 2 s mtime and any clock tick
SETTLED_NS = 3 * 10 ** 9
#: bound of the total size of the entries and memos; the least recently
#: used (by mtime, which a hit refreshes) go first
MAX_BYTES = 2 ** 28
#: a temporary file this many seconds old was left by a write that was killed
STALE_S = 600
_SUFFIX = ".entry"
_MEMO = ".memo"
_TMP = ".tmp"
_FIELDS = ("E", "J", "R", "B", "L", "P", "S", "N")
#: the kinds of document: a system document (a system or network) and a
#: trajectory CSV (its float64 table, a row per time step)
SYSTEM, TRAJECTORY = "system", "trajectory"


def directory() -> Path:
    """The cache directory, which need not exist."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "phode")


@functools.cache
def _salt() -> bytes:
    """The digest of what a parse depends on besides the text and the
    integer digit limit: the package's source, Python and NumPy."""
    import hashlib
    h = hashlib.sha256(f"{sys.version}\0{np.__version__}\0".encode())
    for source in sorted(Path(__file__).parent.glob("*.py")):
        code = source.read_bytes()
        h.update(b"%s\0%d\0%s" % (source.name.encode(), len(code), code))
    return h.digest()


def hasher(kind: str):
    """A SHA-256 that has taken the prefix of every ``kind`` key: the salt,
    the digit limit and the kind; None when the package's source cannot be
    read."""
    import hashlib
    try:
        salt = _salt()
    except OSError:
        return None
    h = hashlib.sha256(salt)
    h.update(b"%d\0%s\0" % (getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                             kind.encode()))
    return h


def key_of(data: bytes, kind: str = SYSTEM) -> str | None:
    """The name of the entry of a ``kind`` document's bytes, None when the
    package's source cannot be read."""
    h = hasher(kind)
    if h is None:
        return None
    h.update(data)
    return h.hexdigest()


def memo_of(st: os.stat_result, kind: str, now: int) -> str | None:
    """The name of the memo of a ``kind`` document whose file has the status
    ``st``, None unless it is a regular file of at least ``MIN_BYTES`` whose
    mtime and ctime are ``SETTLED_NS`` older than ``now``, a
    ``time.time_ns()`` taken before the file was opened: the key of the
    status."""
    if not (stat.S_ISREG(st.st_mode) and st.st_size >= MIN_BYTES
            and max(st.st_mtime_ns, st.st_ctime_ns) <= now - SETTLED_NS):
        return None
    return key_of(b"status\0%d\0%d\0%d\0%d\0%d" % (
        st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns), kind)


def _private(folder: Path) -> bool:
    """Whether ``folder`` is a directory of this user's that no group or
    other user may use (no mode bit in 0o077); never on a system without
    user ids."""
    if not hasattr(os, "getuid"):
        return False
    st = folder.stat()
    return stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o077


def has(key: str) -> bool:
    """Whether there is a file of the entry ``key``, whole or not."""
    try:
        return (directory() / (key + _SUFFIX)).is_file()
    except OSError:
        return False


def get(key: str | None, kind: str = SYSTEM):
    """The system or network (``kind`` SYSTEM), with its recorded figures,
    or table (TRAJECTORY) of the entry ``key``, None when ``key`` is None or
    there is no whole entry of it and of that kind in a private cache
    directory.  A hit refreshes the entry's mtime where it can."""
    if key is None:
        return None
    try:
        folder = directory()
        if not _private(folder):
            return None
        path = folder / (key + _SUFFIX)
        with open(path, "rb") as f:
            line = f.readline()
            f.seek(0)
            entry = np.empty(os.fstat(f.fileno()).st_size, np.uint8)
            if f.readinto(entry) != len(entry):
                raise ValueError("entry of another length")
        head = json.loads(line)
        if head["key"] != key or head["kind"] != kind:
            raise ValueError("entry of another key or kind")
        # the matrices are views of the entry's buffer, aligned as its start
        # is: the header line is padded to a multiple of 8 bytes
        start = len(line)
        if start % 8:
            raise ValueError("misaligned entry")
        arrays = []
        for *shape, order in head["arrays"]:
            end = start + 8 * math.prod(shape)
            arrays.append(entry[start:end].view("<f8").reshape(shape, order=order))
            start = end
        if start != len(entry):
            raise ValueError("entry of another length")
        if kind == TRAJECTORY:
            [obj] = arrays              # t, the states, H and the residuals
            if obj.ndim != 2 or obj.shape[1] < 3:
                raise ValueError("entry of another layout")
        else:
            obj = _rebuild(head["subsystems"], head["coupling"], arrays)
            # recorded figures stand in for the checks; a null leaves them to the load
            for sub, fig in zip(_systems(obj), head["structure"], strict=True):
                if fig is not None:
                    if [type(v) for v in fig] != [bool, float] * 3:
                        raise ValueError("entry of another layout")
                    vars(sub)["structure"] = tuple(fig), True   # the cached_property's slot
    except (OSError, ValueError, LookupError, TypeError):
        return None
    with contextlib.suppress(OSError):      # a read-only cache keeps its order
        os.utime(path)
    return obj


def recall(memo: str | None, kind: str = SYSTEM):
    """``get`` of the key that the memo ``memo`` (see ``memo_of``) holds,
    None when ``memo`` is None or names no memo.  A hit refreshes the
    memo's mtime where it can."""
    if memo is None:
        return None
    path = directory() / (memo + _MEMO)
    try:
        with open(path, "rb") as f:
            key = f.read(65)
    except OSError:
        return None
    if len(key) != 64 or key.strip(b"0123456789abcdef"):
        return None
    obj = get(key.decode(), kind)           # which refuses a directory that is not private
    if obj is not None:
        with contextlib.suppress(OSError):
            os.utime(path)
    return obj


def remember(memo: str | None, key: str | None):
    """Record ``key`` in the memo ``memo`` (nothing when either is None),
    through a temporary file.  The directory is not scanned: the next
    ``put`` counts the memo with the entries it may delete."""
    if memo is not None and key is not None:
        _replace(directory(), memo, _MEMO, [key.encode()])


def _systems(obj) -> tuple:
    return obj.subsystems if isinstance(obj, CoupledNetwork) else (obj,)


def _rebuild(subsystems: int | None, coupling: str | None, arrays: list):
    """The system (``subsystems`` None) or network of the matrices ``arrays``,
    in the order of ``_flatten``."""
    n_arrays = 8 if subsystems is None else 9 * subsystems + (coupling == "relation") + 1
    if len(arrays) != n_arrays:
        raise ValueError("entry of another layout")
    it = iter(arrays)
    if subsystems is None:
        return LinearPHSystem(*it)
    subs = tuple(LinearPHSystem(*islice(it, 8)) for _ in range(subsystems))
    ports = tuple(islice(it, subsystems))
    spec = LinearPortRelation(ports, *it) if coupling == "relation" else CouplingSpec(ports, *it)
    return CoupledNetwork(subs, spec)


def _flatten(obj) -> tuple:
    """The header fields and arrays of a table, system or network: a
    table's kind and the table; a system's kind, None, None, its recorded
    figures (see ``_recorded``) and its eight matrices; a network's kind,
    subsystem count, "relation" or "spec" and its subsystems' figures, and
    the subsystems' matrices, then the port matrices and C, or M and N."""
    if isinstance(obj, np.ndarray):
        return {"kind": TRAJECTORY}, [obj]
    fields = {"kind": SYSTEM, "structure": [_recorded(s) for s in _systems(obj)]}
    if isinstance(obj, LinearPHSystem):
        return ({**fields, "subsystems": None, "coupling": None},
                [getattr(obj, k) for k in _FIELDS])
    c = obj.coupling
    tail = [c.M, c.N] if isinstance(c, LinearPortRelation) else [c.C]
    arrays = [getattr(s, k) for s in obj.subsystems for k in _FIELDS]
    return ({**fields, "subsystems": len(obj.subsystems),
             "coupling": "relation" if len(tail) == 2 else "spec"},
            arrays + list(c.port_matrices) + tail)


def _recorded(sys: LinearPHSystem) -> list | None:
    """The six figures of ``sys.structure`` when every verdict is decisive,
    else None; None too for non-finite coefficients, refused at each load."""
    try:
        figures, decisive = sys.structure
    except ValueError:
        return None
    return list(figures) if decisive else None


def put(key: str | None, obj):
    """Store the entry ``key`` of ``obj``, a system, network or table of
    float64 values (nothing when ``key`` is None), through a temporary
    file, then delete the least recently used entries beyond ``MAX_BYTES``."""
    if key is None:
        return
    fields, arrays = _flatten(obj)
    # an array that is Fortran-contiguous only is stored, and rebuilt, in that order
    orders = ["F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"
              for a in arrays]
    head = {"key": key, **fields,
            "arrays": [[*a.shape, order] for a, order in zip(arrays, orders)]}
    line = json.dumps(head).encode()
    line += b" " * (-(len(line) + 1) % 8) + b"\n"
    chunks = chain([line], (a.astype("<f8", copy=False).tobytes(order)
                            for a, order in zip(arrays, orders)))
    folder = directory()
    if _replace(folder, key, _SUFFIX, chunks):
        with contextlib.suppress(OSError):
            _evict(folder)


def _replace(folder: Path, stem: str, suffix: str, chunks) -> bool:
    """Write the byte strings ``chunks`` to the file ``stem + suffix`` of
    ``folder``, made 0o700 when absent, through a new temporary file moved
    into place; whether it was written, never in a directory that is not
    private.  The temporary file goes whatever stops the write, an
    interrupt too."""
    tmp = folder / f".{stem}.{os.getpid()}{_TMP}"
    try:
        folder.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(folder):
            return False
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW, 0o600)
    except OSError:
        return False
    try:
        with open(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, folder / (stem + suffix))
        return True
    except OSError:
        return False
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _evict(folder: Path):
    """Delete the least recently used entries and memos of ``folder`` (the
    oldest by mtime, which a hit refreshes) until the rest hold at most
    ``MAX_BYTES``, and every temporary file older than ``STALE_S``."""
    entries = []
    stale = time.time_ns() - STALE_S * 10 ** 9
    with os.scandir(folder) as it:
        for e in it:
            if not e.is_file(follow_symlinks=False):
                continue
            st = e.stat(follow_symlinks=False)
            if e.name.endswith((_SUFFIX, _MEMO)):
                entries.append((st.st_mtime_ns, e.name, st.st_size))
            elif e.name.endswith(_TMP) and st.st_mtime_ns < stale:
                (folder / e.name).unlink(missing_ok=True)
    total = sum(size for *_, size in entries)
    for _, name, size in sorted(entries):
        if total <= MAX_BYTES:
            break
        (folder / name).unlink(missing_ok=True)
        total -= size
