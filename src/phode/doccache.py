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
the kind, the layout of a system or network and the shape and memory order
of each matrix) and then the matrices' float64 values, little-endian; a
hit rebuilds the system or network through the constructors the parser
calls, or the table.  An entry that cannot be read or does not match its
key and kind is a miss, and a cache location that cannot be read or
written leaves every command as it is without one.  So does a directory
that another user owns or that group or others may use at all, and a
system without user ids: the cache is only ever a private one.
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
from itertools import islice
from pathlib import Path

import numpy as np

from .core import LinearPHSystem
from .coupling import CoupledNetwork, CouplingSpec, LinearPortRelation

#: documents below this many bytes parse faster than a lookup takes
MIN_BYTES = 2 ** 16
#: bound of the total size of the entries; the oldest go first
MAX_BYTES = 2 ** 28
#: a temporary file this many seconds old was left by a write that was killed
STALE_S = 600
_SUFFIX = ".entry"
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
    """A SHA-256 object that has taken all of the key of a ``kind`` document
    but its bytes, None when the package's source cannot be read."""
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
    """The system or network (``kind`` SYSTEM) or table (TRAJECTORY) of the
    entry ``key``, None when ``key`` is None or there is no whole entry of
    it and of that kind in a private cache directory."""
    if key is None:
        return None
    try:
        folder = directory()
        if not _private(folder):
            return None
        with open(folder / (key + _SUFFIX), "rb") as f:
            entry = f.read()
        start = entry.index(b"\n") + 1
        head = json.loads(entry[:start])
        if head["key"] != key or head["kind"] != kind:
            raise ValueError("entry of another key or kind")
        arrays = []
        for *shape, order in head["arrays"]:
            count = math.prod(shape)
            a = np.frombuffer(entry, "<f8", count, start).reshape(shape, order=order)
            arrays.append(a.copy(order="K"))
            start += 8 * count
        if start != len(entry):
            raise ValueError("entry of another length")
        if kind == TRAJECTORY:
            [table] = arrays            # t, the states, H and the residuals
            if table.ndim != 2 or table.shape[1] < 3:
                raise ValueError("entry of another layout")
            return table
        return _rebuild(head["subsystems"], head["coupling"], arrays)
    except (OSError, ValueError, LookupError, TypeError):
        return None


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
    table's kind and the table; a system's kind, None, None and its eight
    matrices; a network's kind, subsystem count and "relation" or "spec",
    and the subsystems' matrices, then the port matrices and C, or M and N."""
    if isinstance(obj, np.ndarray):
        return {"kind": TRAJECTORY}, [obj]
    if isinstance(obj, LinearPHSystem):
        return ({"kind": SYSTEM, "subsystems": None, "coupling": None},
                [getattr(obj, k) for k in _FIELDS])
    c = obj.coupling
    tail = [c.M, c.N] if isinstance(c, LinearPortRelation) else [c.C]
    arrays = [getattr(s, k) for s in obj.subsystems for k in _FIELDS]
    return ({"kind": SYSTEM, "subsystems": len(obj.subsystems),
             "coupling": "relation" if len(tail) == 2 else "spec"},
            arrays + list(c.port_matrices) + tail)


def put(key: str | None, obj):
    """Store the entry ``key`` of ``obj``, a system, network or table of
    float64 values (nothing when ``key`` is None), through a temporary
    file, then delete the oldest entries beyond ``MAX_BYTES``."""
    if key is None:
        return
    fields, arrays = _flatten(obj)
    # an array that is Fortran-contiguous only is stored, and rebuilt, in that order
    orders = ["F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"
              for a in arrays]
    head = {"key": key, **fields,
            "arrays": [[*a.shape, order] for a, order in zip(arrays, orders)]}
    folder = directory()
    tmp = folder / f".{key}.{os.getpid()}{_TMP}"
    try:
        folder.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(folder):
            return
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW, 0o600)
    except OSError:
        return
    try:        # the temporary file goes whatever stops the write, an interrupt too
        with open(fd, "wb") as f:
            f.write(json.dumps(head).encode() + b"\n")
            for a, order in zip(arrays, orders):
                f.write(a.astype("<f8", copy=False).tobytes(order))
        os.replace(tmp, folder / (key + _SUFFIX))
        _evict(folder)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _evict(folder: Path):
    """Delete the oldest entries of ``folder`` (by mtime) until the rest
    hold at most ``MAX_BYTES``, and every temporary file older than
    ``STALE_S``."""
    entries = []
    stale = time.time_ns() - STALE_S * 10 ** 9
    with os.scandir(folder) as it:
        for e in it:
            if not e.is_file(follow_symlinks=False):
                continue
            st = e.stat(follow_symlinks=False)
            if e.name.endswith(_SUFFIX):
                entries.append((st.st_mtime_ns, e.name, st.st_size))
            elif e.name.endswith(_TMP) and st.st_mtime_ns < stale:
                (folder / e.name).unlink(missing_ok=True)
    total = sum(size for *_, size in entries)
    for _, name, size in sorted(entries):
        if total <= MAX_BYTES:
            break
        (folder / name).unlink(missing_ok=True)
        total -= size
