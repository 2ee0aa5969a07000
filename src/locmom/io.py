"""Deterministic serialization: CSV and JSON with fixed float formatting,
and the compact binary layout for distributions.

CSV: '.' decimal, ',' separator, header row always present, floats at 17
significant digits, so identical inputs yield byte-identical files.  A CSV
writer formats a block of rows (a profile, a q row, a snapshot) by one %
format and writes it to its file, so it holds one block's text at a time;
profile_json builds its text whole.

Binary distribution layout (little-endian):
    bytes  0..15   kind, ASCII, null-padded ("weyl_wigner", "margenau_hill"
                   or "classical")
    bytes 16..23   n as uint64
    bytes 24..47   dq, dp, hbar as three float64
    bytes 48..     n*n float64 cell values, row-major (q rows, ascending p)
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import struct
from functools import partial
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from .errors import ConfigError
from .moments import LocalProfile
from .phasespace import QuasiDistribution

_HEADER = struct.Struct("<16sQddd")


def fmt_column(values) -> list[str]:
    """Each value at 17 significant digits, in one pass over a Python list
    (the same bytes as formatting each element, at half the cost)."""
    return list(map("%.17g".__mod__, np.asarray(values, dtype=float).tolist()))


def _write_block(fh, lead: str, lines: Iterable[str], values) -> None:
    """Write lead + line for each of lines, the %.17g slot of each filled by
    its entry of values (lines end in newlines; any other % is written %%)."""
    fh.write((lead + lead.join(lines)) % tuple(values.tolist()))


def profile_csv(profiles: Iterable[LocalProfile], fh) -> None:
    """Write the long-format CSV with columns q, value, mask, definition,
    order to the text file fh, a profile at a time."""
    fh.write("q,value,mask,definition,order\n")
    for prof in profiles:
        tail = (",%s,%s\n" % (prof.definition, prof.order)).replace("%", "%%")
        # a generator, so that the lines live only while they are joined
        _write_block(fh, "", ("%.17g,%%.17g,%d%s" % (q, m, tail)
                              for q, m in zip(prof.profile.grid.q.tolist(),
                                              prof.profile.mask.tolist())),
                     prof.profile.values)


def profile_json(profiles: Iterable[LocalProfile], fh) -> None:
    """Write the JSON list of {definition, order, q, value, mask} to fh."""
    fh.write(json_text([{"definition": prof.definition,
                         "order": str(prof.order),
                         "q": fmt_column(prof.profile.grid.q),
                         "value": fmt_column(prof.profile.values),
                         "mask": prof.profile.mask.astype(int).tolist()}
                        for prof in profiles]))


def distribution_csv(dist: QuasiDistribution, fh) -> None:
    """Write the dense CSV q, p, value (q-major, ascending p) to fh."""
    fh.write("q,p,value\n")
    lines = ["%.17g,%%.17g\n" % p for p in dist.pgrid.tolist()]
    for q, row in zip(dist.grid.q.tolist(), dist.values):
        _write_block(fh, "%.17g," % q, lines, row)


def distribution_binary(dist: QuasiDistribution, fh) -> None:
    """Write the binary layout to the binary file fh: the header, then
    the lattice's own buffer (a copy only if it is not contiguous <f8)."""
    kind_bytes = dist.kind.encode("ascii")
    if len(kind_bytes) > 16:
        raise ConfigError("kind %r does not fit the 16-byte header field"
                          % dist.kind)
    grid = dist.grid
    fh.write(_HEADER.pack(kind_bytes.ljust(16, b"\0"), grid.n,
                          grid.dq, dist.dp, grid.hbar))
    fh.write(np.ascontiguousarray(dist.values, dtype="<f8").ravel())


def read_distribution_binary(blob: bytes):
    """Inverse of distribution_binary; returns (kind, n, dq, dp, hbar, values).

    Raises ConfigError on a truncated header, a kind field that is not
    ASCII or a body that is not 8*n*n bytes."""
    if len(blob) < _HEADER.size:
        raise ConfigError("distribution header truncated: %d of %d bytes"
                          % (len(blob), _HEADER.size))
    kind_raw, n, dq, dp, hbar = _HEADER.unpack_from(blob)
    try:
        kind = kind_raw.rstrip(b"\0").decode("ascii")
    except UnicodeDecodeError:
        raise ConfigError("distribution kind field is not ASCII: %r"
                          % kind_raw)
    body = len(blob) - _HEADER.size
    if body != 8 * n * n:
        raise ConfigError("distribution body holds %d bytes, expected "
                          "8*n*n = %d for n = %d" % (body, 8 * n * n, n))
    values = np.frombuffer(blob[_HEADER.size:], dtype="<f8").reshape(n, n)
    return kind, n, dq, dp, hbar, values


def trace_head(label: str, dt: float, grid) -> str:
    """The comment lines that open a trace CSV, recording the potential
    label, dt, hbar and mass, and its column row t, q, value, mask."""
    return ("# potential=%s\n# dt=%.17g\n# hbar=%.17g\n# mass=%.17g\n"
            "t,q,value,mask\n" % (label, dt, grid.hbar, grid.mass))


def trace_csv(grid, times: np.ndarray, values: np.ndarray, masks, fh) -> None:
    """Write the trace CSV lines t, q, value, mask of consecutive snapshots
    to fh: times (T,), values (T, n) rows on the grid and their masks
    (T, n), or None for masks of ones."""
    pairs = [("%.17g,%%.17g,0\n" % q, "%.17g,%%.17g,1\n" % q)
             for q in grid.q.tolist()]
    ones = [one for _, one in pairs]
    for row, t in enumerate(times.tolist()):
        lines = ones if masks is None else [
            pair[m] for pair, m in zip(pairs, masks[row].tolist())]
        _write_block(fh, "%.17g," % t, lines, values[row])


@contextlib.contextmanager
def output_files(paths: list[str], binary: bool = False):
    """Files that become paths only if the block completes: each is a
    new temporary file beside its path, opened before the block runs as
    open(path, "w") would open the path (text in UTF-8 with no newline
    translation, or binary; the mode open gives a new file, or the
    permission bits of the file it replaces), and moved over the file the
    path names at the end.  If the block raises, the temporary files are
    removed and no path is touched.  A path that exists and is not a
    regular file, such as a device or a pipe, is written in place.  A
    path that cannot be opened, written (by the write of the object the
    block gets for it), closed or replaced raises ConfigError naming it."""
    opened = []  # (file, its temporary name, the file it replaces)
    try:
        for path in paths:
            opened.append(_writing(path, _open_beside, path, binary))
        yield [SimpleNamespace(write=partial(_writing, path, fh.write))
               for (fh, _, _), path in zip(opened, paths)]
        for (fh, _, _), path in zip(opened, paths):
            _writing(path, fh.close)
        for (_, name, target), path in zip(opened, paths):
            if target is not None:
                _writing(path, os.replace, name, target)
    finally:
        # a second failure would hide the first and skip the removals
        for fh, name, target in opened:
            with contextlib.suppress(OSError):
                fh.close()
            if target is not None:
                with contextlib.suppress(OSError):
                    os.remove(name)


def _open_beside(path: str, binary: bool) -> tuple:
    """(file, name, target): a new temporary file beside the file path
    names, its name and that file's real path; or, for a path that is
    not a regular file, the path opened in place, the path and None.
    The temporary name is created, never followed or truncated."""
    if os.path.exists(path) and not os.path.isfile(path):
        name, target = path, None
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    else:
        target = os.path.realpath(path)
        name = "%s.%d.tmp" % (target, os.getpid())
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            mode = None
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            if mode is not None:
                os.fchmod(fd, mode)
        except OSError:
            os.close(fd)
            os.remove(name)
            raise
    if binary:
        return os.fdopen(fd, "wb"), name, target
    return os.fdopen(fd, "w", encoding="utf-8", newline=""), name, target


def _writing(path: str, call, *args):
    """call(*args), with an OSError turned into a ConfigError on path."""
    try:
        return call(*args)
    except OSError as exc:
        raise ConfigError("cannot write output file %s: %s"
                          % (path, exc.strerror or exc))


def json_text(payload) -> str:
    """Deterministic JSON: sorted keys, newline-terminated."""
    return json.dumps(payload, sort_keys=True) + "\n"
