"""Deterministic serialization: CSV and JSON with fixed float formatting,
and the compact binary layout for distributions.

CSV: '.' decimal, ',' separator, header row always present, floats at 17
significant digits, so identical inputs yield byte-identical files.

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
from typing import Iterable

import numpy as np

from .errors import ConfigError
from .moments import LocalProfile
from .phasespace import QuasiDistribution

_HEADER = struct.Struct("<16sQddd")


def fmt(x: float) -> str:
    return "%.17g" % float(x)


def fmt_column(values) -> list[str]:
    """fmt of each value, in one pass over a Python list (the same bytes
    as calling fmt per element, at half the cost)."""
    return list(map("%.17g".__mod__, np.asarray(values, dtype=float).tolist()))


def profile_csv(profiles: Iterable[LocalProfile]) -> str:
    """Long-format CSV with columns q, value, mask, definition, order."""
    lines = ["q,value,mask,definition,order"]
    for prof in profiles:
        tail = ",%s,%s" % (prof.definition, prof.order)
        lines += ["%s,%s,%d%s" % (q, v, m, tail)
                  for q, v, m in zip(fmt_column(prof.profile.grid.q),
                                     fmt_column(prof.profile.values),
                                     prof.profile.mask.tolist())]
    return "\n".join(lines) + "\n"


def profile_json(profiles: Iterable[LocalProfile]) -> str:
    """JSON list of {definition, order, q, value, mask}, one per profile."""
    return json_text([{"definition": prof.definition,
                       "order": str(prof.order),
                       "q": fmt_column(prof.profile.grid.q),
                       "value": fmt_column(prof.profile.values),
                       "mask": prof.profile.mask.astype(int).tolist()}
                      for prof in profiles])


def distribution_csv(dist: QuasiDistribution) -> str:
    """Dense CSV with columns q, p, value (q-major, ascending p)."""
    lines = ["q,p,value"]
    p = fmt_column(dist.pgrid)
    for q, row in zip(fmt_column(dist.grid.q), dist.values):
        lines += ["%s,%s,%s" % (q, pk, v) for pk, v in zip(p, fmt_column(row))]
    return "\n".join(lines) + "\n"


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
    return "".join(line + "\n" for line in (
        "# potential=%s" % label, "# dt=%s" % fmt(dt),
        "# hbar=%s" % fmt(grid.hbar), "# mass=%s" % fmt(grid.mass),
        "t,q,value,mask"))


def trace_csv(grid, times: np.ndarray, values: np.ndarray,
              masks: np.ndarray) -> str:
    """The trace CSV lines t, q, value, mask of consecutive snapshots:
    times (T,), values and masks (T, n) rows on the grid."""
    q = fmt_column(grid.q)
    lines = []
    for t, vals, mask in zip(fmt_column(times), values, masks):
        lines += ["%s,%s,%s,%d\n" % (t, qj, v, m)
                  for qj, v, m in zip(q, fmt_column(vals), mask.tolist())]
    return "".join(lines)


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
    path that cannot be written raises ConfigError naming it."""
    opened = []  # (file, its temporary name, the file it replaces)
    try:
        for path in paths:
            opened.append(_writing(path, _open_beside, path, binary))
        yield [fh for fh, _, _ in opened]
        for (fh, _, _), path in zip(opened, paths):
            _writing(path, fh.close)
        for (_, name, target), path in zip(opened, paths):
            if target is not None:
                _writing(path, os.replace, name, target)
    finally:
        for fh, name, target in opened:
            fh.close()
            if target is not None:
                with contextlib.suppress(FileNotFoundError):
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
