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

import json
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


def distribution_binary(dist: QuasiDistribution) -> bytes:
    kind_bytes = dist.kind.encode("ascii")
    if len(kind_bytes) > 16:
        raise ConfigError("kind %r does not fit the 16-byte header field"
                          % dist.kind)
    grid = dist.grid
    header = _HEADER.pack(kind_bytes.ljust(16, b"\0"), grid.n,
                          grid.dq, dist.dp, grid.hbar)
    body = np.ascontiguousarray(dist.values, dtype="<f8").tobytes()
    return header + body


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


def trace_csv(trace, values_per_time: list[np.ndarray],
              masks_per_time: list[np.ndarray]) -> str:
    """Per-observable trace CSV with columns t, q, value, mask, preceded by
    comment lines recording the potential label, dt, hbar and mass."""
    grid = trace.snapshots[0].grid
    dt = trace.times[1] - trace.times[0] if len(trace.times) > 1 else 0.0
    lines = ["# potential=%s" % trace.potential.label,
             "# dt=%s" % fmt(dt),
             "# hbar=%s" % fmt(grid.hbar),
             "# mass=%s" % fmt(grid.mass),
             "t,q,value,mask"]
    q = fmt_column(grid.q)
    for t, vals, mask in zip(fmt_column(trace.times), values_per_time,
                             masks_per_time):
        lines += ["%s,%s,%s,%d" % (t, qj, v, m)
                  for qj, v, m in zip(q, fmt_column(vals), mask.tolist())]
    return "\n".join(lines) + "\n"


def json_text(payload) -> str:
    """Deterministic JSON: sorted keys, newline-terminated."""
    return json.dumps(payload, sort_keys=True) + "\n"
