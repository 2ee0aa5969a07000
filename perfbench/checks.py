"""Output checks, computed from outside the program.

The reference state is synthesized here from the recipe text with numpy
alone, so a check never trusts the code it is checking.  Tolerances are
the ones the repository's own tests apply to the same identity:

    1e-8  Gaussian oracle, decomposition totals, marginals, normalization
    1e-7  S = MH, W variance = (S + C)/2, classical bridge, Bayes product
    1e-9  evolve norm drift and initial <q>
    1e-6  free Ehrenfest drift, 1e-5 harmonic Ehrenfest drift

The program's validity mask (rho >= 1e-10 * max rho) is compared with the
one computed from the reference state, and identities between local
quotients (value = density / rho) are checked on the program's whole mask.
Near the mask edge a quotient divides the roundoff of its density by a tiny
rho, so an identity can fail there while it holds in the well-conditioned
core (rho >= CORE_RHO * max rho, about 4.3 standard deviations of a
Gaussian).  Such a failure is named `<check>.edge`: it counts as a failed
request like any other, and the core is only used to tell the two apart.
A failure named without `.edge` is wrong where the identity is well
conditioned.  The repository's tests check centred states, where the whole
mask is well conditioned.

Each check function returns the list of names of the checks that failed
(empty when the output is right).
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

HBAR = 1.0
MASS = 1.0

TOL_ORACLE = 1e-8
TOL_IDENTITY = 1e-7
TOL_DRIFT = 1e-9
MASK_EPS = 1e-10
CORE_RHO = 1e-4

_GAUSSIAN = re.compile(r"^gaussian\(s=([^,]+),k0=([^,]+),q0=([^)]+)\)$")


# ---------------------------------------------------------------------------
# Reference states


def grid_q(spec: dict) -> tuple[np.ndarray, float]:
    n = spec["grid_n"]
    dq = (spec["q_max"] - spec["q_min"]) / n
    return spec["q_min"] + dq * np.arange(n), dq


def _hermite(level: int, x: np.ndarray) -> np.ndarray:
    h_prev, h = np.ones_like(x), 2.0 * x
    if level == 0:
        return h_prev
    for k in range(1, level):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def _amplitude(text: str, q: np.ndarray, dq: float, length: float):
    head, _, body = text.strip().partition("(")
    body = body[:-1]
    if head == "superposition":
        total = np.zeros(q.size, dtype=complex)
        for part in _split_top(body, ";"):
            coeff, _, sub = part.strip().partition("*")
            branch = _amplitude(sub, q, dq, length)
            branch = branch / np.sqrt(np.sum(np.abs(branch) ** 2) * dq)
            total += complex(coeff) * branch
        return total
    fields = dict(item.split("=") for item in body.split(","))
    if head == "gaussian":
        s, k0, q0 = (float(fields[k]) for k in ("s", "k0", "q0"))
        return np.exp(-(q - q0) ** 2 / (4.0 * s * s) + 1j * k0 * q)
    if head == "plane_wave":
        return np.exp(1j * float(fields["k"]) * q) / math.sqrt(length)
    if head == "oscillator":
        x = math.sqrt(MASS * float(fields["omega"]) / HBAR) * q
        return (_hermite(int(fields["level"]), x)
                * np.exp(-0.5 * x * x)).astype(complex)
    raise ValueError("unknown recipe %r" % text)


def reference_state(spec: dict) -> tuple[np.ndarray, np.ndarray, float]:
    """(q, normalized amplitude, dq) for the request's state and grid."""
    q, dq = grid_q(spec)
    amp = _amplitude(spec["state"], q, dq, spec["q_max"] - spec["q_min"])
    return q, amp / np.sqrt(np.sum(np.abs(amp) ** 2) * dq), dq


def momentum_moments(amp: np.ndarray, dq: float) -> tuple[float, float]:
    """<p> and <p^2> from the discrete momentum representation."""
    n = amp.size
    p = 2.0 * math.pi * HBAR * np.fft.fftfreq(n, d=dq)
    prob = np.abs(np.fft.fft(amp)) ** 2
    prob /= prob.sum()
    return float(prob @ p), float(prob @ p ** 2)


def gaussian_params(state: str):
    m = _GAUSSIAN.match(state)
    return tuple(float(g) for g in m.groups()) if m else None


def gaussian_local_moment(definition: str, order: int, q, s, k0, q0):
    """First and second local momentum moments of a Gaussian state (the
    GaussianOracle of locmom.states, written out here).  S, MH and C (which
    the CLI reports as S for a local value) share them; the Wigner function
    is a Gaussian in p with mean hbar k0 and variance hbar^2/(4 s^2) at
    every q."""
    mean = np.full(q.shape, HBAR * k0)
    if order == 1:
        return mean
    spread = gaussian_local_variance("W" if definition == "W" else "S",
                                     q, s, k0, q0)
    return mean ** 2 + spread


def gaussian_local_variance(definition: str, q, s, k0, q0):
    c = HBAR ** 2 * (q - q0) ** 2 / (4.0 * s ** 4)
    if definition == "C":
        return c
    if definition == "W":
        return np.full(q.shape, HBAR ** 2 / (4.0 * s * s))
    return HBAR ** 2 / (2.0 * s * s) - c


# ---------------------------------------------------------------------------
# Per-command checks


def close(a, b, tol) -> bool:
    """Every element of a within tol of b (an array of a's shape, or a
    scalar)."""
    a, b = np.asarray(a), np.asarray(b)
    if b.ndim and a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) < tol))


def masks_match(pmask, rho) -> bool:
    """The program's mask is rho >= MASK_EPS * max(rho); points whose
    reference rho lies within 1e-6 (relative) of the threshold may go
    either way."""
    threshold = MASK_EPS * rho.max()
    sure = np.abs(rho - threshold) > 1e-6 * threshold
    return bool(np.all((np.asarray(pmask, dtype=bool) == (rho >= threshold))
                       [sure]))


def on_mask(name: str, holds, mask, rho) -> list[str]:
    """Checks an identity, holds(region) -> bool, on the program's whole
    mask; a failure that disappears on the core is named `<name>.edge`."""
    if holds(mask):
        return []
    core = mask & (rho >= CORE_RHO * rho.max())
    return [name + ".edge"] if core.any() and holds(core) else [name]


def _parse_profiles(text: str, fmt: str, n: int) -> list[tuple]:
    """[(q, value, mask, order)] per profile block, in output order.

    Blocks are taken by position, not by their definition label: the
    command labels the C block of a numeric-order request "S" (the C local
    value of p^k is the S one), so labels do not identify blocks."""
    if fmt == "json":
        return [(np.array(rec["q"], dtype=float),
                 np.array(rec["value"], dtype=float),
                 np.array(rec["mask"], dtype=int), rec["order"])
                for rec in json.loads(text)]
    lines = text.splitlines()
    if lines[0] != "q,value,mask,definition,order" or (len(lines) - 1) % n:
        raise ValueError("bad profile CSV layout")
    blocks = []
    for start in range(1, len(lines), n):
        rows = [line.split(",") for line in lines[start:start + n]]
        orders = {r[4] for r in rows}
        if len(orders) != 1:
            raise ValueError("mixed orders in one profile")
        blocks.append((np.array([float(r[0]) for r in rows]),
                       np.array([float(r[1]) for r in rows]),
                       np.array([int(r[2]) for r in rows]), orders.pop()))
    return blocks


def check_moments(spec: dict, text: str) -> list[str]:
    wanted = (["S", "C", "MH", "W"] if spec["definition"] == "all"
              else [spec["definition"]])
    try:
        blocks = _parse_profiles(text, spec["format"], spec["grid_n"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return ["moments.parse: %s" % exc]
    if len(blocks) != len(wanted):
        return ["moments.definitions"]
    q, _ = grid_q(spec)
    order = spec["order"]
    failed = []
    mask = np.ones(q.size, dtype=bool)
    for pq, value, pmask, porder in blocks:
        if porder != order:
            failed.append("moments.order_column")
        if not close(pq, q, 1e-9 * max(1.0, abs(spec["q_min"]))):
            failed.append("moments.q_grid")
        if (not np.isin(pmask, (0, 1)).all() or np.any(value[pmask == 0] != 0)
                or not np.isfinite(value).all()):
            failed.append("moments.mask_values")
        mask &= pmask.astype(bool)
    if failed:
        return sorted(set(failed))
    _, amp, _ = reference_state(spec)
    rho = np.abs(amp) ** 2
    if not all(masks_match(block[2], rho) for block in blocks):
        failed.append("moments.mask")
    if not mask.any():
        return failed
    val = {d: block[1] for d, block in zip(wanted, blocks)}
    scale = max(1.0, max(float(np.max(np.abs(v[mask]))) for v in val.values()))
    if "S" in val and "MH" in val:
        failed += on_mask("moments.s_equals_mh", lambda m: close(
            val["S"][m], val["MH"][m], TOL_IDENTITY * scale), mask, rho)
    if order == "variance" and len(val) == 4:
        failed += on_mask("moments.w_is_mean_of_s_and_c", lambda m: close(
            val["W"][m], 0.5 * (val["S"][m] + val["C"][m]), TOL_IDENTITY),
            mask, rho)
    gauss = gaussian_params(spec["state"])
    if gauss is not None and order in ("1", "2", "variance"):
        refs = {}
        for definition in val:
            if order == "variance":
                refs[definition] = gaussian_local_variance(definition, q,
                                                           *gauss)
            else:
                # the C local value of p^k is the S one on the command line
                d = "W" if definition == "W" else "S"
                refs[definition] = gaussian_local_moment(d, int(order), q,
                                                         *gauss)
        failed += on_mask("moments.gaussian_oracle", lambda m: all(
            close(val[d][m], refs[d][m], TOL_ORACLE * scale) for d in val),
            mask, rho)
    return failed


def check_decompose(spec: dict, text: str) -> list[str]:
    try:
        records = json.loads(text)
        records = records if isinstance(records, list) else [records]
        wanted = (["S", "C", "MH", "W"] if spec["definition"] == "all"
                  else [spec["definition"]])
        if [r["definition"] for r in records] != wanted:
            return ["decompose.definitions"]
        parts = [(r["avg_local_variance"], r["variance_of_local_avg"],
                  r["total"], r["direct_total"], r["residual"])
                 for r in records]
    except (ValueError, KeyError, TypeError) as exc:
        return ["decompose.parse: %s" % exc]
    failed = []
    _, amp, dq = reference_state(spec)
    p1, p2 = momentum_moments(amp, dq)
    expected = p2 - p1 * p1
    gauss = gaussian_params(spec["state"])
    for avg, spread, total, direct, residual in parts:
        if abs(avg + spread - total) > 1e-12 * max(1.0, abs(total)):
            failed.append("decompose.sum_of_parts")
        if not abs(total - direct) < 1e-8 or residual != abs(total - direct):
            failed.append("decompose.total_vs_direct")
        if not abs(direct - expected) < 1e-8:
            failed.append("decompose.direct_vs_reference")
        if gauss is not None and not abs(
                total - HBAR ** 2 / (4.0 * gauss[0] ** 2)) < 1e-8:
            failed.append("decompose.gaussian_oracle")
    return sorted(set(failed))


def _count_rows(path: str) -> tuple[int, list[str]]:
    head, rows = [], 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if len(head) < 5:
                head.append(line.rstrip("\n"))
            rows += 1
    return rows, head


def check_evolve(spec: dict, stdout: str) -> list[str]:
    try:
        rep = json.loads(stdout)
        values = [rep[k] for k in (
            "continuity_residual", "continuity_residual_half_dt",
            "continuity_ratio", "euler_residual", "euler_residual_half_dt",
            "euler_ratio", "norm_drift_max", "q_mean_initial", "q_mean_final")]
    except (ValueError, KeyError, TypeError) as exc:
        return ["evolve.parse: %s" % exc]
    failed = []
    if not all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values):
        failed.append("evolve.finite_residuals")
    if not rep["norm_drift_max"] <= TOL_DRIFT:
        failed.append("evolve.norm_drift")
    q, amp, dq = reference_state(spec)
    q_mean = float(np.sum(q * np.abs(amp) ** 2) * dq)
    if not abs(rep["q_mean_initial"] - q_mean) < TOL_DRIFT:
        failed.append("evolve.q_mean_initial")
    p_mean, _ = momentum_moments(amp, dq)
    t = spec["steps"] * spec["dt"]
    potential = spec["potential"]
    if potential == "free":
        expected, tol = q_mean + p_mean * t / MASS, 1e-6
    elif potential.startswith("harmonic:"):
        omega = float(potential.partition(":")[2])
        expected = (q_mean * math.cos(omega * t)
                    + p_mean / (MASS * omega) * math.sin(omega * t))
        tol = 1e-5
    else:
        expected = None
    if expected is not None and not abs(rep["q_mean_final"] - expected) < tol:
        failed.append("evolve.ehrenfest")
    if spec.get("out"):
        base = spec["out"]
        with open(base + "_report.json", "r", encoding="utf-8") as fh:
            if json.load(fh) != rep:
                failed.append("evolve.report_file")
        snapshots = spec["steps"] // spec["stride"] + 1
        for suffix in ("_rho.csv", "_pbar.csv"):
            rows, head = _count_rows(base + suffix)
            if (rows != 5 + snapshots * spec["grid_n"]
                    or head[0] != "# potential=" + _potential_label(potential)
                    or head[4] != "t,q,value,mask"):
                failed.append("evolve.trace_rows")
    return sorted(set(failed))


def _potential_label(text: str) -> str:
    """The program labels potentials with their parsed parameters."""
    if text == "free":
        return "free"
    head, _, rest = text.partition(":")
    params = [repr(float(x)) for x in rest.split(",")]
    return head + ":" + ",".join(params)


def check_error_line(stderr: str, code: int) -> list[str]:
    """A failed request must report exactly one JSON error line."""
    lines = stderr.strip().splitlines()
    try:
        err = json.loads(lines[-1])["error"] if len(lines) == 1 else None
    except (ValueError, KeyError, TypeError):
        err = None
    if err is None or err.get("code") != code or code not in (2, 3, 4):
        return ["error_line"]
    return []


def check_cli(request: dict, code: int, stdout: str, stderr: str) -> list[str]:
    """Checks for one finished CLI request; a non-zero exit is checked for
    its error line only (the exit itself is counted as a failure), and a
    request killed by a signal (the client's timeout) not at all."""
    if code < 0:
        return []
    if code != 0:
        return check_error_line(stderr, code)
    spec = request["spec"]
    command = request["command"]
    try:
        if command in ("moments", "decompose"):
            text = stdout
            if spec.get("out"):
                with open(spec["out"], "r", encoding="utf-8") as fh:
                    text = fh.read()
            check = check_moments if command == "moments" else check_decompose
            return check(spec, text)
        return check_evolve(spec, stdout)
    except OSError as exc:
        return ["%s.output_file: %s" % (command, exc.strerror)]
