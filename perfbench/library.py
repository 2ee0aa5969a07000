"""The `identities` workload: an in-process loop over the library API.

Each case (one state on one grid) runs a fixed sequence of operations; one
operation is one request of the workload.  The first computes the W and
MH transforms and the S, C, W and MH local variances; the Bayes route and
the classical bridge reuse its transforms, as a user computing the
identities side by side would.  The local variances take milliseconds
once the transforms exist; as requests of their own they would put the
median latency on the boundary between two groups of operations of
different cost, where it jumps from run to run.  After each operation the
benchmark checks its results with numpy, outside the timed call.

Run as a worker process by run.py and tracer.py:

    PYTHONPATH=src python3 perfbench/library.py --seed N --seconds S \
        [--setup-only]

It prints READY once `import locmom`, state synthesis and a warm-up case
are done (the workload's set-up), then one JSON line per operation, and
finally a line with the process's peak resident set size.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np

import checks
import workloads

from checks import TOL_IDENTITY, TOL_ORACLE, close, masks_match, on_mask


def _row_variance(F: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Conditional variance of p in each row of a phase-space array (rows
    without weight give nan, which no comparison passes)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        P = F.sum(axis=1)
        m1 = F @ p / P
        return F @ p ** 2 / P - m1 ** 2


class Case:
    """One state on one grid, with the reference the checks compare to."""

    def __init__(self, lm, request: dict):
        spec = request["spec"]
        self.lm = lm
        self.request = request
        self.recipe = lm.parse_recipe(spec["state"])
        self.grid = lm.make_grid(spec["grid_n"], spec["q_min"], spec["q_max"])
        self.psi = lm.synthesize(self.recipe, self.grid)
        _, self.ref_amp, self.dq = checks.reference_state(spec)
        self.rho = np.abs(self.ref_amp) ** 2
        self.mask = self.rho >= checks.MASK_EPS * self.rho.max()
        self.p1, self.p2 = checks.momentum_moments(self.ref_amp, self.dq)
        self.gauss = checks.gaussian_params(spec["state"])
        self.results: dict = {}

    def operations(self):
        ops = ["transforms", "decomposition", "bayes", "kinetic"]
        if self.gauss is not None:
            ops.append("classical")
        return ops

    # Each operation: call the library (timed), then check (untimed).

    def call(self, op: str):
        lm, psi = self.lm, self.psi
        if op == "transforms":
            W = lm.wigner_transform(psi)
            M = lm.margenau_hill_transform(psi)
            p = lm.momentum_power(1)
            return W, M, (lm.local_variance_S(psi, p),
                          lm.local_variance_C(psi, p),
                          lm.phase_space_local_variance(W, psi),
                          lm.phase_space_local_variance(M, psi),
                          lm.variance_difference_term(psi))
        W, M, _ = self.results["transforms"]
        if op == "decomposition":
            p = lm.momentum_power(1)
            return ([lm.variance_decomposition(psi, p, d)
                     for d in ("S", "C", "MH", "W")],
                    lm.direct_variance(psi, p))
        if op == "bayes":
            P = lm.conditional_momentum_S(psi)
            return P, lm.bayes_product(psi, P)
        if op == "kinetic":
            return lm.kinetic_energy_densities(psi)
        if op == "classical":
            density = lm.wigner_as_classical(self.recipe, self.grid)
            return (lm.classical.classical_pipeline_profiles(density, psi),
                    lm.phase_space_local_moment(W, psi, 1))
        raise ValueError(op)

    def check(self, op: str, result) -> list[str]:
        failed = []
        if op == "transforms":
            if not close(self.psi.amp, self.ref_amp, TOL_ORACLE):
                failed.append("states.amplitude")
            for F in result[:2]:
                if not abs(F.values.sum() * self.dq * F.dp - 1.0) < TOL_ORACLE:
                    failed.append("transforms.normalization")
                if not close(F.values.sum(axis=1) * F.dp, self.rho,
                              TOL_ORACLE):
                    failed.append("transforms.q_marginal")
            phi2 = np.fft.fftshift(np.abs(np.fft.fft(self.ref_amp)) ** 2)
            phi2 *= self.dq ** 2 / (2.0 * np.pi)
            if not close(result[1].values.sum(axis=0) * self.dq, phi2,
                          TOL_ORACLE):
                failed.append("transforms.mh_p_marginal")
            # the local variances of S, C, W and MH, from the transforms
            variances = result[2]
            profiles = [r.profile for r in variances[:4]] + [variances[4]]
            vs, vc, vw, vm, term = (r.values for r in profiles)
            m, rho = profiles[2].mask, self.rho
            if not all(masks_match(r.mask, rho) for r in profiles):
                failed.append("variances.mask")
            failed += on_mask("variances.s_equals_mh", lambda k: close(
                vs[k], vm[k], TOL_IDENTITY), m, rho)
            failed += on_mask("variances.difference_relations", lambda k: (
                close(vw[k] - vm[k], term[k], TOL_IDENTITY)
                and close(vw[k] - vc[k], -term[k], TOL_IDENTITY)), m, rho)
            if self.gauss is not None:
                refs = [(v, checks.gaussian_local_variance(d, self.grid.q,
                                                           *self.gauss))
                        for d, v in (("S", vs), ("C", vc), ("W", vw))]
                failed += on_mask("variances.gaussian_oracle", lambda k: all(
                    close(v[k], ref[k], TOL_ORACLE) for v, ref in refs),
                    m, rho)
        elif op == "decomposition":
            decos, direct = result
            if not abs(direct - (self.p2 - self.p1 ** 2)) < TOL_ORACLE:
                failed.append("decomposition.direct_vs_reference")
            if not all(abs(d.total - direct) < TOL_ORACLE for d in decos):
                failed.append("decomposition.total_vs_direct")
        elif op == "bayes":
            P, B = result
            W, M, _ = self.results["transforms"]
            if not close(B.values, M.values, TOL_IDENTITY):
                failed.append("bayes.product_vs_mh")
            failed += on_mask("bayes.row_sums", lambda k: close(
                P[k].sum(axis=1) * M.dp, 1.0, TOL_ORACLE), self.mask, self.rho)
        elif op == "kinetic":
            dens = {k: v.values for k, v in result.items()}
            if not all(abs(v.sum() * self.dq - self.p2 / 2.0) < TOL_ORACLE
                       for v in dens.values()):
                failed.append("kinetic.integrals")
            if not close(dens["W"], 0.5 * (dens["MH"] + dens["C"]),
                          TOL_IDENTITY):
                failed.append("kinetic.w_is_mean")
        elif op == "classical":
            (m1, var), w1 = result
            # the bridge clips the Wigner function's negative cells
            W = self.results["transforms"][0]
            clipped = _row_variance(np.clip(W.values, 0.0, None), W.pgrid)
            if not masks_match(m1.mask, self.rho):
                failed.append("classical.mask")
            failed += on_mask("classical.bridge", lambda k: (
                close(m1.values[k], w1.profile.values[k], TOL_IDENTITY)
                and close(var.values[k], clipped[k], TOL_IDENTITY)),
                m1.mask, self.rho)
        return sorted(set(failed))

    def run(self, op: str, call=None):
        """(latency, failed checks) of one operation; a raised library
        error counts as a failure of that operation.  `call` replaces
        self.call, so the traced run can put a span around the library
        calls alone."""
        call = call or self.call
        t0 = time.perf_counter()
        try:
            result = call(op)
        except self.lm.LocmomError as exc:
            return (time.perf_counter() - t0,
                    ["exception.%s" % type(exc).__name__])
        latency = time.perf_counter() - t0
        self.results[op] = result
        return latency, self.check(op, result)

    def release(self):
        self.results.clear()


def setup(seed: int):
    """The workload's set-up: import, synthesis, one warm-up case."""
    import locmom as lm
    deck = workloads.generate("identities", seed, "")
    cases = [Case(lm, req) for req in deck]
    warm = min(cases, key=lambda c: c.grid.n)
    for op in warm.operations():
        warm.run(op)
    warm.release()
    return cases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    cases = setup(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    busy, passes = 0.0, 0
    while True:
        for case in cases:
            for op in case.operations():
                latency, failed = case.run(op)
                busy += latency
                print(json.dumps({"id": case.request["id"], "op": op,
                                  "latency": latency, "failed": failed}),
                      flush=True)
            case.release()
        passes += 1
        if not workloads.another_pass(busy, passes, args.seconds):
            break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"passes": passes, "peak_rss_mb": rss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
