"""Command-line front end.

Four subcommands: moments, decompose, distribution, evolve.  The observable
exposed on the command line is the momentum; --order selects the local
moment order (1..4) or the tag "variance", and --definition selects the
prescription (S, C, MH, W or all).

Configuration is a JSON file (--config) plus flag overrides; flags win.
Every command is deterministic: identical configuration produces
byte-identical output files (floats at 17 significant digits).

Exit codes: 0 success, 2 configuration error, 3 numerical-precondition
failure (among them an n x n transform whose estimated peak memory exceeds
its budget), 4 internal self-check failure.  Errors are reported as one
machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import classical, dynamics, io, moments, phasespace, states
from .core import make_grid
from .errors import (ConfigError, LocmomError, PreconditionError,
                     SelfCheckError, check)

DECOMPOSE_RESIDUAL_TOL = 1e-8

_EXIT_CODES = {ConfigError: 2, PreconditionError: 3, SelfCheckError: 4}
_ERROR_KINDS = {2: "config", 3: "precondition", 4: "self-check"}

# Field types checked by RunConfig.validate, since values from a JSON
# config arrive untyped: (fields, what they must be, test).
_FIELD_TYPES = (
    (("grid_n", "steps", "stride"), "an integer",
     lambda v: type(v) is int),
    (("q_min", "q_max", "hbar", "mass", "mask_eps", "dt"), "a finite number",
     lambda v: type(v) in (int, float) and math.isfinite(v)),
    (("state", "definition", "format", "potential", "kind"), "a string",
     lambda v: type(v) is str),
    (("out",), "a string or null", lambda v: v is None or type(v) is str),
    (("order",), "an integer 1..4 or 'variance'",
     lambda v: type(v) in (int, str) and v in ("variance", "1", "2", "3",
                                                "4", 1, 2, 3, 4)),
)


@dataclass(frozen=True)
class RunConfig:
    grid_n: int = 512
    q_min: float = -20.0
    q_max: float = 20.0
    hbar: float = 1.0
    mass: float = 1.0
    state: str = "gaussian(s=1.0,k0=2.0,q0=0.0)"
    definition: str = "all"
    order: str = "variance"
    format: str = "csv"
    out: str | None = None
    mask_eps: float = 1e-10
    potential: str = "free"
    dt: float = 1e-3
    steps: int = 100
    stride: int = 1
    kind: str = "wigner"

    def canonical(self) -> str:
        """Canonical text; parsing it back yields an identical config."""
        return io.json_text(asdict(self))

    @classmethod
    def from_mapping(cls, data: dict) -> "RunConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError("unknown config field(s): %s"
                              % ", ".join(sorted(unknown)))
        merged = {**asdict(cls()), **data}
        cfg = cls(**merged)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for names, what, valid in _FIELD_TYPES:
            for name in names:
                if not valid(getattr(self, name)):
                    raise ConfigError("%s must be %s, got %r"
                                      % (name, what, getattr(self, name)))
        if self.definition not in ("S", "C", "MH", "W", "all"):
            raise ConfigError("definition must be S, C, MH, W or all, got %r"
                              % self.definition)
        if self.format not in ("csv", "json", "binary"):
            raise ConfigError("format must be csv, json or binary, got %r"
                              % self.format)
        if not self.mask_eps > 0:
            raise ConfigError("mask-eps must be positive")
        if self.kind not in ("wigner", "mh", "classical"):
            raise ConfigError("kind must be wigner, mh or classical, got %r"
                              % self.kind)
        for name in ("dt", "hbar", "mass"):
            if not getattr(self, name) > 0:
                raise ConfigError("%s must be positive" % name)
        if self.steps < 1 or self.stride < 1:
            raise ConfigError("steps and stride must be >= 1")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 2
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="locmom", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("moments", "emit local moment/variance profiles as CSV/JSON"),
            ("decompose", "emit the variance decomposition as JSON"),
            ("distribution", "emit a quasi/classical distribution file"),
            ("evolve", "propagate and report hydrodynamic residuals")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; explicit flags override it")
        p.add_argument("--grid-n", type=int, dest="grid_n")
        p.add_argument("--q-min", type=float, dest="q_min")
        p.add_argument("--q-max", type=float, dest="q_max")
        p.add_argument("--hbar", type=float)
        p.add_argument("--mass", type=float)
        p.add_argument("--state", type=str,
                       help="state recipe in canonical textual form")
        p.add_argument("--definition", type=str,
                       choices=["S", "C", "MH", "W", "all"])
        p.add_argument("--order", type=str,
                       help="moment order 1..4 or 'variance'")
        p.add_argument("--format", type=str,
                       choices=["csv", "json", "binary"])
        p.add_argument("--out", type=str)
        p.add_argument("--mask-eps", type=float, dest="mask_eps",
                       help="relative rho threshold for the validity mask")
        p.add_argument("--potential", type=str,
                       help="free | harmonic:OMEGA | barrier:H,W,C")
        p.add_argument("--dt", type=float)
        p.add_argument("--steps", type=int)
        p.add_argument("--stride", type=int)
        if name == "distribution":
            p.add_argument("--kind", type=str,
                           choices=["wigner", "mh", "classical"])
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config file: %s" % exc)
        except json.JSONDecodeError as exc:
            raise ConfigError("config file is not valid JSON: %s" % exc)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        data.update(loaded)
    for field in RunConfig.__dataclass_fields__:
        value = getattr(args, field, None)
        if value is not None:
            data[field] = value
    return RunConfig.from_mapping(data)


def _setup(cfg: RunConfig):
    grid = make_grid(cfg.grid_n, cfg.q_min, cfg.q_max, cfg.hbar, cfg.mass)
    recipe = states.parse_recipe(cfg.state)
    psi = states.synthesize(recipe, grid)
    return grid, recipe, psi


def _definitions(cfg: RunConfig) -> list[str]:
    return list(moments.DEFINITIONS) if cfg.definition == "all" \
        else [cfg.definition]


def _moment_profile(psi, definition: str, order, eps: float):
    if order == "variance":
        return moments.local_variance(psi, moments.momentum_power(1),
                                      definition, eps)
    return moments.local_value(psi, moments.momentum_power(order),
                               definition, eps)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_moments(cfg: RunConfig) -> int:
    if cfg.format == "binary":
        raise ConfigError("moments supports csv or json output")
    _, _, psi = _setup(cfg)
    order = cfg.order if cfg.order == "variance" else int(cfg.order)
    profiles = [_moment_profile(psi, d, order, cfg.mask_eps)
                for d in _definitions(cfg)]
    if cfg.format == "csv":
        text = io.profile_csv(profiles)
    else:
        payload = [{"definition": prof.definition,
                    "order": str(prof.order),
                    "q": [io.fmt(v) for v in prof.profile.grid.q],
                    "value": [io.fmt(v) for v in prof.profile.values],
                    "mask": [int(m) for m in prof.profile.mask]}
                   for prof in profiles]
        text = io.json_text(payload)
    _write_output(text, cfg.out)
    return 0


def cmd_decompose(cfg: RunConfig) -> int:
    _, _, psi = _setup(cfg)
    A = moments.momentum_power(1)
    direct = moments.direct_variance(psi, A)
    records = []
    for definition in _definitions(cfg):
        deco = moments.variance_decomposition(psi, A, definition, cfg.mask_eps)
        residual = abs(deco.total - direct)
        check("decomposition of definition %s, |sum - direct|" % definition,
              residual, DECOMPOSE_RESIDUAL_TOL, SelfCheckError, strict=True)
        records.append({"definition": definition,
                        "avg_local_variance": deco.avg_local_variance,
                        "variance_of_local_avg": deco.variance_of_local_avg,
                        "total": deco.total,
                        "direct_total": direct,
                        "residual": residual})
    payload = records[0] if len(records) == 1 else records
    _write_output(io.json_text(payload), cfg.out)
    return 0


def cmd_distribution(cfg: RunConfig) -> int:
    if cfg.format == "json":
        raise ConfigError("distribution supports csv or binary output")
    grid, recipe, psi = _setup(cfg)
    if cfg.kind == "wigner":
        dist = phasespace.wigner_transform(psi)
    elif cfg.kind == "mh":
        dist = phasespace.margenau_hill_transform(psi)
    else:
        dist = classical.wigner_as_classical(recipe, grid, psi)

    if cfg.out is not None:
        if cfg.format == "csv":
            _write_output(io.distribution_csv(dist), cfg.out)
        else:
            with open(cfg.out, "wb") as fh:
                fh.write(io.distribution_binary(dist))

    min_value, min_q, min_p = dist.min_cell()
    meta = {"kind": dist.kind, "n": grid.n, "dq": grid.dq, "dp": dist.dp,
            "hbar": grid.hbar, "min_value": min_value, "min_q": min_q,
            "min_p": min_p, "out": cfg.out}
    sys.stdout.write(io.json_text(meta))
    return 0


def _parse_potential(text: str, grid) -> dynamics.Potential:
    if text == "free":
        return dynamics.free_potential(grid)
    head, sep, rest = text.partition(":")
    if head == "harmonic" and sep:
        try:
            omega = float(rest)
        except ValueError:
            raise ConfigError("harmonic potential needs a numeric omega, "
                              "got %r" % rest)
        return dynamics.harmonic_potential(grid, omega)
    if head == "barrier" and sep:
        parts = rest.split(",")
        if len(parts) != 3:
            raise ConfigError("barrier potential needs height,width,center")
        try:
            height, width, center = (float(p) for p in parts)
        except ValueError:
            raise ConfigError("barrier parameters must be numeric: %r" % rest)
        return dynamics.gaussian_barrier(grid, height, width, center)
    raise ConfigError("unknown potential %r (expected free, harmonic:OMEGA "
                      "or barrier:H,W,C)" % text)


def cmd_evolve(cfg: RunConfig) -> int:
    grid, _, psi = _setup(cfg)
    V = _parse_potential(cfg.potential, grid)
    run = dynamics.PropagationConfig(cfg.dt, cfg.steps, cfg.stride)
    half = dynamics.PropagationConfig(cfg.dt / 2.0, cfg.steps * 2, cfg.stride)
    trace = dynamics.split_step_propagate(psi, V, run)
    trace_half = dynamics.split_step_propagate(psi, V, half)

    cont, euler = dynamics.hydrodynamic_residuals(trace, cfg.mask_eps)
    cont_half, euler_half = dynamics.hydrodynamic_residuals(trace_half,
                                                            cfg.mask_eps)
    drift = max(abs(s.norm() - 1.0) for s in trace.snapshots)

    report = {"potential": V.label, "dt": cfg.dt, "steps": cfg.steps,
              "stride": cfg.stride,
              "continuity_residual": cont,
              "continuity_residual_half_dt": cont_half,
              "continuity_ratio": cont / cont_half if cont_half else None,
              "euler_residual": euler,
              "euler_residual_half_dt": euler_half,
              "euler_ratio": euler / euler_half if euler_half else None,
              "q_mean_initial": dynamics.position_mean(trace.snapshots[0]),
              "q_mean_final": dynamics.position_mean(trace.snapshots[-1]),
              "norm_drift_max": drift}
    sys.stdout.write(io.json_text(report))

    if cfg.out is not None:
        rho_rows, pbar_rows, masks = [], [], []
        for snap in trace.snapshots:
            prof = moments.local_value_S(snap, moments.momentum_power(1),
                                         cfg.mask_eps)
            rho_rows.append(snap.rho())
            pbar_rows.append(prof.profile.values)
            masks.append(prof.profile.mask)
        full = [np.ones(grid.n, dtype=bool)] * len(trace.snapshots)
        _write_output(io.trace_csv(trace, rho_rows, full), cfg.out + "_rho.csv")
        _write_output(io.trace_csv(trace, pbar_rows, masks),
                      cfg.out + "_pbar.csv")
        _write_output(io.json_text(report), cfg.out + "_report.json")
    return 0


_COMMANDS = {"moments": cmd_moments, "decompose": cmd_decompose,
             "distribution": cmd_distribution, "evolve": cmd_evolve}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg)
    except LocmomError as exc:
        code = _EXIT_CODES.get(type(exc), 4)
        sys.stderr.write(io.json_text(
            {"error": {"code": code, "kind": _ERROR_KINDS[code],
                       "message": str(exc)}}))
        return code


if __name__ == "__main__":
    sys.exit(main())
