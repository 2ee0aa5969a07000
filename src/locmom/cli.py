"""Command-line front end.

Four subcommands: moments, decompose, distribution, evolve.  The observable
exposed on the command line is the momentum; --order selects the local
moment order (1..4) or the tag "variance", and --definition selects the
prescription (S, C, MH, W or all).

Every setting is one field of RunConfig with its default, its check, the
subcommands that read it and its help.  Each subcommand takes --config and
the flags of the settings it reads (`locmom <subcommand> --help`), and
refuses any other flag.  A --config file may hold every field, so one file
serves all four subcommands; flags override it.
Every command is deterministic: identical configuration produces
byte-identical output files (floats at 17 significant digits).

Exit codes: 0 success, 2 configuration error (among them an --out file
that cannot be written), 3 numerical-precondition failure (among them an
n x n transform whose estimated peak memory exceeds its budget), 4
internal self-check failure.  Errors are reported as one machine-readable
JSON line on stderr, and a failing request writes no --out file.

The `locmom` console script and `python -m locmom.cli` both run entry(),
which freezes the objects alive after import out of the garbage
collector's reach and then runs main(); main() alone, for in-process
callers, leaves the collector as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field, fields

from . import classical, dynamics, io, moments, phasespace, states
from .core import Wavefunction, make_grid
from .errors import (ConfigError, LocmomError, PreconditionError,
                     SelfCheckError, check)

DECOMPOSE_RESIDUAL_TOL = 1e-8

_EXIT_CODES = {ConfigError: 2, PreconditionError: 3, SelfCheckError: 4}
_ERROR_KINDS = {2: "config", 3: "precondition", 4: "self-check"}


# A check is (what a value must be, in the words of its error message; a
# predicate).  Predicates see untyped JSON config values as well as typed
# flag values.
def _one_of(*values: str):
    return (", ".join(values[:-1]) + " or " + values[-1],
            lambda v: type(v) is str and v in values)


# The profile commands peak at 0.70-0.79 KB per grid point (tracemalloc,
# n = 2**14..2**16) in `moments --format json`, whose text io.profile_json
# builds whole (0.18-0.21 KB in CSV, which is written a profile at a
# time); the W kernel adds O(n) and one block of phasespace.BLOCK_CELLS / 2
# complex cells.  2**18 points keep that near 0.2 GB, within the 1 GiB
# phasespace.N2_MEMORY_BUDGET.  evolve streams its traces a chunk of
# dynamics.CHUNK_ROWS points at a time, so its peak, O(CHUNK_ROWS + n),
# does not grow with --steps.
GRID_N_MAX = 2 ** 18
_GRID_N = ("an integer at most %d" % GRID_N_MAX,
           lambda v: type(v) is int and v <= GRID_N_MAX)
_COUNT = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
# the exact int/float comparison refuses nan, inf and ints beyond a float
_NUMBER = ("a finite number",
           lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
_POSITIVE = ("a positive finite number", lambda v: _NUMBER[1](v) and v > 0)
_TEXT = ("a string", lambda v: type(v) is str)
_PATH = ("a path or null", lambda v: v is None or type(v) is str)
_MASK_EPS = ("a number in (0, 1]", lambda v: _NUMBER[1](v) and 0 < v <= 1)
_ORDERS = range(1, moments.MOMENT_ORDER_CAP + 1)
_ORDER = ("an integer 1..%d or 'variance'" % _ORDERS[-1],
          lambda v: type(v) in (int, str)
          and v in ("variance", *map(str, _ORDERS), *_ORDERS))

_ALL = ("moments", "decompose", "distribution", "evolve")
_PROFILES = ("moments", "decompose")


def _setting(default, check, commands, help: str):
    """One row of the settings table.  commands names the subcommands that
    read the setting, or maps each to its own check."""
    return field(default=default, metadata={"check": check,
                                            "commands": commands,
                                            "help": help})


def _check_for(setting, command: str | None):
    """The check of a settings field under the command (None: any)."""
    commands = setting.metadata["commands"]
    return (isinstance(commands, dict) and commands.get(command)
            or setting.metadata["check"])


@dataclass(frozen=True)
class RunConfig:
    """The settings table, one field per setting."""
    grid_n: int = _setting(512, _GRID_N, _ALL,
                           "number of grid points; moments holds up to "
                           "about 0.8 KB per point (JSON)")
    q_min: float = _setting(-20.0, _NUMBER, _ALL, "left edge of the window")
    q_max: float = _setting(20.0, _NUMBER, _ALL, "right edge of the window")
    hbar: float = _setting(1.0, _POSITIVE, _ALL, "reduced Planck constant")
    mass: float = _setting(1.0, _POSITIVE, _ALL, "particle mass")
    state: str = _setting("gaussian(s=1.0,k0=2.0,q0=0.0)", _TEXT, _ALL,
                          "state recipe in canonical textual form")
    definition: str = _setting("all", _one_of(*moments.DEFINITIONS, "all"),
                               _PROFILES, "local moment definition")
    order: str = _setting("variance", _ORDER, ("moments",), "moment order")
    format: str = _setting("csv", _one_of("csv", "json", "binary"),
                           {"moments": _one_of("csv", "json"),
                            "distribution": _one_of("csv", "binary")},
                           "output format")
    out: str | None = _setting(None, _PATH, _ALL,
                               "output file, or evolve's file name prefix")
    mask_eps: float = _setting(1e-10, _MASK_EPS, _PROFILES + ("evolve",),
                               "relative rho threshold of the validity mask")
    potential: str = _setting("free", _TEXT, ("evolve",),
                              "free, harmonic:OMEGA or barrier:H,W,C")
    dt: float = _setting(1e-3, _POSITIVE, ("evolve",), "time step")
    steps: int = _setting(100, _COUNT, ("evolve",), "number of time steps")
    stride: int = _setting(1, _COUNT, ("evolve",), "steps between snapshots")
    kind: str = _setting("wigner", _one_of("wigner", "mh", "classical"),
                         ("distribution",), "distribution to emit")

    def canonical(self) -> str:
        """Canonical text; parsing it back yields an identical config."""
        return io.json_text(asdict(self))

    @classmethod
    def from_mapping(cls, data: dict, command: str | None = None
                     ) -> "RunConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError("unknown config field(s): %s"
                              % ", ".join(sorted(unknown)))
        cfg = cls(**data)
        cfg.validate(command)
        return cfg

    def validate(self, command: str | None = None) -> None:
        """Check every field, whether or not the command reads it."""
        for setting in fields(self):
            words, test = _check_for(setting, command)
            value = getattr(self, setting.name)
            if not test(value):
                raise ConfigError("%s must be %s, got %r"
                                  % (setting.name, words, value))


# argparse takes a flag value that starts with "-" for an option unless
# it matches this; its own pattern leaves out the exponent form ("-1.6e1")
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

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
        # flags left out of the command line stay out of the namespace
        p = sub.add_parser(name, help=helptext,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", default=None,
                       help="JSON file of settings; flags override it")
        for setting in fields(RunConfig):
            if name in setting.metadata["commands"]:
                p.add_argument("--" + setting.name.replace("_", "-"),
                               dest=setting.name,
                               type={int: int, float: float}.get(
                                   type(setting.default), str),
                               help="%s (%s)" % (setting.metadata["help"],
                                                 _check_for(setting, name)[0]))
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config file: %s" % exc)
        except ValueError as exc:  # also bad UTF-8 and over-long integers
            raise ConfigError("config file is not valid JSON: %s" % exc)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        data.update(loaded)
    data.update((name, value) for name, value in vars(args).items()
                if name in RunConfig.__dataclass_fields__)
    return RunConfig.from_mapping(data, args.command)


def _setup(cfg: RunConfig):
    grid = make_grid(cfg.grid_n, cfg.q_min, cfg.q_max, cfg.hbar, cfg.mass)
    recipe = states.parse_recipe(cfg.state)
    psi = states.synthesize(recipe, grid)
    return grid, recipe, psi


def _definitions(cfg: RunConfig) -> list[str]:
    return list(moments.DEFINITIONS) if cfg.definition == "all" \
        else [cfg.definition]


@contextlib.contextmanager
def _output(out: str | None):
    """The text file that replaces out when the block completes
    (io.output_files), or stdout if out is None."""
    if out is None:
        yield sys.stdout
    else:
        with io.output_files([out]) as (fh,):
            yield fh


def cmd_moments(cfg: RunConfig) -> int:
    with _output(cfg.out) as fh:
        _, _, psi = _setup(cfg)
        if cfg.order == "variance":
            local, A = moments.local_variance, moments.momentum_power(1)
        else:
            local, A = (moments.local_value,
                        moments.momentum_power(int(cfg.order)))
        write = io.profile_csv if cfg.format == "csv" else io.profile_json
        write([local(psi, A, d, cfg.mask_eps) for d in _definitions(cfg)], fh)
    return 0


def cmd_decompose(cfg: RunConfig) -> int:
    with _output(cfg.out) as fh:
        _, _, psi = _setup(cfg)
        A = moments.momentum_power(1)
        direct = moments.direct_variance(psi, A)
        records = []
        for definition in _definitions(cfg):
            deco = moments.variance_decomposition(psi, A, definition,
                                                  cfg.mask_eps)
            residual = abs(deco.total - direct)
            check("decomposition of definition %s, |sum - direct|"
                  % definition, residual, DECOMPOSE_RESIDUAL_TOL,
                  SelfCheckError, strict=True)
            records.append({"definition": definition,
                            "avg_local_variance": deco.avg_local_variance,
                            "variance_of_local_avg":
                                deco.variance_of_local_avg,
                            "total": deco.total,
                            "direct_total": direct,
                            "residual": residual})
        fh.write(io.json_text(records[0] if len(records) == 1 else records))
    return 0


def cmd_distribution(cfg: RunConfig) -> int:
    binary = cfg.format == "binary"
    with io.output_files([] if cfg.out is None else [cfg.out],
                         binary) as files:
        grid, recipe, psi = _setup(cfg)
        if cfg.kind == "wigner":
            dist = phasespace.wigner_transform(psi)
        elif cfg.kind == "mh":
            dist = phasespace.margenau_hill_transform(psi)
        else:
            dist = classical.wigner_as_classical(recipe, grid, psi)
        write = io.distribution_binary if binary else io.distribution_csv
        for fh in files:
            write(dist, fh)

    min_value, min_q, min_p = dist.min_cell()
    meta = {"kind": dist.kind, "n": grid.n, "dq": grid.dq, "dp": dist.dp,
            "hbar": grid.hbar, "min_value": min_value, "min_q": min_q,
            "min_p": min_p, "out": cfg.out}
    sys.stdout.write(io.json_text(meta))
    return 0


_POTENTIALS = {"harmonic": (dynamics.harmonic_potential, 1),
               "barrier": (dynamics.gaussian_barrier, 3)}


def _parse_potential(text: str, grid) -> dynamics.Potential:
    if text == "free":
        return dynamics.free_potential(grid)
    head, _, rest = text.partition(":")
    build, arity = _POTENTIALS.get(head, (None, 0))
    try:
        params = [float(p) for p in rest.split(",")]
    except ValueError:
        params = []
    if build is None or len(params) != arity or not all(map(math.isfinite,
                                                            params)):
        raise ConfigError("potential must be free, harmonic:OMEGA or "
                          "barrier:H,W,C with finite numbers, got %r" % text)
    return build(grid, *params)


def cmd_evolve(cfg: RunConfig) -> int:
    # first, so that a stride that does not divide the steps exits 2
    # before any work
    run = dynamics.PropagationConfig(cfg.dt, cfg.steps, cfg.stride)
    targets = [] if cfg.out is None else [
        cfg.out + suffix for suffix in ("_rho.csv", "_pbar.csv",
                                        "_report.json")]
    with io.output_files(targets) as files:
        grid, _, psi = _setup(cfg)
        V = _parse_potential(cfg.potential, grid)
        half = dynamics.PropagationConfig(cfg.dt / 2.0, cfg.steps * 2,
                                          cfg.stride)
        for fh in files[:2]:
            fh.write(io.trace_head(V.label, cfg.stride * cfg.dt, grid))

        def emit(times, rho, pbar, own):
            io.trace_csv(grid, times, rho, None, files[0])
            io.trace_csv(grid, times, pbar, own, files[1])

        # the unitarity of both traces, then the residual checks of each
        full, final = dynamics.stream_trace(psi, V, run, cfg.mask_eps,
                                            emit if files else None)
        halved = dynamics.stream_trace(psi, V, half, cfg.mask_eps)[0]
        for reduced in (full, halved):
            if reduced.error is not None:
                raise reduced.error

        cont, euler = full.continuity, full.euler
        cont_half, euler_half = halved.continuity, halved.euler
        report = {"potential": V.label, "dt": cfg.dt, "steps": cfg.steps,
                  "stride": cfg.stride,
                  "continuity_residual": cont,
                  "continuity_residual_half_dt": cont_half,
                  "continuity_ratio": cont / cont_half if cont_half else None,
                  "euler_residual": euler,
                  "euler_residual_half_dt": euler_half,
                  "euler_ratio": euler / euler_half if euler_half else None,
                  "q_mean_initial": dynamics.position_mean(psi),
                  "q_mean_final": dynamics.position_mean(
                      Wavefunction(grid, final)),
                  "norm_drift_max": full.drift}
        for fh in files[2:]:
            fh.write(io.json_text(report))
    sys.stdout.write(io.json_text(report))
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


def entry() -> int:
    """main() for a process that exits when it returns."""
    # The imports leave about 22,000 objects tracked by gc (numpy's most of
    # all); every collection, those at interpreter exit too, would sweep
    # them, at 6-7 ms a pass.  Nothing imported is garbage, so move it
    # all to the permanent generation, which collections skip.
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
