"""Analytic test-state factory with closed-form local-moment oracles.

Recipes are small frozen dataclasses with a canonical textual form used by
the CLI, e.g.

    gaussian(s=1.0,k0=2.0,q0=0.0)
    plane_wave(k=0.62831853071795862)
    oscillator(level=1,omega=1.0)
    superposition((1+0j)*gaussian(s=1.0,k0=0.0,q0=-4.0); (1+0j)*gaussian(s=1.0,k0=0.0,q0=4.0))

The Gaussian recipe is

    psi(q) = (2 pi s^2)^(-1/4) exp(-(q-q0)^2/(4 s^2) + i k0 q)

so rho has standard deviation s.  Its local moments have closed forms
(:class:`GaussianOracle`) that anchor most of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (EDGE_DECAY_TOL, GridSpec, Wavefunction, normalize)
from .errors import ConfigError, PreconditionError, check

OSCILLATOR_LEVEL_CAP = 4


@dataclass(frozen=True)
class Gaussian:
    s: float
    k0: float
    q0: float


@dataclass(frozen=True)
class PlaneWave:
    k: float


@dataclass(frozen=True)
class OscillatorEigenstate:
    level: int
    omega: float


@dataclass(frozen=True)
class Superposition:
    branches: tuple  # of (complex coefficient, recipe) pairs


StateRecipe = Gaussian | PlaneWave | OscillatorEigenstate | Superposition


def _is_localized(recipe: StateRecipe) -> bool:
    if isinstance(recipe, PlaneWave):
        return False
    if isinstance(recipe, Superposition):
        return all(_is_localized(r) for _, r in recipe.branches)
    return True


def _hermite(level: int, x: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial H_level via the three-term recurrence."""
    h_prev = np.ones_like(x)
    if level == 0:
        return h_prev
    h = 2.0 * x
    for k in range(1, level):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h


def _amplitude(recipe: StateRecipe, grid: GridSpec) -> np.ndarray:
    q = grid.q
    if isinstance(recipe, Gaussian):
        if not recipe.s > 0:
            raise PreconditionError("gaussian width s must be positive")
        if recipe.s < grid.dq:
            raise PreconditionError(
                "gaussian width s = %g is below the grid spacing dq = %g; "
                "the grid cannot resolve it" % (recipe.s, grid.dq))
        lo, hi = recipe.q0 - 8.0 * recipe.s, recipe.q0 + 8.0 * recipe.s
        if lo < grid.q_min or hi > grid.q_max:
            raise PreconditionError(
                "gaussian does not fit the window: need q0 +/- 8s = "
                "[%g, %g] inside [%g, %g]" % (lo, hi, grid.q_min, grid.q_max))
        return ((2.0 * np.pi * recipe.s ** 2) ** -0.25
                * np.exp(-(q - recipe.q0) ** 2 / (4.0 * recipe.s ** 2)
                         + 1j * recipe.k0 * q))
    if isinstance(recipe, PlaneWave):
        cycles = recipe.k * grid.length / (2.0 * np.pi)
        check("plane wave, distance of k*(q_max-q_min)/(2*pi) = %r from an "
              "integer" % float(cycles), abs(cycles - np.rint(cycles)), 1e-9,
              PreconditionError, hint="k is not commensurate with the grid")
        return np.exp(1j * recipe.k * q) / np.sqrt(grid.length)
    if isinstance(recipe, OscillatorEigenstate):
        if not 0 <= recipe.level <= OSCILLATOR_LEVEL_CAP:
            raise PreconditionError(
                "oscillator level must be in 0..%d" % OSCILLATOR_LEVEL_CAP)
        if not recipe.omega > 0:
            raise PreconditionError("oscillator omega must be positive")
        x = np.sqrt(grid.mass * recipe.omega / grid.hbar) * q
        return (_hermite(recipe.level, x)
                * np.exp(-0.5 * x ** 2)).astype(complex)
    if isinstance(recipe, Superposition):
        if len(recipe.branches) < 2:
            raise PreconditionError("superposition needs at least two branches")
        total = np.zeros(grid.n, dtype=complex)
        for coeff, sub in recipe.branches:
            branch = _amplitude(sub, grid)
            branch = branch / np.sqrt(np.sum(np.abs(branch) ** 2) * grid.dq)
            total = total + complex(coeff) * branch
        return total
    raise ConfigError("unknown recipe type: %r" % (recipe,))


def synthesize(recipe: StateRecipe, grid: GridSpec) -> Wavefunction:
    """Build a normalized Wavefunction, enforcing the edge-decay check for
    localized recipes (amplitude below 1e-12 at both window edges)."""
    psi = normalize(Wavefunction(grid, _amplitude(recipe, grid)))
    if _is_localized(recipe):
        check("edge-decay, |psi| at the window edge",
              max(abs(psi.amp[0]), abs(psi.amp[-1])), EDGE_DECAY_TOL,
              PreconditionError, hint="enlarge the window", strict=True)
    return psi


@dataclass(frozen=True)
class GaussianOracle:
    """Closed-form local moments of a Gaussian state.

    With Q = q - q0:

        pbar(q)          = hbar k0
        second_moment_S  = hbar^2 k0^2 + hbar^2/(2 s^2) - hbar^2 Q^2/(4 s^4)
        variance_C(q)    = hbar^2 Q^2 / (4 s^4)
        variance_S(q)    = hbar^2/(2 s^2) - hbar^2 Q^2/(4 s^4)
        variance_W(q)    = hbar^2/(4 s^2)          (constant)

    so variance_S + variance_C = 2 * variance_W at every q, and
    variance_S turns negative for |Q| > s*sqrt(2).
    """

    s: float
    k0: float
    q0: float
    hbar: float = 1.0

    def rho(self, q):
        q = np.asarray(q, dtype=float)
        return ((2.0 * np.pi * self.s ** 2) ** -0.5
                * np.exp(-(q - self.q0) ** 2 / (2.0 * self.s ** 2)))

    def local_momentum(self, q):
        return np.full_like(np.asarray(q, dtype=float), self.hbar * self.k0)

    def variance_C(self, q):
        q = np.asarray(q, dtype=float)
        return self.hbar ** 2 * (q - self.q0) ** 2 / (4.0 * self.s ** 4)

    def variance_S(self, q):
        return self.hbar ** 2 / (2.0 * self.s ** 2) - self.variance_C(q)

    def variance_W(self, q):
        q = np.asarray(q, dtype=float)
        return np.full_like(q, self.hbar ** 2 / (4.0 * self.s ** 2))

    def second_moment_S(self, q):
        return (self.hbar * self.k0) ** 2 + self.variance_S(q)


def gaussian_oracle(recipe: StateRecipe, hbar: float = 1.0) -> GaussianOracle:
    if not isinstance(recipe, Gaussian):
        raise PreconditionError(
            "gaussian_oracle requires a gaussian recipe, got %s"
            % type(recipe).__name__)
    return GaussianOracle(s=recipe.s, k0=recipe.k0, q0=recipe.q0, hbar=hbar)


# ---------------------------------------------------------------------------
# Canonical textual form


def _fmt(x: float) -> str:
    return repr(float(x))


def recipe_text(recipe: StateRecipe) -> str:
    """Canonical textual form; parse_recipe(recipe_text(r)) == r."""
    if isinstance(recipe, Gaussian):
        return "gaussian(s=%s,k0=%s,q0=%s)" % (
            _fmt(recipe.s), _fmt(recipe.k0), _fmt(recipe.q0))
    if isinstance(recipe, PlaneWave):
        return "plane_wave(k=%s)" % _fmt(recipe.k)
    if isinstance(recipe, OscillatorEigenstate):
        return "oscillator(level=%d,omega=%s)" % (
            recipe.level, _fmt(recipe.omega))
    if isinstance(recipe, Superposition):
        parts = ["%s*%s" % (repr(complex(c)), recipe_text(r))
                 for c, r in recipe.branches]
        return "superposition(%s)" % "; ".join(parts)
    raise ConfigError("unknown recipe type: %r" % (recipe,))


def _split_top_level(text: str, sep: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ConfigError("unbalanced parentheses in recipe: %r" % text)
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ConfigError("unbalanced parentheses in recipe: %r" % text)
    parts.append(text[start:])
    return parts


def _parse_fields(body: str, spec: dict) -> dict:
    out = {}
    for item in _split_top_level(body, ","):
        if "=" not in item:
            raise ConfigError("recipe field %r must look like name=value" % item)
        name, _, raw = item.partition("=")
        name = name.strip()
        if name not in spec:
            raise ConfigError("unknown recipe field %r (expected one of %s)"
                              % (name, ", ".join(spec)))
        try:
            out[name] = spec[name](raw.strip())
        except ValueError as exc:
            raise ConfigError("bad value for recipe field %r: %s" % (name, exc))
        if not np.isfinite(out[name]):
            raise ConfigError("recipe field %r must be finite, got %s"
                              % (name, raw.strip()))
    missing = [k for k in spec if k not in out]
    if missing:
        raise ConfigError("recipe is missing field(s): %s" % ", ".join(missing))
    return out


def parse_recipe(text: str) -> StateRecipe:
    """Parse the canonical textual form (whitespace-tolerant)."""
    text = text.strip()
    head, sep, rest = text.partition("(")
    if not sep or not rest.endswith(")"):
        raise ConfigError("recipe must look like name(...): %r" % text)
    head, body = head.strip(), rest[:-1]
    if head == "gaussian":
        f = _parse_fields(body, {"s": float, "k0": float, "q0": float})
        return Gaussian(**f)
    if head == "plane_wave":
        f = _parse_fields(body, {"k": float})
        return PlaneWave(**f)
    if head == "oscillator":
        f = _parse_fields(body, {"level": int, "omega": float})
        return OscillatorEigenstate(**f)
    if head == "superposition":
        branches = []
        for part in _split_top_level(body, ";"):
            part = part.strip()
            coeff_text, sep, sub = part.partition("*")
            if not sep:
                raise ConfigError(
                    "superposition branch must look like coeff*recipe: %r" % part)
            try:
                coeff = complex(coeff_text.strip())
            except ValueError:
                raise ConfigError("bad complex coefficient %r" % coeff_text.strip())
            if not np.isfinite(coeff):
                raise ConfigError("superposition coefficient %r must be finite"
                                  % coeff_text.strip())
            branches.append((coeff, parse_recipe(sub)))
        return Superposition(branches=tuple(branches))
    raise ConfigError(
        "unknown recipe %r (expected gaussian, plane_wave, oscillator or "
        "superposition)" % head)
