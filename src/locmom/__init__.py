"""locmom: local averages and local variances of quantum observables on 1D
periodic grids, the Wigner and Margenau-Hill quasi-distributions behind
them, classical phase-space counterparts, and hydrodynamic consistency
checks under split-operator time evolution."""

from .core import (DEFAULT_MASK_EPS, GridSpec, RealProfile, Wavefunction,
                   apply_momentum_power, integrate, make_grid,
                   momentum_representation, normalize)
from .errors import (ConfigError, LocmomError, PreconditionError,
                     SelfCheckError)
from .moments import (LocalProfile, ObservableSpec, VarianceDecomposition,
                      direct_variance, linear_action, local_value,
                      local_variance, local_variance_C, local_variance_S,
                      moment_densities, momentum_power,
                      phase_space_local_moment, phase_space_local_variance,
                      position_function, variance_decomposition,
                      variance_difference_term)
from .phasespace import (QuasiDistribution, bayes_product,
                         conditional_momentum_S, margenau_hill_transform,
                         wigner_moment_densities, wigner_moment_density_stack,
                         wigner_transform)
from .classical import (classical_variance_decomposition, gaussian_density,
                        momentum_variable, wigner_as_classical)
from .dynamics import (Potential, PropagationConfig, free_potential,
                       gaussian_barrier, harmonic_potential,
                       kinetic_energy_densities, stream_trace)
from .states import (Gaussian, GaussianOracle, OscillatorEigenstate,
                     PlaneWave, StateRecipe, Superposition, gaussian_oracle,
                     parse_recipe, recipe_text, synthesize)

__version__ = "0.1.0"
