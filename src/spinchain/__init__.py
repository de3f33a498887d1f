"""State transfer through disordered modulated XY spin chains.

Exact single-excitation dynamics, disorder ensembles, fidelity scaling
laws, level-spacing statistics, box-counting fractal dimensions of the
fidelity signal, and a second-order perturbative cross-check.
"""

__version__ = "0.1.0"

from .chain import (ChainSpec, DisorderRealization, TridiagonalHamiltonian,
                    build_hamiltonian, clean_hamiltonian, hamiltonian_block,
                    sample_disorder, substream, zero_disorder)
from .evolve import (FidelitySeries, SpectralDecomposition, amplitudes,
                     eigendecompose, ensemble_averages, fidelity_of_amplitude,
                     fidelity_series, transfer_amplitude, transfer_time)
from .fitting import FitResult, ThresholdScaling, crossing_loglinear, power_law_fit
from .levelstats import (SpacingHistogram, SpacingSample, collect_spacings,
                         eta, eta_scan, spacing_histogram)
from .boxcount import (BoxCountCurve, DegenerateSeriesError, TrimResult,
                       WindowSelectionError, box_count, default_box_lengths,
                       dimension_of_series, dimension_scan, fit_dimension,
                       transient_trim)
from .perturbation import (PerturbationCoefficients, compute_coefficients,
                           infidelity_sums, perturbative_fidelity,
                           require_transfer_time)
from .scans import (FidelityPoint, fit_scaling, perturbation_comparison,
                    scan_fidelity)
