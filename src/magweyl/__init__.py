"""Gauge-covariant Weyl calculus in a variable magnetic field.

Quantization of phase-space symbols on truncated grids with the
circulation-phase kernel map, the magnetic star product through kernel
composition, Fourier-Wigner coefficient tables, and the comparison of the
correct and naive momentum couplings.
"""

from .errors import (
    DimensionMismatchError,
    GaugeMismatchError,
    InputError,
    NumericError,
    OffLatticeError,
    ResourceLimitError,
)
from .fields import (
    MagneticField,
    PolynomialMap,
    Quadrature,
    ScalarPotential,
    VectorPotential,
    add_gradient,
    circulation,
    constant_field,
    constant_field_2d,
    field_from_config,
    flux_phase,
    flux_triangle,
    gaussian_field_2d,
    landau_gauge,
    linear_field_2d,
    potential_from_config,
    scalar_from_config,
    segment_phase,
    symmetric_gauge,
    translation_phase,
    transversal_gauge,
    zero_field,
    zero_potential,
)
from .grid import (
    OperatorKernel,
    PhaseSpaceGrid,
    SymbolEvaluator,
    SymbolGrid,
    WaveFunction,
    constant_symbol,
    fourier_config,
    fourier_symplectic,
    gaussian_symbol,
    gaussian_wavefunction,
    kernel_compose,
    kernel_from_symbol,
    momentum_polynomial_symbol,
    symbol_from_kernel,
    x_only_symbol,
)
from .quantize import (
    WeylParams,
    gauge_conjugate,
    magnetic_translation,
    momentum_modulation,
    momentum_operator,
    op_quantize,
    position_operator,
    weyl_apply,
    weyl_matrix,
)
from .moyal import (
    moyal_direct_probe,
    moyal_product,
    product_kernel,
    validate_gauge,
)
from .wigner import (
    fourier_wigner,
    rank_one_kernel,
    rank_one_symbol,
    weyl_span_probe,
)
from .coupling import (
    PolynomialSymbol,
    coupling_discrepancy,
    covariant_coupling,
    minimal_coupling,
    minimal_coupling_evaluator,
)

__version__ = "0.1.0"
