"""Mp(2)-projected entanglement probabilities for coherent states on the
circle (London and coset families) and the cylinder, with Schroedinger-cat
reference computations, series oracles for every closed form, and a sweep
CLI."""

from .cat_compare import (
    CatPairParams,
    DensityMatrix,
    cat_entangled_probability,
    density_matrix_cat,
    density_matrix_mp2,
    purity,
)
from .entangle_circle import (
    CirclePairParams,
    CoefficientMatrix,
    SectorPair,
    closed_form_P,
    closed_form_total,
    coefficient_matrix,
    limit_coincident,
    limit_degenerate,
    limit_orthogonal,
    probability_series,
)
from .entangle_coset import (
    CosetPairParams,
    ZFactors,
    closed_form_coset,
    probability_series_coset,
    z_factors,
)
from .entangle_cylinder import (
    CylinderPairParams,
    coefficient_matrix_cyl,
    degenerate_limit_cyl,
    probability_series_cyl,
)
from .grids import AxisSpec, ProbabilityGrid, SweepSpec, run_sweep
from .grids import TOOL_VERSION as __version__
from .numerics import SeriesValue, log_factorial, theta2, theta3
from .states import (
    CircleLabel,
    CoefficientSequence,
    CosetLabel,
    CylinderLabel,
    Mp2Variable,
    Parity,
    SlotMap,
    cat_projection,
    coset_normalization,
    coset_projection,
    coset_variable,
    mp2_circle_projection,
    mp2_cylinder_projection,
)
from .verify import VerificationReport, verify_all
