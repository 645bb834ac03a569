"""coorbitkit: coorbit-space machinery on concrete group models.

Group models (exact Gabor phase space, discretized line, quadrature affine
group), weighted Lebesgue/Wiener amalgam quasi-norms, twisted convolution,
sampling geometry, molecular frame and Riesz constructions with certified dual
systems, convolution-dominated matrices, and the experiment suites exercising
the convolution-relation counterexamples and diagnostics.
"""

__version__ = "0.1.0"

from .amalgam import (
    GridFunction,
    QuasiNormSpec,
    amalgam_norm,
    convolve,
    convolution_relation_check,
    indicator,
    involution,
    lpw_norm,
    maximal_left,
    maximal_right,
    twisted_convolve,
)
from .cdmatrix import (
    CDMatrix,
    matrix_holomorphic,
    minimal_envelope,
    product_with_envelope,
    schur_bounds,
    verify_envelope,
)
from .coorbit import (
    Calibration,
    CoorbitContext,
    SequenceSpaceSpec,
    calibrate_constants,
    coorbit_norm,
    embedding_check,
    extend_operator_check,
    sequence_norm,
    wiener_vs_plain_ratio,
    window_independence_ratio,
)
from .frames import (
    FrameSystem,
    KernelSystem,
    MoleculeCertificate,
    Representation,
    RieszSystem,
    biorthogonal_system,
    boxcar_window,
    build_almost_tight_frame,
    build_riesz_system,
    dual_frame,
    fit_envelope,
    frame_kernel_envelope_check,
    gabor_representation,
    gaussian_window,
    gramian,
    normalize_admissible,
    orbit_envelope,
    orthonormalize,
    parseval_frame,
    rayleigh_extremes,
    voice_transform,
)
from .groups import (
    AffineGridModel,
    CyclicPhaseSpace,
    GroupModel,
    PWeight,
    RealLineModel,
    build_affine_grid,
    build_cyclic_phase_space,
    build_real_line,
    measure_QxQ,
    symmetrize_weight,
    unit_weight,
    validate_p_weight,
)
from .sampling import (
    SampleSet,
    build_cover,
    rel_separation,
)
