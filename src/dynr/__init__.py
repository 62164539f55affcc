"""Dynamical r-matrix construction and verification toolkit.

Only ``errors`` and ``lie_core`` load with the package, which is all an
algebra build needs.  Every other layer loads the first time one of its
names (or the layer itself, ``dynr.verifier``) is read (PEP 562), and the
value is then kept in the package namespace.
"""

from .errors import (
    AlgebraMismatch,
    ConstructionFailure,
    ConvergenceFailure,
    DynrError,
    NonFiniteValue,
    PoleProximity,
    PropertyViolated,
    SamplingExhausted,
    SearchExhausted,
    SpecInvalid,
    SubalgebraInvalid,
    TooLarge,
    UnsupportedType,
)
from .lie_core import (
    CartanVector,
    RootSystemData,
    SimpleLieAlgebra,
    build_root_system,
    build_simple_lie_algebra,
    fundamental_weights,
)

__version__ = "0.1.0"

_LAYER_NAMES = {
    "tensor_alg": ("Tensor2", "Tensor3"),
    "special_fn": ("ThetaParams", "classical_series", "coth_scaled", "rho_fn", "sigma_w", "theta1"),
    "combinatorics": (
        "PolarizationResult", "enumerate_closed_subsets", "find_polarization", "is_closed_subset",
    ),
    "rmatrix": (
        "FAMILIES", "SPECTRAL_FAMILIES", "GaugeRecord", "RMatrixSpec", "effective_coupling",
        "eval_dlambda", "eval_rmatrix", "family_phi", "gauge_apply", "pole_margin",
        "spec_from_json", "spec_to_json",
    ),
    "verifier": (
        "LimitComparison", "LimitSchedule", "SamplePlan", "VerificationReport", "affine_hat_spec",
        "affine_series_check", "cdybe_residual", "check_axioms", "extract_residue",
        "limit_compare", "reduce_pair_check",
    ),
}
# each deferred name -> the layer that defines it; a layer name maps to itself
_LAYER_OF = {name: layer for layer, names in _LAYER_NAMES.items() for name in (layer, *names)}


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import sys

    __import__(f"{__name__}.{layer}")  # an import statement's path, so -X importtime lists the layer
    module = sys.modules[f"{__name__}.{layer}"]
    value = globals()[name] = module if name == layer else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = [
    "AlgebraMismatch",
    "CartanVector",
    "ConstructionFailure",
    "ConvergenceFailure",
    "DynrError",
    "FAMILIES",
    "GaugeRecord",
    "LimitComparison",
    "LimitSchedule",
    "NonFiniteValue",
    "PolarizationResult",
    "PoleProximity",
    "PropertyViolated",
    "RMatrixSpec",
    "RootSystemData",
    "SPECTRAL_FAMILIES",
    "SamplePlan",
    "SamplingExhausted",
    "SearchExhausted",
    "SimpleLieAlgebra",
    "SpecInvalid",
    "SubalgebraInvalid",
    "Tensor2",
    "Tensor3",
    "ThetaParams",
    "TooLarge",
    "UnsupportedType",
    "VerificationReport",
    "affine_hat_spec",
    "affine_series_check",
    "build_root_system",
    "build_simple_lie_algebra",
    "cdybe_residual",
    "check_axioms",
    "classical_series",
    "coth_scaled",
    "effective_coupling",
    "enumerate_closed_subsets",
    "eval_dlambda",
    "eval_rmatrix",
    "extract_residue",
    "family_phi",
    "find_polarization",
    "fundamental_weights",
    "gauge_apply",
    "is_closed_subset",
    "limit_compare",
    "pole_margin",
    "reduce_pair_check",
    "rho_fn",
    "sigma_w",
    "spec_from_json",
    "spec_to_json",
    "theta1",
    "__version__",
]
