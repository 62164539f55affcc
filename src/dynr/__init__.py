"""Dynamical r-matrix construction and verification toolkit.

_LAYER_NAMES is the package surface: each public name, under the layer
that defines it.  No layer loads with the package, so ``import dynr``
loads no numpy.  Each layer loads the first time one of its names (or the
layer itself, ``dynr.verifier``) is read (PEP 562); an algebra build loads
``lie_core`` and ``errors`` and nothing else.  Each name resolves on its
first read and is then kept in the package namespace.
"""

__version__ = "0.1.0"

_LAYER_NAMES = {
    "errors": (
        "AlgebraMismatch", "ConstructionFailure", "ConvergenceFailure", "DynrError", "NonFiniteValue",
        "NumericFailure", "PoleProximity", "PropertyViolated", "SamplingExhausted", "SearchExhausted",
        "SpecInvalid", "SubalgebraInvalid", "TooLarge", "UnsupportedType",
    ),
    "lie_core": (
        "CartanVector", "RootSystemData", "SimpleLieAlgebra", "build_root_system",
        "build_simple_lie_algebra", "fundamental_weights",
    ),
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
# each public name -> the layer that defines it; a layer name maps to itself
_LAYER_OF = {name: layer for layer, names in _LAYER_NAMES.items() for name in (layer, *names)}

__all__ = sorted(name for names in _LAYER_NAMES.values() for name in names) + ["__version__"]


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
