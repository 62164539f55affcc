"""Public results on their support, and the public surface.

eval_rmatrix, eval_dlambda, cdybe_residual and extract_residue return a
Tensor2 or Tensor3 that holds only the entries the library computed.  Its
.data is the dense array a scatter of those entries gives, and its linear
operations act as the dense operations do.
"""

import inspect
import tracemalloc

import numpy as np
import pytest

import dynr
from dynr import (
    AlgebraMismatch,
    CartanVector,
    GaugeRecord,
    RMatrixSpec,
    Tensor2,
    Tensor3,
    UnsupportedType,
    build_root_system,
    build_simple_lie_algebra,
    cdybe_residual,
    eval_dlambda,
    eval_rmatrix,
    extract_residue,
    gauge_apply,
    rmatrix,
    verifier,
)

_ALGEBRAS = [("A", 2), ("G", 2), ("B", 3)]
_ZS = (0.21 - 0.3j, -0.14 - 0.1j, 0.33 + 0.05j)


def _algebra(series, rank):
    return build_simple_lie_algebra(build_root_system(series, rank))


def _specs(g):
    """The six families and one gauged stack of every gauge kind."""
    rs, rank = g.root_system, g.rank
    full = tuple(range(rs.n_roots))
    c = np.zeros((rank, rank), dtype=complex)
    c[0, 1], c[1, 0] = 0.4 + 0.1j, -0.4 - 0.1j
    q = 0.3 * np.eye(rank) + 0.1 * (np.ones((rank, rank)) - np.eye(rank))
    gauged = RMatrixSpec(algebra=g, family="EllipticSpectral", tau=2j)
    for rec in (
        GaugeRecord(kind=1, c_matrix=c),
        GaugeRecord(kind=2, psi=(q, 0.15 * np.ones(rank))),
        GaugeRecord(kind=3, shift=CartanVector.of(0.1 * np.arange(1, rank + 1))),
        GaugeRecord(kind=4, scale=(0.8, 1.6)),
    ):
        gauged = gauge_apply(gauged, rec)
    return [
        RMatrixSpec(algebra=g, family="RationalConstant", X=full),
        RMatrixSpec(algebra=g, family="TrigCotanh", eps=2.0),
        RMatrixSpec(algebra=g, family="TrigDegenerate", eps=1.0, X=rs.simple_roots[:1]),
        RMatrixSpec(algebra=g, family="EllipticSpectral", tau=2j),
        RMatrixSpec(algebra=g, family="TrigSpectral", X=rs.simple_roots),
        RMatrixSpec(algebra=g, family="RationalSpectral", X=full),
        gauged,
    ]


def _point(g):
    return CartanVector.of(0.37 - 0.21j + 0.13 * np.arange(g.rank) * (1 + 0.7j))


def _scatter(g, legs, index, values):
    """The dense array with values at the multi-index (legs arrays) index."""
    out = np.zeros((g.dim,) * legs, dtype=complex)
    out[index] = values
    return out


def _dense_results(spec, lam):
    """(public result, dense scatter of the record or plan vector it holds)."""
    g = spec.algebra
    legs = rmatrix._legs(g)
    z = 0.31 - 0.17j if spec.is_spectral else None
    zs = _ZS if spec.is_spectral else None
    rec = rmatrix._record(spec, lam.as_array(), z, True)
    w3 = np.unravel_index(verifier._residual_plan(g).w3, (g.dim,) * 3)
    out = [
        (eval_rmatrix(spec, lam, z), _scatter(g, 2, legs, rec.v)),
        (eval_dlambda(spec, lam, z), _scatter(g, 3, (slice(g.rank),) + tuple(leg[g.rank**2 :] for leg in legs), rec.d)),
        (cdybe_residual(spec, lam, zs), _scatter(g, 3, w3, verifier._residual(spec, lam.as_array(), zs))),
    ]
    if spec.is_spectral:
        zj = verifier._contour(verifier._residue_radius(spec))
        acc = verifier._residue(g, zj, rmatrix._record(spec, lam.as_array(), zj).v)[0]
        out.append((extract_residue(spec, lam)[0], _scatter(g, 2, legs, acc)))
    return out


@pytest.mark.parametrize("series, rank", _ALGEBRAS)
def test_results_densify_to_the_scatter_of_their_vector(series, rank):
    """.data of each public result is the dense scatter of the record or
    plan vector it holds: same shape, dtype and entries; norm() is the
    dense sup norm bit for bit."""
    g = _algebra(series, rank)
    lam = _point(g)
    for spec in _specs(g):
        for tensor, want in _dense_results(spec, lam):
            got = tensor.data
            assert (got.shape, got.dtype) == (want.shape, want.dtype), spec.family
            assert np.array_equal(got, want), spec.family
            assert tensor.norm() == float(np.max(np.abs(want))), spec.family
            assert len(tensor.values) < want.size  # kept on its support, not dense


@pytest.mark.parametrize("series, rank", _ALGEBRAS)
def test_linear_operations_across_supports_equal_the_dense_ones(series, rank):
    """+ and - between tensors of different supports, and scale, equal the
    dense operations entry for entry; so do they between a support tensor
    and one built from a dense array."""
    g = _algebra(series, rank)
    lam = _point(g)
    rng = np.random.default_rng(rank)
    dense2 = Tensor2(g, rng.normal(size=(g.dim,) * 2) + 1j * rng.normal(size=(g.dim,) * 2))
    dense3 = Tensor3(g, rng.normal(size=(g.dim,) * 3) + 1j * rng.normal(size=(g.dim,) * 3))
    for spec in _specs(g):
        z = 0.31 - 0.17j if spec.is_spectral else None
        d = eval_dlambda(spec, lam, z)
        w = cdybe_residual(spec, lam, _ZS if spec.is_spectral else None)
        r = eval_rmatrix(spec, lam, z)
        for a, b in ((d, w), (w, d), (dense3, w), (d, dense3), (r, dense2), (dense2, r), (r, r)):
            assert np.array_equal((a + b).data, a.data + b.data), spec.family
            assert np.array_equal((a - b).data, a.data - b.data), spec.family
            assert (a - b).norm() == float(np.max(np.abs(a.data - b.data))), spec.family
        assert np.array_equal(w.scale(0.3 - 1.1j).data, (0.3 - 1.1j) * w.data)


def test_dense_constructor_keeps_its_shape_check_and_full_support():
    g = _algebra("A", 2)
    data = np.arange(g.dim**2).reshape(g.dim, g.dim) * (1 - 1j)
    t = Tensor2(g, data)
    assert np.array_equal(t.index, np.arange(g.dim**2))
    assert np.array_equal(t.data, data) and t.data.dtype == complex
    with pytest.raises(UnsupportedType):
        Tensor2(g, np.zeros((g.dim,) * 3))
    with pytest.raises(UnsupportedType):
        Tensor3(g, np.zeros((g.dim,) * 2))
    with pytest.raises(AttributeError):
        t.data = data  # .data is built from the support, never stored
    with pytest.raises(AlgebraMismatch):
        t + Tensor2(_algebra("A", 2), data)
    with pytest.raises(UnsupportedType):
        Tensor3(g, np.zeros((g.dim,) * 3)) + t


def test_e7_residual_stays_on_its_support_in_memory():
    """One E7 cdybe_residual call (its residual plan already built) peaks
    under 8 MiB of tracemalloc; scattered into dim^3 it took 36 MiB."""
    g = _algebra("E", 7)
    spec = RMatrixSpec(algebra=g, family="TrigCotanh", eps=2.0)
    lam = _point(g)
    verifier._residual_plan(g)
    tracemalloc.start()
    try:
        cdybe_residual(spec, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


_PUBLIC = [
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
    "NumericFailure",
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


def test_public_surface():
    """The package exports what a command or a campaign runs: the scalar
    identities, span_closure and the finite-difference mode live in the
    test oracle."""
    assert dynr.__all__ == _PUBLIC
    for name in ("check_phi_triangle", "span_closure", "RootSumNonzero"):
        assert not hasattr(dynr, name)
    for name in ("check_phi_triangle", "phi_ode_residual", "addition_identity_residual"):
        assert not hasattr(verifier, name)
    for fn in (eval_dlambda, cdybe_residual):
        assert not {"mode", "fd_step"} & set(inspect.signature(fn).parameters)
    assert list(inspect.signature(rmatrix._record).parameters) == ["spec", "lam", "z", "want_d"]


def test_public_names_are_their_layers_objects():
    """Every name of __all__, loaded with the package or on first use, is
    the object of the layer that defines it."""
    for name in _PUBLIC[:-1]:  # all but __version__
        value = getattr(dynr, name)
        home = "dynr.rmatrix" if name in ("FAMILIES", "SPECTRAL_FAMILIES") else value.__module__
        layer = getattr(dynr, home.removeprefix("dynr."))
        assert vars(layer)[name] is value, name


def test_layer_table_is_the_only_list_of_public_names():
    """_LAYER_NAMES lists each public name once, and __all__ is its names
    plus __version__."""
    names = [name for row in dynr._LAYER_NAMES.values() for name in row]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(set(dynr.__all__) - {"__version__"})
    assert len(dynr.__all__) == len(set(dynr.__all__))


def test_star_import_and_dir_cover_the_public_surface():
    namespace = {}
    exec("from dynr import *", namespace)
    assert set(_PUBLIC) <= set(namespace)
    assert all(namespace[name] is getattr(dynr, name) for name in _PUBLIC)
    assert set(_PUBLIC) <= set(dir(dynr))
