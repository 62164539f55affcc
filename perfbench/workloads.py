"""Seeded generation of the three benchmark workloads.

A workload is a fixed list of operations ("ops"), each with the verdict a
correct program must give.  Everything random is drawn here, from the
workload seed, with the standard library; dynr only ever receives the
generated specs, sample plans and argument vectors.

In-process ops are made in two steps: ``plan(name, seed)`` draws plain
parameters, and ``materialize`` turns them into dynr calls once the
algebras exist, so building the algebras stays in the timed set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

WORKLOADS = ("constant-rank4", "spectral-desk", "cli-session")

# Sample boxes shared by every plan.  The traced run tells lambda draws from
# spectral draws by the box they are taken from.
LAMBDA_BOX = (-2.0, 2.0)
Z_BOX = (-0.6, 0.6)

_CONSTANT_ALGEBRAS = (("B", 3), ("A", 4), ("D", 4))
_SPECTRAL_ALGEBRAS = (("A", 1), ("A", 2), ("G", 2))
CONSTANT_SAMPLES = 2
SPECTRAL_SAMPLES = 4


@dataclass
class Op:
    """One operation of a workload pass.

    In-process ops carry ``call`` (no arguments, returns the API result),
    ``verdict`` (result -> True for PASS) and the verdict ``expect_pass``
    they must give.  CLI ops carry ``argv`` (the arguments after the
    ``dynr`` command), the exit code the README's contract requires, and an
    optional ``check`` on the parsed JSON output.
    """

    name: str
    kind: str
    expect_pass: bool = True
    call: Optional[Callable[[], object]] = None
    verdict: Optional[Callable[[object], bool]] = None
    argv: tuple = ()
    expect_exit: int = 0
    json_out: bool = False
    check: Optional[Callable[[dict], bool]] = None
    fixture: Optional[str] = None  # name of a structure-constant cache dir
    same_stdout_as: Optional[str] = None  # name of an earlier op in the pass


@dataclass
class Workload:
    name: str
    algebras: tuple  # (series, rank) pairs cold-built in set-up
    root_systems: tuple = ()  # (series, rank) pairs whose root system alone is used
    params: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)


def _cvec(rng: random.Random, n: int, scale: float) -> list:
    return [complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(n)]


def plan(name: str, seed: int) -> Workload:
    """Draw the workload's parameters from ``seed``; CLI ops are complete here."""
    rng = random.Random(f"{name}:{seed}")
    if name == "constant-rank4":
        params = {"plan_seed": rng.randrange(1, 2**31), "per_algebra": {}}
        for series, rank in _CONSTANT_ALGEBRAS:
            params["per_algebra"][f"{series}{rank}"] = {
                "eps": rng.uniform(1.5, 2.5),
                "nu": _cvec(rng, rank, 0.3),
                "eps_degenerate": rng.uniform(1.5, 2.5),
                "eps_gauged": rng.uniform(1.5, 2.5),
                "c01": complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2)),
                "shift": _cvec(rng, rank, 0.25),
            }
        return Workload(name, _CONSTANT_ALGEBRAS, params=params)
    if name == "spectral-desk":
        params = {"plan_seed": rng.randrange(1, 2**31), "per_algebra": {}}
        for series, rank in _SPECTRAL_ALGEBRAS:
            params["per_algebra"][f"{series}{rank}"] = {
                "trig_x": rng.randrange(rank),
                "q_diag": rng.uniform(0.1, 0.4),
                "v": [rng.uniform(0.05, 0.25) for _ in range(rank)],
                "scale": (rng.uniform(0.7, 1.0), rng.uniform(1.2, 1.7)),
            }
        params["series_lam"] = complex(rng.uniform(0.2, 0.6), rng.uniform(0.0, 0.3))
        params["series_z"] = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.7, -0.3))
        return Workload(name, _SPECTRAL_ALGEBRAS, params=params)
    if name == "cli-session":
        return _cli_session(rng)
    raise ValueError(f"unknown workload {name!r}")


def _cli_session(rng: random.Random) -> Workload:
    def s() -> str:
        return str(rng.randrange(1, 10**6))

    eps = f"{rng.uniform(1.5, 2.5):.3f}"
    z = f"{rng.uniform(-0.4, 0.4):.3f}{rng.uniform(-0.7, -0.3):+.3f}i"
    ops = [
        Op("verify-A2-trig-cotanh", "cli", argv=(
            "verify", "--algebra", "A2", "--family", "trig-cotanh", "--eps", eps,
            "--seed", s())),
        Op("verify-G2-elliptic-json", "cli", json_out=True,
           check=lambda d: d["passed"] is True and "wall_time" not in d,
           argv=("verify", "--algebra", "G2", "--family", "elliptic-spectral",
                 "--tau", "2i", "--samples", "4", "--seed", s(),
                 "--format", "json", "--no-timing")),
        Op("axioms-A1-rational-spectral", "cli", json_out=True,
           check=lambda d: d["passed"] is True,
           argv=("axioms", "--algebra", "A1", "--family", "rational-spectral",
                 "--X", "full", "--seed", s(), "--format", "json")),
        Op("subsets-B4", "cli", json_out=True, check=lambda d: d["count"] > 0,
           argv=("subsets", "--algebra", "B4", "--format", "json")),
        Op("subsets-F4", "cli", json_out=True, check=lambda d: d["count"] > 0,
           argv=("subsets", "--algebra", "F4", "--format", "json")),
        Op("polarize-A2", "cli", json_out=True, check=lambda d: len(d["positive"]) == 3,
           argv=("polarize", "--algebra", "A2", "--Y", rng.choice(("a1", "a2")),
                 "--format", "json")),
        Op("limits-A2-tau", "cli", json_out=True, check=lambda d: d["passed"] is True,
           argv=("limits", "--algebra", "A2", "--schedule", "tau:4i,6i,8i,10i",
                 "--samples", "4", "--seed", s(), "--format", "json")),
        Op("limits-F4-nu", "cli", json_out=True, check=lambda d: d["passed"] is True,
           argv=("limits", "--algebra", "F4", "--schedule", "nu:20,40", "--X", "a1",
                 "--eps", "2", "--samples", "4", "--seed", s(), "--format", "json")),
        Op("pair-A2", "cli", json_out=True, check=lambda d: d["passed"] is True,
           argv=("pair", "--algebra", "A2", "--l-roots", "a1", "--seed", s(),
                 "--format", "json")),
        Op("series-A1", "cli", json_out=True, check=lambda d: d["passed"] is True,
           argv=("series", "--algebra", "A1", f"--z={z}", "--N", "50",
                 "--samples", "4", "--seed", s(), "--format", "json")),
    ]
    b3 = ("verify", "--algebra", "B3", "--family", "trig-cotanh", "--eps", eps,
          "--samples", "2", "--seed", s(), "--format", "json", "--no-timing")
    ops += [
        Op("verify-B3-cache-write", "cli", json_out=True, fixture="b3",
           check=lambda d: d["passed"] is True, argv=b3),
        Op("verify-B3-cache-read", "cli", json_out=True, fixture="b3",
           same_stdout_as="verify-B3-cache-write",
           check=lambda d: d["passed"] is True, argv=b3),
        # bad inputs: numeric failure, unknown algebra, malformed spec document
        Op("series-real-z", "cli", expect_exit=3,
           argv=("series", "--algebra", "A1", f"--z={rng.uniform(-0.4, 0.4):.3f}")),
        Op("verify-unknown-algebra", "cli", expect_exit=2,
           argv=("verify", "--algebra", "Q7", "--family", "trig-cotanh", "--eps", "2")),
        Op("verify-malformed-spec-json", "cli", expect_exit=2,
           argv=("verify", "--algebra", "A2", "--spec-json", '{"family": "TrigCotanh",')),
    ]
    algebras = (("A", 1), ("A", 2), ("G", 2), ("B", 3), ("F", 4))
    return Workload("cli-session", algebras, root_systems=(("B", 4),), ops=ops)


def materialize(wl: Workload, algebras: dict) -> list:
    """Build the in-process ops of ``wl`` over the given algebras.

    ``algebras`` maps "B3"-style names to built SimpleLieAlgebra objects.
    """
    import dynr

    if wl.name == "constant-rank4":
        return _constant_ops(dynr, wl.params, algebras)
    if wl.name == "spectral-desk":
        return _spectral_ops(dynr, wl.params, algebras)
    return wl.ops


def _passed(report) -> bool:
    return report.passed


def _residual_passed(report) -> bool:
    # A flipped root must fail through the residual itself, so a residual
    # that comes back as zeros reads PASS here and is caught.
    return next(c for c in report.checks if c.name == "cdybe-residual").passed


def _constant_ops(dynr, params: dict, algebras: dict) -> list:
    import numpy as np

    sample_plan = dynr.SamplePlan(seed=params["plan_seed"], count=CONSTANT_SAMPLES,
                            box=LAMBDA_BOX, z_box=Z_BOX)
    ops = []
    for alg_name, p in params["per_algebra"].items():
        g = algebras[alg_name]
        rs = g.root_system
        full = tuple(range(rs.n_roots))
        c = np.zeros((rs.rank, rs.rank), dtype=complex)
        c[0, 1], c[1, 0] = p["c01"], -p["c01"]
        gauged = dynr.RMatrixSpec(algebra=g, family="TrigCotanh", eps=p["eps_gauged"])
        gauged = dynr.gauge_apply(gauged, dynr.GaugeRecord(kind=1, c_matrix=c))
        gauged = dynr.gauge_apply(
            gauged, dynr.GaugeRecord(kind=3, shift=dynr.CartanVector.of(p["shift"])))
        specs = [
            ("TrigCotanh", dynr.RMatrixSpec(algebra=g, family="TrigCotanh", eps=p["eps"])),
            ("RationalConstant-full", dynr.RMatrixSpec(
                algebra=g, family="RationalConstant", X=full,
                nu=dynr.CartanVector.of(p["nu"]))),
            ("TrigDegenerate-a1", dynr.RMatrixSpec(
                algebra=g, family="TrigDegenerate", eps=p["eps_degenerate"],
                X=(rs.simple_roots[0],))),
            ("TrigCotanh-gauge13", gauged),
        ]
        for label, spec in specs:
            ops.append(Op(f"check_axioms:{alg_name}:{label}", "check_axioms",
                          call=_call(dynr, "check_axioms", spec, sample_plan), verdict=_passed))
    # The flipped spec goes on A4 so that, with the B3 pair check, each pass
    # has 5 B3, 5 A4 and 4 D4 ops: the median op then lies inside the A4
    # group instead of on the edge between the B3 and A4 groups.
    a4 = algebras["A4"]
    flipped = dynr.RMatrixSpec(algebra=a4, family="RationalConstant",
                               X=tuple(range(a4.root_system.n_roots)),
                               debug_flip_root=a4.root_system.positive_roots[0],
                               validate=False)
    ops.append(Op("check_axioms:A4:flipped-root", "check_axioms", expect_pass=False,
                  call=_call(dynr, "check_axioms", flipped, sample_plan), verdict=_residual_passed))
    b3 = algebras["B3"]
    rs = b3.root_system
    full = tuple(range(rs.n_roots))
    tilde = dynr.RMatrixSpec(algebra=b3, family="RationalConstant", X=full)
    ops.append(Op("reduce_pair_check:B3:a1", "reduce_pair_check",
                  call=_call(dynr, "reduce_pair_check", tilde, rs.simple_roots[:1], sample_plan),
                  verdict=_passed))
    return ops


def _spectral_ops(dynr, params: dict, algebras: dict) -> list:
    import numpy as np

    sample_plan = dynr.SamplePlan(seed=params["plan_seed"], count=SPECTRAL_SAMPLES,
                            box=LAMBDA_BOX, z_box=Z_BOX)
    ops = []
    for alg_name, p in params["per_algebra"].items():
        g = algebras[alg_name]
        rs = g.root_system
        full = tuple(range(rs.n_roots))
        q = p["q_diag"] * np.eye(rs.rank)
        gauged = dynr.RMatrixSpec(algebra=g, family="EllipticSpectral", tau=2j)
        gauged = dynr.gauge_apply(
            gauged, dynr.GaugeRecord(kind=2, psi=(q, np.array(p["v"], dtype=complex))))
        gauged = dynr.gauge_apply(gauged, dynr.GaugeRecord(kind=4, scale=p["scale"]))
        specs = [
            ("EllipticSpectral-tau-i", dynr.RMatrixSpec(
                algebra=g, family="EllipticSpectral", tau=1j)),
            ("EllipticSpectral-tau-2i", dynr.RMatrixSpec(
                algebra=g, family="EllipticSpectral", tau=2j)),
            ("TrigSpectral", dynr.RMatrixSpec(
                algebra=g, family="TrigSpectral", X=(rs.simple_roots[p["trig_x"]],))),
            ("RationalSpectral-full", dynr.RMatrixSpec(
                algebra=g, family="RationalSpectral", X=full)),
            ("EllipticSpectral-gauge24", gauged),
        ]
        for label, spec in specs:
            ops.append(Op(f"check_axioms:{alg_name}:{label}", "check_axioms",
                          call=_call(dynr, "check_axioms", spec, sample_plan), verdict=_passed))
        start = dynr.RMatrixSpec(algebra=g, family="EllipticSpectral", tau=4j)
        schedule = dynr.LimitSchedule(parameter="tau", values=(4j, 6j, 8j))
        ops.append(Op(f"limit_compare:{alg_name}:tau", "limit_compare",
                      call=_call(dynr, "limit_compare", start, schedule, None, sample_plan),
                      verdict=_tau_limit_converges))
    a2 = algebras["A2"]
    flipped = dynr.RMatrixSpec(algebra=a2, family="EllipticSpectral", tau=1j,
                               debug_flip_root=a2.root_system.positive_roots[0],
                               validate=False)
    ops.append(Op("check_axioms:A2:flipped-root", "check_axioms", expect_pass=False,
                  call=_call(dynr, "check_axioms", flipped, sample_plan), verdict=_residual_passed))
    a1 = algebras["A1"]
    lam = dynr.CartanVector.of([params["series_lam"]])
    ops.append(Op("affine_series_check:A1", "affine_series_check",
                  call=_call(dynr, "affine_series_check", lam, 2j, params["series_z"], 50,
                             algebra=a1),
                  verdict=lambda dev: dev <= 1e-9))
    return ops


def _tau_limit_converges(cmp) -> bool:
    # Each step of 2i in tau shrinks the theta corrections by exp(-4 pi),
    # about 3.5e-6, so consecutive Cauchy gaps must fall by far more than 1e4.
    gaps = cmp.cauchy
    return gaps[0] > 0 and all(b < 1e-4 * a for a, b in zip(gaps, gaps[1:]))


def _call(dynr, name: str, *args, **kw):
    # Looked up at call time, so the traced run's wrapper is the one called.
    return lambda: getattr(dynr, name)(*args, **kw)
