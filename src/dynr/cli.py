"""Command-line front end.

Commands: verify, axioms, subsets, polarize, limits, pair, series,
catalog.  Exit codes: 0 all checks passed, 1 a check failed, 2 bad
configuration, 3 numeric failure (pole proximity, divergent series,
sampling exhausted, a residual that overflows).

Each command first runs every check that needs no algebra (flags, the
spec source and its JSON, the family name, the schedule), then imports
the layers it runs, so input refused there loads no numpy.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from .errors import DynrError, NumericFailure, PropertyViolated, SearchExhausted

_CATALOG = [
    ("rational-constant", "constant", "coupling 0",
     "Cartan matrix C plus 1/(alpha, lambda - nu) on a closed root subset X"),
    ("trig-cotanh", "constant", "coupling eps (any nonzero)",
     "eps/2-shifted Casimir plus (eps/2) coth((eps/2)(alpha, lambda - nu)) on all roots"),
    ("trig-degenerate", "constant", "coupling eps (any nonzero)",
     "coth profile on the span of X (simple roots of a polarization), step constants elsewhere"),
    ("elliptic-spectral", "spectral", "coupling 1",
     "theta-quotient coefficients sigma and rho at modular parameter tau"),
    ("trig-spectral", "spectral", "coupling 1",
     "sin-ratio coefficients on the span of X, exponential constants elsewhere"),
    ("rational-spectral", "spectral", "coupling 1",
     "Casimir/z plus 1/(alpha, lambda - nu) on a closed subset X"),
]


def _parse_complex(tok: str) -> complex:
    """Parse finite 'a+bi' style tokens ('2', '1+1i', '2i', '-0.5-0.25i')."""
    t = tok.strip().replace(" ", "")
    try:
        value = complex(t.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {tok!r}")
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"complex number {tok!r} is not finite")
    return value


def _parse_complex_list(tok: str):
    return [_parse_complex(p) for p in tok.split(",") if p]


def _parse_algebra(tok: str):
    t = tok.strip()
    if len(t) < 2 or not t[0].isalpha():
        raise _ConfigError(f"algebra must look like A2/B3/..., got {tok!r}")
    series = t[0].upper()
    try:
        rank = int(t[1:])
    except ValueError:
        raise _ConfigError(f"bad rank in algebra token {tok!r}")
    return series, rank


class _ConfigError(Exception):
    pass


def _refuse(args, names, reason: str) -> None:
    """_ConfigError naming the flags of `names` that were given: the command would ignore them."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise _ConfigError(f"{', '.join(given)} not allowed {reason}")


def _parse_root_set(tok: str, rs):
    """Root-set tokens: 'full', 'empty', or a comma list of aK (simple root
    K, 1-based) and raw 0-based root indices."""
    t = tok.strip().lower()
    if t == "full":
        return tuple(range(rs.n_roots))
    if t in ("empty", "none"):
        return ()
    out = []
    for part in t.split(","):
        part = part.strip()
        if not part:
            continue
        if part.startswith("a"):
            try:
                pos = int(part[1:]) - 1
            except ValueError:
                raise _ConfigError(f"bad simple-root token {part!r}")
            if not 0 <= pos < rs.rank:
                raise _ConfigError(f"no simple root {part!r} at this rank")
            out.append(rs.simple_roots[pos])
        else:
            try:
                idx = int(part)
            except ValueError:
                raise _ConfigError(f"bad root index {part!r}")
            if not 0 <= idx < rs.n_roots:
                raise _ConfigError(f"root index {idx} out of range")
            out.append(idx)
    return tuple(sorted(set(out)))


def _build_algebra(args):
    series, rank = _parse_algebra(args.algebra)
    from .lie_core import build_root_system, build_simple_lie_algebra

    return build_simple_lie_algebra(build_root_system(series, rank))


def _spec_document(args):
    """The spec source's checks that need no algebra: exactly one source, no
    parameter flag next to a document, the document parsed as JSON, a known
    family name.  Returns the parsed document (None for --family)."""
    sources = [s for s in (args.family, args.spec_file, args.spec_json) if s]
    if len(sources) != 1:
        raise _ConfigError("give exactly one spec source: --family, --spec-file, or --spec-json")
    if args.family:
        known = [name for name, *_ in _CATALOG]
        if args.family not in known:
            raise _ConfigError(f"unknown family {args.family!r}; known: {', '.join(sorted(known))}")
        return None
    _refuse(args, ("X", "eps", "nu", "tau"), "with a spec document, which carries its own values")
    try:
        if args.spec_file:
            with open(args.spec_file) as fh:
                return json.load(fh)
        return json.loads(args.spec_json)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise _ConfigError(f"spec document is not valid JSON: {exc}")


def _build_spec(args, algebra, doc):
    """The spec of the source that _spec_document checked and read as doc."""
    from .lie_core import CartanVector
    from .rmatrix import RMatrixSpec, spec_from_json

    if not args.family:
        return spec_from_json(doc, algebra)
    kw = {}
    rs = algebra.root_system
    if args.X is not None:
        kw["X"] = _parse_root_set(args.X, rs)
    if args.eps is not None:
        kw["eps"] = args.eps
    if args.nu is not None:
        if len(args.nu) != rs.rank:
            raise _ConfigError(f"--nu needs {rs.rank} coordinates")
        kw["nu"] = CartanVector.of(args.nu)
    if args.tau is not None:
        kw["tau"] = args.tau
    # a catalog name title-cases onto its class name: trig-cotanh -> TrigCotanh
    return RMatrixSpec(algebra=algebra, family=args.family.title().replace("-", ""), **kw)


def _plan(args):
    from .verifier import SamplePlan

    return SamplePlan(seed=args.seed, count=args.samples)


def _emit(doc: dict, args, text_lines) -> None:
    """Write doc to --output when given; print it as JSON or as text_lines."""
    if args.output:
        with open(args.output, "w") as fh:
            _dump_json(doc, fh)
    if args.format == "json":
        _dump_json(doc, sys.stdout)
    else:
        for line in text_lines:
            print(line)


def _dump_json(doc: dict, stream) -> None:
    """doc as indented, key-sorted JSON and a newline, streamed (not one string)."""
    json.dump(doc, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _emit_report(report, args) -> int:
    lines = [f"spec {report.spec_id} on {report.algebra_id} "
             f"(seed {report.seed}, {report.samples_used} samples)"]
    for c in report.checks:
        flag = "PASS" if c.passed else "FAIL"
        lines.append(f"  {flag} {c.name}: max {c.max_residual:.3e} "
                     f"(tol {c.tolerance:.1e}, n={c.n_samples})")
    lines.append("PASS" if report.passed else "FAIL")
    _emit(report.to_json(include_timing=not args.no_timing), args, lines)
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    """verify, or axioms: the check_axioms stage args.stage (None for both)."""
    doc = _spec_document(args)
    algebra = _build_algebra(args)
    spec = _build_spec(args, algebra, doc)
    from .verifier import check_axioms

    return _emit_report(check_axioms(spec, _plan(args), stage=args.stage), args)


def cmd_subsets(args) -> int:
    series, rank = _parse_algebra(args.algebra)
    from .combinatorics import enumerate_closed_subsets
    from .lie_core import build_root_system

    rs = build_root_system(series, rank)
    subsets = enumerate_closed_subsets(rs)
    coeffs = rs.coeffs.tolist()
    listing = {
        "algebra": f"{series}{rank}",
        "count": len(subsets),
        "subsets": [{"size": len(s), "members": list(s), "coeffs": [coeffs[i] for i in s]} for s in subsets],
    }
    lines = [f"{listing['algebra']}: {listing['count']} closed subsets"]
    lines += [f"  size {entry['size']}: {entry['coeffs']}" for entry in listing["subsets"]]
    _emit(listing, args, lines)
    return 0


def cmd_polarize(args) -> int:
    series, rank = _parse_algebra(args.algebra)
    from .combinatorics import find_polarization
    from .lie_core import build_root_system

    rs = build_root_system(series, rank)
    y = _parse_root_set(args.Y, rs)
    try:
        result = find_polarization(rs, y)
    except (PropertyViolated, SearchExhausted) as exc:
        error = f"{type(exc).__name__}: {exc}"
        _emit({"algebra": f"{series}{rank}", "Y": list(y), "error": error}, args, [f"FAIL {error}"])
        return 1
    doc = {
        "algebra": f"{series}{rank}",
        "Y": list(y),
        "vector": [[v, 0.0] for v in result.vector],
        "positive": list(result.positive),
        "margin": result.margin if math.isfinite(result.margin) else "inf",
    }
    _emit(doc, args, [f"PASS margin {result.margin:.6g}; positives {sorted(result.positive)}"])
    return 0


def _parse_schedule(tok: str):
    if ":" not in tok:
        raise _ConfigError("schedule must look like tau:4i,6i,8i or nu:20,40")
    kind, _, rest = tok.partition(":")
    kind = kind.strip().lower()
    try:
        values = [_parse_complex(p) for p in rest.split(",") if p.strip()]
    except argparse.ArgumentTypeError as exc:
        raise _ConfigError(str(exc))
    if len(values) < 2:
        raise _ConfigError("schedule needs at least two values")
    if kind == "tau":
        return "tau", tuple(values)
    if kind == "nu":
        reals = []
        for v in values:
            if v.imag:
                raise _ConfigError("nu schedule weights must be real")
            reals.append(v.real)
        return "nu-ray", tuple(reals)
    raise _ConfigError(f"unknown schedule parameter {kind!r}")


def cmd_limits(args) -> int:
    kind, values = _parse_schedule(args.schedule)
    if kind == "tau":
        _refuse(args, ("X", "eps", "nu"), "with a tau: schedule, which checks EllipticSpectral at each tau")
    algebra = _build_algebra(args)
    from .lie_core import CartanVector, fundamental_weights
    from .rmatrix import RMatrixSpec
    from .verifier import LimitSchedule, limit_compare

    rs = algebra.root_system
    plan = _plan(args)
    doc = {"algebra": f"{rs.series}{rs.rank}", "schedule": args.schedule}
    if kind == "tau":
        tau0 = complex(values[0])
        spec = RMatrixSpec(algebra=algebra, family="EllipticSpectral", tau=tau0)
        cmp_res = limit_compare(spec, LimitSchedule("tau", values), None, plan)
        gaps = list(cmp_res.cauchy)
        monotone = all(b <= a * 1.000001 for a, b in zip(gaps, gaps[1:]))
        passed = monotone and gaps[-1] < 1e-5
        doc.update(cauchy=gaps, monotone=monotone, final_gap=gaps[-1])
    else:
        eps = args.eps if args.eps is not None else 2.0
        x_set = _parse_root_set(args.X, rs) if args.X is not None else ()
        if any(i not in rs.simple_roots for i in x_set):
            raise _ConfigError("nu-ray schedule X must consist of simple roots")
        mu = (
            CartanVector.of(args.nu)
            if args.nu is not None
            else CartanVector.of([0.37 + 0.11j] * rs.rank)
        )
        fw = fundamental_weights(rs)
        outside = [pos for pos, idx in enumerate(rs.simple_roots) if idx not in x_set]
        ray = CartanVector.of(-sum(fw[pos] for pos in outside)) if outside else None
        if ray is None:
            raise _ConfigError("X covers every simple root; the schedule has no direction")
        spec = RMatrixSpec(algebra=algebra, family="TrigCotanh", eps=eps, nu=mu)
        target = RMatrixSpec(
            algebra=algebra, family="TrigDegenerate", eps=eps, X=x_set, nu=mu
        )
        cmp_res = limit_compare(
            spec, LimitSchedule("nu-ray", values, base=mu, ray=ray), target, plan
        )
        passed = cmp_res.cauchy[-1] < 1e-5 and cmp_res.final_deviation <= 1e-5
        doc.update(cauchy=list(cmp_res.cauchy), final_deviation=cmp_res.final_deviation)
    doc["passed"] = passed
    _emit(doc, args, [f"{k}: {v}" for k, v in doc.items()])
    return 0 if passed else 1


def cmd_pair(args) -> int:
    sourced = bool(args.family or args.spec_file or args.spec_json)
    if sourced:
        doc = _spec_document(args)
    else:
        _refuse(args, ("X", "eps", "nu", "tau"),
                "without a spec source: pair then checks RationalConstant with X = all roots")
    algebra = _build_algebra(args)
    from .rmatrix import RMatrixSpec
    from .verifier import reduce_pair_check

    rs = algebra.root_system
    l_roots = _parse_root_set(args.l_roots, rs)
    if sourced:
        spec = _build_spec(args, algebra, doc)
    else:
        spec = RMatrixSpec(algebra=algebra, family="RationalConstant", X=tuple(range(rs.n_roots)))
    report = reduce_pair_check(spec, l_roots, _plan(args))
    return _emit_report(report, args)


def cmd_series(args) -> int:
    algebra = _build_algebra(args)
    from .lie_core import CartanVector
    from .verifier import affine_hat_spec, affine_series_check, check_axioms

    rs = algebra.root_system
    # (1, 2, ..., rank) pairs to nonzero with every root, e_i - e_j too
    lam = CartanVector.of(args.lam if args.lam is not None else [(0.41 + 0.19j) * k for k in range(1, rs.rank + 1)])
    if args.lam is not None and len(args.lam) != rs.rank:
        raise _ConfigError(f"--lambda needs {rs.rank} coordinates")
    tau = args.tau if args.tau is not None else 2j
    deviation = affine_series_check(lam, tau, args.z, args.n_terms, algebra=algebra)
    max_res = check_axioms(affine_hat_spec(algebra, tau), _plan(args), stage="residual").checks[0].max_residual
    passed = deviation <= 1e-9 and max_res <= 1e-8
    doc = {
        "algebra": f"{rs.series}{rs.rank}",
        "tau": [tau.real, tau.imag],
        "z": [complex(args.z).real, complex(args.z).imag],
        "n_terms": args.n_terms,
        "series_vs_closed": deviation,
        "closed_form_cdybe_max": max_res,
        "passed": passed,
    }
    _emit(doc, args, [f"{k}: {v}" for k, v in doc.items()])
    return 0 if passed else 1


def cmd_catalog(args) -> int:
    if args.format == "json":
        print(json.dumps(
            [
                {"name": n, "kind": k, "coupling": c, "shape": s}
                for n, k, c, s in _CATALOG
            ],
            indent=2,
        ))
        return 0
    for name, kind, coupling, shape in _CATALOG:
        print(f"{name} [{kind}] {coupling}")
        print(f"    {shape}")
    print("gauges: 1 add constant antisymmetric Cartan matrix; 2 multiply by the")
    print("exponential of a closed-form one-cocycle (spectral only); 3 shift lambda;")
    print("4 rescale lambda and z (scales the coupling by a/b).")
    return 0


def _add_common(p, sampled=True, timed=False):
    """--algebra, --output, --format; --seed, --samples if sampled; --no-timing if the report is timed."""
    p.add_argument("--algebra", required=True, help="series+rank, e.g. A2")
    if sampled:
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--samples", type=int, default=10)
    p.add_argument("--output", help="write the JSON report to this path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    if timed:
        p.add_argument("--no-timing", action="store_true",
                       help="omit the wall-time field from JSON output")


def _add_spec_source(p):
    p.add_argument("--family", help="family name, e.g. rational-constant")
    p.add_argument("--spec-file", help="JSON spec document path")
    p.add_argument("--spec-json", help="inline JSON spec document")
    p.add_argument("--X", help="root subset: full, empty, or list like a1,a2 or 0,3")
    p.add_argument("--eps", type=_parse_complex, help="coupling parameter, e.g. 2 or 1+1i")
    p.add_argument("--nu", type=_parse_complex_list, help="shift vector, comma separated")
    p.add_argument("--tau", type=_parse_complex, help="modular parameter, e.g. 2i")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dynr",
        description="Construct and numerically verify dynamical r-matrix families.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, stage, summary in (("verify", None, "full axiom + residual campaign for one spec"),
                                 ("axioms", "axioms", "zero-weight/unitarity/residue checks only")):
        p = sub.add_parser(name, help=summary)
        _add_common(p, timed=True)
        _add_spec_source(p)
        p.set_defaults(fn=cmd_verify, stage=stage)

    p = sub.add_parser("subsets", help="enumerate closed root subsets (rank <= 4)")
    _add_common(p, sampled=False)
    p.set_defaults(fn=cmd_subsets)

    p = sub.add_parser("polarize", help="find a polarization containing the given roots")
    _add_common(p, sampled=False)
    p.add_argument("--Y", required=True, help="root set tokens as for --X")
    p.set_defaults(fn=cmd_polarize)

    p = sub.add_parser("limits", help="parameter-schedule convergence runs")
    _add_common(p)
    p.add_argument("--schedule", required=True, help="tau:4i,6i,8i or nu:20,40")
    p.add_argument("--X", help="simple-root set kept finite in the nu schedule")
    p.add_argument("--eps", type=_parse_complex)
    p.add_argument("--nu", type=_parse_complex_list, help="base shift vector")
    p.set_defaults(fn=cmd_limits)

    p = sub.add_parser("pair", help="pair-reduction consistency run")
    _add_common(p, timed=True)
    _add_spec_source(p)
    p.add_argument("--l-roots", required=True, dest="l_roots",
                   help="positive roots of the subalgebra, e.g. a1")
    p.set_defaults(fn=cmd_pair)

    p = sub.add_parser("series", help="loop-algebra series vs closed form")
    _add_common(p)
    p.add_argument("--tau", type=_parse_complex, help="modular parameter (default 2i)")
    p.add_argument("--z", type=_parse_complex, required=True,
                   help="spectral point; the series needs -Im tau < Im z < 0")
    p.add_argument("--N", type=int, default=50, dest="n_terms")
    p.add_argument("--lambda", type=_parse_complex_list, dest="lam")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("catalog", help="list built-in families")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_catalog)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except DynrError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
