"""Command-line behavior: exit codes, output formats, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynr.cli
import dynr.verifier
from dynr import (
    FAMILIES,
    SPECTRAL_FAMILIES,
    ConvergenceFailure,
    DynrError,
    NonFiniteValue,
    NumericFailure,
    PoleProximity,
    RMatrixSpec,
    SamplePlan,
    SamplingExhausted,
    affine_hat_spec,
    build_root_system,
    build_simple_lie_algebra,
    check_axioms,
    spec_to_json,
)
from dynr.cli import _CATALOG, build_parser, main

A1 = build_simple_lie_algebra(build_root_system("A", 1))
A2 = build_simple_lie_algebra(build_root_system("A", 2))


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _python(*args):
    """Run the interpreter with args in a fresh process that imports this dynr."""
    src = str(Path(dynr.verifier.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def _run_process(*argv):
    """Run `python -m dynr` in a fresh interpreter: (exit code, stderr)."""
    proc = _python("-m", "dynr", *argv)
    return proc.returncode, proc.stderr


def test_dynr_never_loads_numpy_random_fractions_or_openssl():
    """The campaign draws from its own stream, the algebra is built in
    integers and digests come from CPython's builtin sha256, so neither a
    library campaign nor a CLI run imports numpy.random, fractions, decimal
    or _hashlib (OpenSSL's libcrypto)."""
    script = """if True:
        import sys
        from dynr import RMatrixSpec, SamplePlan, build_root_system, build_simple_lie_algebra, check_axioms
        from dynr.cli import main
        unused = {"numpy.random", "fractions", "decimal", "_hashlib"}
        g = build_simple_lie_algebra(build_root_system("A", 2))
        assert check_axioms(RMatrixSpec(algebra=g, family="EllipticSpectral", tau=2j), SamplePlan(seed=3, count=2)).passed
        assert not unused & set(sys.modules), unused & set(sys.modules)
        assert main(["verify", "--algebra", "A2", "--family", "elliptic-spectral", "--tau=2i", "--samples", "2"]) == 0
        assert not unused & set(sys.modules), unused & set(sys.modules)
    """
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("PASS")


# ---------------------------------------------------------------- import footprint

def _loaded_after(script, *argv):
    """Run script in a fresh interpreter; the dynr modules it loaded and its last output line."""
    tail = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "dynr" or m.startswith("dynr."))))
"""
    proc = _python("-c", script + tail, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_import_and_build_load_only_errors_and_lie_core():
    """The package loads its other layers on first use, so a bare import
    and an algebra build compile neither rmatrix nor verifier."""
    script = 'import dynr\ndynr.build_simple_lie_algebra(dynr.build_root_system("F", 4), cache_dir="")\n'
    assert _loaded_after(script) == {"dynr", "dynr.errors", "dynr.lie_core"}


def test_commands_that_verify_nothing_load_no_spec_or_verifier_layer():
    """subsets, polarize, catalog and a verify refused at its --algebra
    import no layer past combinatorics; each exit code is unchanged."""
    script = """
import sys
from dynr.cli import main
codes = [main(argv.split("|")) for argv in sys.argv[1:]]
assert codes == [0, 0, 0, 2], codes
"""
    loaded = _loaded_after(
        script,
        "subsets|--algebra|B4|--format|json",
        "polarize|--algebra|A2|--Y|a1",
        "catalog",
        "verify|--algebra|Q7|--family|trig-cotanh|--eps|2",
    )
    assert "dynr.combinatorics" in loaded
    assert not loaded & {"dynr.rmatrix", "dynr.verifier", "dynr.special_fn", "dynr.tensor_alg"}


def test_import_dynr_loads_no_layer_and_no_numpy():
    proc = _python("-c", "import sys, dynr\nprint(sorted(m for m in sys.modules if m.startswith(('dynr', 'numpy'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['dynr']"


def _refused_before_numpy(*argv):
    """Run cli.main(argv) in a fresh interpreter: (exit code, stderr, whether numpy loaded)."""
    script = "import sys\nfrom dynr.cli import main\ncode = main(sys.argv[1:])\nprint('numpy' in sys.modules)\nsys.exit(code)\n"
    proc = _python("-c", script, *argv)
    return proc.returncode, proc.stderr, proc.stdout.strip().splitlines()[-1] == "True"


def _json_error(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return f"error: spec document is not valid JSON: {exc}\n"
    raise AssertionError(f"{text!r} parses")


@pytest.mark.parametrize(
    "argv, err",
    [
        (("verify", "--algebra", "A2", "--spec-json", '{"family": "TrigCotanh",'),
         _json_error('{"family": "TrigCotanh",')),
        (("verify", "--algebra", "A2", "--family", "trig-cotanh", "--spec-json", "{}"),
         "error: give exactly one spec source: --family, --spec-file, or --spec-json\n"),
        (("axioms", "--algebra", "A2", "--spec-json", "{}", "--eps", "2"),
         "error: --eps not allowed with a spec document, which carries its own values\n"),
        (("verify", "--algebra", "A2", "--family", "trig-cotanh-x"),
         "error: unknown family 'trig-cotanh-x'; known: elliptic-spectral, rational-constant, "
         "rational-spectral, trig-cotanh, trig-degenerate, trig-spectral\n"),
        (("limits", "--algebra", "A2", "--schedule", "tau:4i"), "error: schedule needs at least two values\n"),
        (("limits", "--algebra", "A2", "--schedule", "tau:4i,6i", "--eps", "2"),
         "error: --eps not allowed with a tau: schedule, which checks EllipticSpectral at each tau\n"),
        (("pair", "--algebra", "A2", "--l-roots", "a1", "--X", "full"),
         "error: --X not allowed without a spec source: pair then checks RationalConstant with X = all roots\n"),
    ],
    ids=("malformed-json", "two-sources", "flag-next-to-document", "family", "schedule", "tau-schedule-flag",
         "pair-flag"),
)
def test_refusals_that_need_no_algebra_load_no_numpy(argv, err):
    """Each check that needs no algebra runs before the build, so it
    refuses before numpy loads, with the message it always printed."""
    assert _refused_before_numpy(*argv) == (2, err, False)


def test_deferred_layers_resolve_after_a_bare_import():
    """A layer and its names resolve on first read, and the value is kept in
    the package namespace; a name the package does not have is an
    AttributeError."""
    script = """
import dynr
assert "check_axioms" not in vars(dynr)
assert dynr.check_axioms is dynr.verifier.check_axioms
assert vars(dynr)["check_axioms"] is dynr.verifier.check_axioms
assert dynr.special_fn.theta1 is dynr.theta1
try:
    dynr.nope
except AttributeError as exc:
    assert "nope" in str(exc)
else:
    raise AssertionError("dynr.nope resolved")
"""
    assert {"dynr.verifier", "dynr.special_fn"} <= _loaded_after(script)


# ---------------------------------------------------------------- verify

def test_verify_constant_family_passes(capsys):
    code, out, _ = _run(
        capsys, "verify", "--algebra", "A1", "--family", "rational-constant",
        "--X", "full", "--samples", "4",
    )
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "cdybe-residual" in out
    assert "FAIL" not in out


def test_verify_spectral_family_passes(capsys):
    code, out, _ = _run(
        capsys, "verify", "--algebra", "A2", "--family", "elliptic-spectral",
        "--tau", "2i", "--samples", "3",
    )
    assert code == 0
    assert "residue" in out


def test_verify_json_deterministic(capsys):
    argv = (
        "verify", "--algebra", "A1", "--family", "trig-cotanh", "--eps", "2",
        "--samples", "3", "--format", "json", "--no-timing",
    )
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] is True
    assert doc["seed"] == 42
    assert "wall_time" not in doc


def test_verify_includes_wall_time_by_default(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "verify", "--algebra", "A1", "--family", "rational-constant",
        "--X", "full", "--samples", "2", "--format", "json",
        "--output", str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert "wall_time" in doc
    assert doc == json.loads(out)


def test_verify_broken_spec_fails(capsys, tmp_path):
    spec = RMatrixSpec(
        algebra=A1, family="RationalConstant",
        X=tuple(range(A1.root_system.n_roots)),
        debug_flip_root=A1.root_system.positive_roots[0], validate=False,
    )
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    code, out, _ = _run(
        capsys, "verify", "--algebra", "A1", "--spec-file", str(path),
        "--samples", "3",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_rejects_bad_algebra(capsys):
    code, _, err = _run(
        capsys, "verify", "--algebra", "Z9", "--family", "rational-constant",
    )
    assert code == 2
    assert "error" in err


def test_verify_rejects_ambiguous_sources(capsys):
    code, _, err = _run(
        capsys, "verify", "--algebra", "A1", "--family", "rational-constant",
        "--spec-json", "{}",
    )
    assert code == 2
    assert "exactly one spec source" in err


@pytest.mark.parametrize("doc", [
    '{"family": "TrigCotanh",',
    '{"algebra": {"series": "A", "rank": 2}}',
    "[1]",
])
def test_verify_rejects_malformed_spec_json(capsys, doc):
    code, _, err = _run(capsys, "verify", "--algebra", "A2", "--spec-json", doc)
    assert code == 2
    assert "error" in err
    assert "Traceback" not in err


_DEEP_JSON = "[" * 100_000


@pytest.mark.parametrize("source, data", [
    ("--spec-file", b"\xff\xfe{}"),  # not UTF-8
    ("--spec-file", _DEEP_JSON.encode()),
    ("--spec-json", _DEEP_JSON),
], ids=["file-not-utf8", "file-deep", "inline-deep"])
def test_verify_rejects_spec_document_that_is_not_utf8_or_nests_too_deeply(capsys, tmp_path, source, data):
    if isinstance(data, bytes):
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        data = str(path)
    code, out, err = _run(capsys, "verify", "--algebra", "A2", source, data)
    assert (code, out) == (2, "")
    assert err.startswith("error: spec document is not valid JSON: ")
    assert "Traceback" not in err


def test_verify_rejects_spec_json_breaking_family_rules(capsys):
    a2 = build_simple_lie_algebra(build_root_system("A", 2))
    spec = RMatrixSpec(algebra=a2, family="TrigCotanh", eps=2.0, X=(0,), validate=False)
    code, out, err = _run(
        capsys, "verify", "--algebra", "A2", "--spec-json", json.dumps(spec_to_json(spec)),
    )
    assert code == 2
    assert "TrigCotanh takes no X" in err
    assert "FAIL" not in out
    assert "Traceback" not in err


def _bad_entry(text):
    """Drop the value of the last constant, so the four lists have unequal
    lengths, and re-sign the entries."""
    doc = json.loads(text)
    doc["entries"][3].pop()
    canonical = json.dumps(doc["entries"], separators=(",", ":")).encode()
    doc["sha256"] = hashlib.sha256(canonical).hexdigest()
    return json.dumps(doc)


@pytest.mark.parametrize("damage", [
    lambda text: text[: len(text) // 3],
    lambda text: "\udcff\x00{",
    lambda text: text.replace("]]}", "]}", 1),
    lambda text: text.replace("-1.0]]}", "-2.0]]}", 1),  # checksum mismatch
    _bad_entry,
    lambda text: _DEEP_JSON,  # the decoder's recursion limit
])
def test_verify_rebuilds_unusable_structure_cache(capsys, monkeypatch, tmp_path, damage):
    monkeypatch.setenv("DYNR_FIXTURE_DIR", str(tmp_path))
    argv = ("verify", "--algebra", "A2", "--family", "trig-cotanh", "--eps", "2",
            "--samples", "2", "--format", "json", "--no-timing")
    code, clean, _ = _run(capsys, *argv)
    assert code == 0
    path = tmp_path / "structure_A2_v3.json"
    good = path.read_text()
    assert damage(good) != good
    path.write_text(damage(good), errors="surrogateescape")
    code, out, err = _run(capsys, *argv)
    assert code == 0
    assert out == clean
    assert "Traceback" not in err
    assert path.read_text() == good
    # a run that loads the rewritten cache prints the same bytes
    assert _run(capsys, *argv)[:2] == (0, clean)


def test_verify_refuses_a_signed_cache_with_no_brackets(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("DYNR_FIXTURE_DIR", str(tmp_path))
    argv = ("verify", "--algebra", "A2", "--family", "trig-cotanh", "--eps", "2", "--samples", "2")
    assert _run(capsys, *argv)[0] == 0
    path = tmp_path / "structure_A2_v3.json"
    doc = json.loads(path.read_text())
    doc["entries"] = [[], [], [], []]
    doc["sha256"] = hashlib.sha256(b"[[],[],[],[]]").hexdigest()
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Chevalley relations violated" in err


def test_verify_rejects_unknown_family(capsys):
    code, _, err = _run(
        capsys, "verify", "--algebra", "A1", "--family", "septic-spectral",
    )
    assert code == 2
    assert "unknown family" in err


# ---------------------------------------------------------------- flags

_SAMPLED = {"--seed", "--samples"}
_SPEC_SOURCE = {"--family", "--spec-file", "--spec-json", "--X", "--eps", "--nu", "--tau"}
_FLAGS = {
    "verify": {"--algebra", "--output", "--format", "--no-timing", *_SAMPLED, *_SPEC_SOURCE},
    "axioms": {"--algebra", "--output", "--format", "--no-timing", *_SAMPLED, *_SPEC_SOURCE},
    "subsets": {"--algebra", "--output", "--format"},
    "polarize": {"--algebra", "--output", "--format", "--Y"},
    "limits": {"--algebra", "--output", "--format", *_SAMPLED, "--schedule", "--X", "--eps", "--nu"},
    "pair": {"--algebra", "--output", "--format", "--no-timing", *_SAMPLED, *_SPEC_SOURCE, "--l-roots"},
    "series": {"--algebra", "--output", "--format", *_SAMPLED, "--tau", "--z", "--N", "--lambda"},
    "catalog": {"--format"},
}


def test_each_command_takes_only_the_flags_it_reads():
    """--seed and --samples only where a command samples, --no-timing only
    where its report carries wall_time: 66 option flags over 8 commands."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {s for a in p._actions if not isinstance(a, argparse._HelpAction) for s in a.option_strings}
        for name, p in sub.choices.items()
    }
    assert got == _FLAGS
    assert sum(map(len, got.values())) == 66


_SUBSETS, _POLARIZE = ("subsets", "--algebra", "B2"), ("polarize", "--algebra", "A2", "--Y", "a1")
_NO_TIMING = ("--no-timing",)


@pytest.mark.parametrize("argv, flag", [
    *((argv, flag) for argv in (_SUBSETS, _POLARIZE) for flag in (("--seed", "1"), ("--samples", "3"), _NO_TIMING)),
    (("limits", "--algebra", "A2", "--schedule", "tau:4i,6i"), _NO_TIMING),
    (("series", "--algebra", "A1", "--z=0.3-0.5i"), _NO_TIMING),
])
def test_a_flag_the_command_does_not_read_exits_2(capsys, argv, flag):
    """subsets and polarize sample nothing; no limits or series document has a wall_time."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")


_TRIG_DOC = json.dumps(spec_to_json(RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0)))
_SPEC_DOC_REASON = "not allowed with a spec document, which carries its own values"
_PAIR_REASON = "not allowed without a spec source: pair then checks RationalConstant with X = all roots"
_TAU_REASON = "not allowed with a tau: schedule, which checks EllipticSpectral at each tau"


@pytest.mark.parametrize("argv, message", [
    (("verify", "--spec-json", _TRIG_DOC, "--eps", "7"), f"--eps {_SPEC_DOC_REASON}"),
    (("verify", "--spec-json", _TRIG_DOC, "--X", "a1", "--tau=2i"), f"--X, --tau {_SPEC_DOC_REASON}"),
    (("axioms", "--spec-json", _TRIG_DOC, "--nu", "0.1,0.2"), f"--nu {_SPEC_DOC_REASON}"),
    (("verify", "--spec-file", "SPEC_FILE", "--eps", "7"), f"--eps {_SPEC_DOC_REASON}"),
    (("pair", "--l-roots", "a1", "--spec-json", _TRIG_DOC, "--eps", "3"), f"--eps {_SPEC_DOC_REASON}"),
    (("pair", "--l-roots", "a1", "--eps", "2"), f"--eps {_PAIR_REASON}"),
    (("pair", "--l-roots", "a1", "--X", "a1", "--nu", "0.1,0.2", "--tau=2i"), f"--X, --nu, --tau {_PAIR_REASON}"),
    (("limits", "--schedule", "tau:4i,6i,8i", "--X", "a1"), f"--X {_TAU_REASON}"),
    (("limits", "--schedule", "tau:4i,6i,8i", "--eps", "2", "--nu", "0.1,0.2"), f"--eps, --nu {_TAU_REASON}"),
])
def test_a_flag_the_command_would_ignore_exits_2(capsys, tmp_path, argv, message):
    """A spec document carries its own X, eps, nu and tau; pair without a
    spec source and a tau: schedule fix their own spec; each flag that
    would change nothing is named and refused."""
    (tmp_path / "spec.json").write_text(_TRIG_DOC)
    argv = [str(tmp_path / "spec.json") if a == "SPEC_FILE" else a for a in argv]
    code, out, err = _run(capsys, argv[0], "--algebra", "A2", "--samples", "2", *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_spec_source_with_its_own_flags_is_not_refused(capsys):
    """--X, --eps, --nu and --tau go with --family, on pair too, and with a nu: schedule."""
    for argv in (
        ("verify", "--family", "trig-cotanh", "--eps", "2", "--nu", "0.1,0.2"),
        ("pair", "--l-roots", "a1", "--family", "rational-constant", "--X", "full"),
        ("limits", "--schedule", "nu:20,40", "--X", "a1", "--eps", "2", "--nu", "0.3,0.1"),
    ):
        code, _, err = _run(capsys, argv[0], "--algebra", "A2", "--samples", "2", *argv[1:])
        assert (code, err) == (0, ""), argv


# ---------------------------------------------------------------- axioms

def test_axioms_filters_check_list(capsys):
    argv = (
        "--algebra", "A1", "--family", "rational-spectral",
        "--X", "empty", "--samples", "3", "--format", "json", "--no-timing",
    )
    code, out, _ = _run(capsys, "axioms", *argv)
    assert code == 0
    doc = json.loads(out)
    names = {c["name"] for c in doc["checks"]}
    assert names == {"zero-weight", "unitarity", "residue"}
    # axioms and verify draw the same sample points
    _, full, _ = _run(capsys, "verify", *argv)
    assert doc["checks"] == json.loads(full)["checks"][: len(doc["checks"])]


def test_axioms_skips_residual(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("axioms evaluated a CDYBE residual")

    monkeypatch.setattr(dynr.verifier, "_cdybe_from", refuse)
    for argv, want in (
        (("--algebra", "A2", "--family", "trig-cotanh", "--eps", "1"),
         {"zero-weight", "unitarity"}),
        (("--algebra", "A1", "--family", "rational-spectral", "--X", "full"),
         {"zero-weight", "unitarity", "residue"}),
    ):
        code, out, _ = _run(
            capsys, "axioms", *argv, "--samples", "3", "--format", "json", "--no-timing",
        )
        assert code == 0
        assert {c["name"] for c in json.loads(out)["checks"]} == want


def test_axioms_constant_family_has_no_residue(capsys):
    code, out, _ = _run(
        capsys, "axioms", "--algebra", "A2", "--family", "trig-cotanh",
        "--eps", "1", "--samples", "3", "--format", "json", "--no-timing",
    )
    assert code == 0
    names = {c["name"] for c in json.loads(out)["checks"]}
    assert names == {"zero-weight", "unitarity"}


# ---------------------------------------------------------------- subsets

def test_subsets_a1_count(capsys):
    code, out, _ = _run(capsys, "subsets", "--algebra", "A1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2


def test_subsets_b2_long_roots_present(capsys):
    code, out, _ = _run(capsys, "subsets", "--algebra", "B2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 7
    rs = build_root_system("B", 2)
    long_set = sorted(
        i for i in range(rs.n_roots)
        if abs(rs.roots[i][0]) == 1 and abs(rs.roots[i][1]) == 1
    )
    assert long_set in [sorted(s["members"]) for s in doc["subsets"]]


def test_subsets_deterministic(capsys):
    _, out1, _ = _run(capsys, "subsets", "--algebra", "G2", "--format", "json")
    _, out2, _ = _run(capsys, "subsets", "--algebra", "G2", "--format", "json")
    assert out1 == out2
    assert json.loads(out1)["count"] == 12


class _JsonWithoutDumps:
    """The json module with dumps refused, for the cli module alone: the
    verifier's spec digest still uses the real json.dumps."""

    def __getattr__(self, name):
        return getattr(json, name)

    @staticmethod
    def dumps(*args, **kwargs):
        raise AssertionError("a JSON document must be streamed with json.dump")


def test_json_output_is_streamed(capsys, monkeypatch, tmp_path):
    """stdout and --output both get the document through json.dump, never
    as one json.dumps string, and keep their bytes."""
    subsets = ("subsets", "--algebra", "G2", "--format", "json")
    verify = ("verify", "--algebra", "A2", "--family", "trig-cotanh", "--eps", "2",
              "--samples", "2", "--format", "json", "--no-timing")
    want_subsets, want_verify = _run(capsys, *subsets), _run(capsys, *verify)
    monkeypatch.setattr("dynr.cli.json", _JsonWithoutDumps())
    assert _run(capsys, *subsets) == want_subsets
    out_file = tmp_path / "report.json"
    assert _run(capsys, *verify, "--output", str(out_file)) == want_verify
    assert out_file.read_text() == want_verify[1]


def test_subsets_rank_gate(capsys):
    code, _, err = _run(capsys, "subsets", "--algebra", "A5")
    assert code == 2


# ---------------------------------------------------------------- polarize

def test_polarize_single_root(capsys):
    code, out, _ = _run(
        capsys, "polarize", "--algebra", "A2", "--Y", "a1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["margin"] > 0
    rs = build_root_system("A", 2)
    v = np.array([complex(re, im) for re, im in doc["vector"]])
    for i in doc["positive"]:
        assert (rs.roots[i] @ v).real > 0
    assert len(doc["positive"]) * 2 == rs.n_roots


def test_polarize_rejects_symmetric_set(capsys):
    code, out, _ = _run(capsys, "polarize", "--algebra", "A2", "--Y", "full")
    assert code == 1
    assert "FAIL" in out


def test_polarize_failure_is_a_json_document(capsys, tmp_path):
    out_file = tmp_path / "polarize.json"
    code, out, _ = _run(
        capsys, "polarize", "--algebra", "A2", "--Y", "0,5", "--format", "json", "--output", str(out_file),
    )
    assert code == 1
    doc = json.loads(out)
    assert doc == {
        "algebra": "A2",
        "Y": [0, 5],
        "error": "PropertyViolated: property B fails: both 0 and its negative are in Y",
    }
    assert json.loads(out_file.read_text()) == doc


def _spec_doc_with(**fields):
    doc = spec_to_json(RMatrixSpec(algebra=A1, family="TrigCotanh", eps=2.0))
    doc.update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "trig-cotanh", "--eps", "nan"),
        ("--family", "trig-cotanh", "--eps", "1e400"),
        ("--family", "elliptic-spectral", "--tau", "nan+1i"),
        ("--family", "trig-cotanh", "--eps", "2", "--nu", "nan"),
        ("--spec-json", _spec_doc_with(eps=[float("nan"), 0.0])),
        ("--spec-json", _spec_doc_with(nu=[[float("nan"), 0.0]])),
    ],
)
def test_verify_rejects_non_finite_input(argv):
    code, err = _run_process("verify", "--algebra", "A1", "--samples", "2", *argv)
    assert code == 2
    assert "Traceback" not in err
    assert "finite" in err


def test_verify_rejects_negative_seed():
    code, err = _run_process(
        "verify", "--algebra", "A2", "--family", "trig-cotanh", "--eps", "2", "--seed", "-1",
    )
    assert code == 2
    assert "Traceback" not in err
    assert "seed must be a non-negative integer" in err


def test_verify_reports_overflowing_residual_as_numeric_failure():
    code, err = _run_process(
        "verify", "--algebra", "A2", "--family", "trig-cotanh", "--eps", "1e300", "--samples", "2",
    )
    assert code == 3
    assert "Traceback" not in err
    assert "Warning" not in err
    assert "NonFiniteValue" in err and "lambda" in err


def test_axioms_reports_non_finite_record_as_numeric_failure():
    code, err = _run_process(
        "axioms", "--algebra", "A2", "--samples", "2", "--family", "trig-cotanh", "--eps", "1e308",
    )
    assert code == 3
    assert "Traceback" not in err
    assert "NonFiniteValue" in err and "lambda" in err


@pytest.mark.parametrize("error", [PoleProximity, ConvergenceFailure, SamplingExhausted, NonFiniteValue])
def test_numeric_refusals_exit_3_through_one_error_class(capsys, monkeypatch, error):
    """The four numeric refusals are NumericFailure, the one class the CLI maps to exit 3."""
    assert issubclass(error, NumericFailure) and issubclass(NumericFailure, DynrError)

    def refuse(args):
        raise error("no value here")

    monkeypatch.setattr(dynr.cli, "cmd_catalog", refuse)
    assert _run(capsys, "catalog") == (3, "", f"numeric failure: {error.__name__}: no value here\n")


@pytest.mark.parametrize("tau, cutoff", [("1e-300i", "5.284e+299"), ("0.0001i", "5307")])
def test_a_theta_cutoff_past_its_cap_is_named_in_a_short_line(tau, cutoff):
    """Four significant digits: a cutoff under 10^4 prints whole."""
    code, err = _run_process("verify", "--algebra", "A2", "--family", "elliptic-spectral", f"--tau={tau}")
    assert code == 3
    assert "Traceback" not in err
    assert f"ConvergenceFailure: theta truncation {cutoff} exceeds cap 512" in err
    assert len(err) < 200


@pytest.mark.parametrize("algebra", ["A2", "B3", "F4", "E8"])
def test_trig_cotanh_verifies_at_a_small_coupling(capsys, algebra):
    """The sampler's pole margin is taken in the pairing below |eps| = 2, so
    sample points are found where (eps/2)(alpha, lambda) is small."""
    code, out, err = _run(
        capsys, "verify", "--algebra", algebra, "--family", "trig-cotanh", "--eps", "0.05",
        "--seed", "1", "--samples", "4",
    )
    assert (code, err) == (0, "")
    assert out.endswith("\nPASS\n")


def test_trig_cotanh_passes_where_coth_saturates():
    """At eps = 30 a record entry phi reads about 0 where coth is -1; the
    negative control no longer flips such a root, which changes nothing."""
    code, err = _run_process(
        "verify", "--algebra", "A2", "--family", "trig-cotanh", "--eps", "30", "--seed", "4", "--samples", "2",
    )
    assert (code, err) == (0, "")


def _gauged_doc(family, gauge, **fields):
    doc = spec_to_json(RMatrixSpec(algebra=A2, family=family, **fields))
    doc["gauge_stack"] = [gauge]
    return json.dumps(doc)


@pytest.mark.parametrize(
    "doc, what",
    [
        (_gauged_doc("TrigCotanh", {"kind": 3, "shift": [[0.1, 0.0]]}, eps=2.0), "shift"),
        (_gauged_doc("TrigCotanh", {"kind": 1, "c_matrix": [[[0.0, 0.0]] * 3] * 3}, eps=2.0), "c_matrix"),
        (_gauged_doc("EllipticSpectral", {"kind": 2, "psi": {"Q": [[[0.3, 0.0]]], "v": [[0.1, 0.0]]}}, tau=2j),
         "psi"),
    ],
    ids=("shift", "c_matrix", "psi"),
)
def test_verify_rejects_gauge_of_wrong_rank(doc, what):
    code, err = _run_process("verify", "--algebra", "A2", "--samples", "2", "--spec-json", doc)
    assert code == 2
    assert "Traceback" not in err
    assert f"{what} dimension mismatch" in err


@pytest.mark.parametrize("flip", [99, 6, -1, 1.5, "1", True])
def test_verify_rejects_flip_that_is_not_a_root_index(flip):
    doc = spec_to_json(RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0))
    doc["debug_flip_root"] = flip
    code, err = _run_process("verify", "--algebra", "A2", "--samples", "2", "--spec-json", json.dumps(doc))
    assert code == 2
    assert "Traceback" not in err
    assert "debug_flip_root must be a root index in [0, 6)" in err


_SCALE_ONE = {"scale": [[1.0, 0.0], [1.0, 0.0]]}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"gauge_stack": [{"kind": 4.7, **_SCALE_ONE}]}, "gauge kind must be 1..4, got 4.7"),
        ({"gauge_stack": [{"kind": "4", **_SCALE_ONE}]}, "gauge kind must be 1..4, got '4'"),
        ({"gauge_stack": [{"kind": True, "c_matrix": [[[0.0, 0.0]] * 2] * 2}]}, "gauge kind must be 1..4, got True"),
        ({"family": "RationalConstant", "eps": [0.0, 0.0], "X": [0.9, 5.2]}, "X entries must be integers, got 0.9"),
        ({"family": "RationalConstant", "eps": [0.0, 0.0], "X": [False, 5]}, "X entries must be integers, got False"),
        ({"polarization": [3.1, 4, 5]}, "polarization entries must be integers, got 3.1"),
    ],
    ids=("kind-float", "kind-string", "kind-bool", "X-float", "X-bool", "polarization-float"),
)
def test_verify_rejects_spec_json_index_that_is_not_an_integer(capsys, fields, message):
    doc = spec_to_json(RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0))
    code, out, err = _run(
        capsys, "verify", "--algebra", "A2", "--samples", "2", "--spec-json", json.dumps({**doc, **fields}),
    )
    assert code == 2
    assert message in err
    assert out == ""


_SHIFT = {"kind": 3, "shift": [[0.5, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"gauge_stak": [_SHIFT], "epsilon": [7.0, 0.0]}, "unknown keys 'gauge_stak', 'epsilon'"),
        ({"gauge_stack": [{**_SHIFT, "shfit": [[0.5, 0.0], [0.0, 0.0]]}]},
         "unknown key 'shfit' (in gauge_stack[0])"),
        ({"family": "EllipticSpectral", "eps": [1.0, 0.0], "tau": [0.0, 2.0],
          "gauge_stack": [{"kind": 2, "psi": {"Q": [[[0.0, 0.0]] * 2] * 2, "v": [[0.0, 0.0]] * 2, "W": 1}}]},
         "unknown key 'W' (in gauge_stack[0].psi)"),
    ],
    ids=("top-level", "gauge-record", "psi"),
)
def test_verify_refuses_spec_json_with_unknown_key(capsys, fields, message):
    """A misspelled key used to be ignored: the top-level case verified the
    ungauged eps = 2 spec and exited 0."""
    doc = spec_to_json(RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0))
    code, out, err = _run(
        capsys, "verify", "--algebra", "A2", "--samples", "2", "--spec-json", json.dumps({**doc, **fields}),
    )
    assert (code, out, err) == (2, "", f"error: SpecInvalid: spec document has {message}\n")


def test_verify_rejects_unknown_gauge_kind():
    doc = _gauged_doc("TrigCotanh", {"kind": 7, "scale": [[1.0, 0.0], [1.0, 0.0]]}, eps=2.0)
    code, err = _run_process("verify", "--algebra", "A2", "--samples", "2", "--spec-json", doc)
    assert code == 2
    assert "Traceback" not in err
    assert "gauge kind must be 1..4, got 7" in err


# ---------------------------------------------------------------- limits

def test_limits_tau_schedule(capsys):
    code, out, _ = _run(
        capsys, "limits", "--algebra", "A1", "--schedule", "tau:4i,6i,8i",
        "--samples", "4", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["cauchy"][-1] < 1e-5


@pytest.mark.parametrize("seed", range(8))
def test_limits_tau_schedule_passes_on_every_seed(capsys, seed):
    code, out, _ = _run(
        capsys, "limits", "--algebra", "A2", "--schedule", "tau:4i,6i,8i",
        "--seed", str(seed), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["final_gap"] < 1e-5


def test_limits_nu_schedule(capsys):
    code, out, _ = _run(
        capsys, "limits", "--algebra", "A2", "--schedule", "nu:20,40",
        "--X", "a1", "--samples", "4", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["final_deviation"] <= 1e-5


def test_limits_bad_schedule(capsys):
    code, _, err = _run(
        capsys, "limits", "--algebra", "A1", "--schedule", "eps:1,2",
    )
    assert code == 2


@pytest.mark.parametrize("argv", [("tau:4i,4i",), ("tau:6i,6i,6i",), ("nu:20,20", "--X", "a1")])
def test_limits_rejects_a_repeated_schedule_value(capsys, argv):
    code, out, err = _run(capsys, "limits", "--algebra", "A2", "--schedule", *argv)
    assert (code, out) == (2, "")
    assert err == "error: SpecInvalid: schedule repeats a value; consecutive values must differ\n"


@pytest.mark.parametrize("schedule", ["tau:", "tau:4i", "tau:4i,nan"])
def test_limits_rejects_short_or_non_finite_schedule(schedule):
    code, err = _run_process("limits", "--algebra", "A2", "--schedule", schedule)
    assert code == 2
    assert "Traceback" not in err


# ---------------------------------------------------------------- pair

def test_pair_default_spec(capsys):
    code, out, _ = _run(
        capsys, "pair", "--algebra", "A2", "--l-roots", "a1", "--samples", "3",
    )
    assert code == 0
    assert "projector-cdybe" in out
    assert "pair-sum-cdybe" in out


def test_pair_rejects_open_subset(capsys):
    code, _, err = _run(
        capsys, "pair", "--algebra", "A2", "--l-roots", "a1,a2", "--samples", "2",
    )
    assert code == 2


# ---------------------------------------------------------------- series

def test_series_inside_annulus(capsys):
    code, out, _ = _run(
        capsys, "series", "--algebra", "A1", "--z", "0.3-0.5i", "--N", "50",
        "--samples", "3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["series_vs_closed"] <= 1e-9
    report = check_axioms(affine_hat_spec(A1, 2j), SamplePlan(seed=42, count=3))
    resid = next(c for c in report.checks if c.name == "cdybe-residual")
    assert doc["closed_form_cdybe_max"] == resid.max_residual


@pytest.mark.parametrize("algebra", ["B2", "B3", "C3", "D4"])
def test_series_default_lambda_clears_every_root(capsys, algebra):
    """The default lambda pairs to nonzero with every root, e_i - e_j too."""
    code, out, err = _run(
        capsys, "series", "--algebra", algebra, "--z=0.3-0.5i", "--N", "20",
        "--samples", "2", "--format", "json",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["series_vs_closed"] <= 1e-9


def test_series_boundary_is_numeric_failure(capsys):
    code, _, err = _run(
        capsys, "series", "--algebra", "A1", "--z", "0.3", "--samples", "2",
    )
    assert code == 3
    assert "numeric failure" in err


# ---------------------------------------------------------------- catalog

def test_catalog_text(capsys):
    code, out, _ = _run(capsys, "catalog")
    assert code == 0
    for name in (
        "rational-constant", "trig-cotanh", "trig-degenerate",
        "elliptic-spectral", "trig-spectral", "rational-spectral",
    ):
        assert name in out
    assert "gauges" in out


def test_catalog_json(capsys):
    code, out, _ = _run(capsys, "catalog", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 6
    assert {e["kind"] for e in doc} == {"constant", "spectral"}


def test_catalog_names_title_case_onto_the_families():
    """The catalog is the CLI's only list of families: each name title-cases
    onto one class name of rmatrix.FAMILIES, all six of them, and its kind
    says whether that family is spectral."""
    names = {name.title().replace("-", ""): kind for name, kind, *_ in _CATALOG}
    assert len(names) == len(_CATALOG)
    assert sorted(names) == sorted(FAMILIES)
    assert {name for name, kind in names.items() if kind == "spectral"} == set(SPECTRAL_FAMILIES)
