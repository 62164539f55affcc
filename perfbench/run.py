#!/usr/bin/env python3
"""dynr benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload constant-rank4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the next op starts when the
previous one returns, and whole passes over the workload's ops repeat while
the next one is expected to end within ``--seconds``.  ``--trace 0``
reports the end-to-end metrics (setup_s, campaign_s, op_p50_s,
peak_rss_mb); ``--trace 1`` spends half the time untraced and half traced
and reports the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

# Set-up is repeated in fresh interpreters, at least SETUP_MIN_REPEATS times
# and until SETUP_MIN_SECONDS of set-up have been measured, and its median
# is reported: cheap set-ups get more samples, the F4 build of cli-session
# (about 2 s) is not repeated more than needed.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_MIN_SECONDS = 2.5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRACEBACK = b"Traceback (most recent call last)"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file (default under .bench_build/perfbench/)")
    return ap.parse_args(argv)


def cap_threads(nproc: int) -> dict:
    """Cap BLAS/OpenMP threads at nproc for this process and its children."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 1 <= int(current) <= nproc):
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def high_percentile(values):
    """Highest whole percentile with at least ten values above it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return p, ordered[max(0, math.ceil(p * n / 100) - 1)]


class Harness:
    """Runs one workload: set-up probes, passes, correctness, metrics."""

    def __init__(self, wl, env, work: Path):
        self.wl = wl
        self.env = env
        self.work = work
        self.ops = wl.ops  # in-process workloads replace these once built
        self.records = []  # one dict per op run
        self.child_rss_kb = 0
        self.tracer = None
        self.pass_of_op = {}
        self.next_op_id = 0
        self.next_pass = 0

    # -- set-up --------------------------------------------------------------

    def probe_setup(self) -> list:
        """Cold import + build in fresh interpreters; one dict per repeat."""
        argv = [f"{s}{r}" for s, r in self.wl.algebras]
        if self.wl.root_systems:
            argv += ["--roots"] + [f"{s}{r}" for s, r in self.wl.root_systems]
        out = []
        while len(out) < SETUP_MIN_REPEATS or (
            sum(p["import_s"] + p["build_s"] for p in out) < SETUP_MIN_SECONDS
            and len(out) < SETUP_MAX_REPEATS
        ):
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), *argv],
                env=self.env, cwd=ROOT, capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
            out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        return out

    def build_in_process(self):
        """Import dynr here and build the ops (in-process workloads only)."""
        import dynr

        algebras = {
            f"{s}{r}": dynr.build_simple_lie_algebra(dynr.build_root_system(s, r))
            for s, r in self.wl.algebras
        }
        self.ops = workloads.materialize(self.wl, algebras)

    def traced_setup(self):
        """Cold builds, then the same builds from a warm cache, under the tracer."""
        import dynr

        cache = self.work / "setup-cache"
        for op_id, cache_dir in (("setup", ""), ("cache-fill", str(cache)),
                                 ("setup-cached", str(cache))):
            self.tracer.op = op_id
            for s, r in self.wl.algebras:
                dynr.build_simple_lie_algebra(dynr.build_root_system(s, r), cache_dir=cache_dir)
            if op_id == "setup":
                for s, r in self.wl.root_systems:
                    dynr.build_root_system(s, r)
        self.tracer.op = None

    # -- ops -------------------------------------------------------------------

    def run_inprocess(self, op, pass_no: int, op_id: int) -> dict:
        if self.tracer is not None:
            self.tracer.op = op_id
        detail = ""
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a crashed op is counted, the run goes on
            seconds = time.perf_counter() - t0
            outcome, detail = "crash", f"{type(exc).__name__}: {exc}"
        else:
            seconds = time.perf_counter() - t0
            verdict = op.verdict(result)
            outcome = "ok" if verdict == op.expect_pass else "wrong"
            if outcome == "wrong":
                detail = f"verdict {'PASS' if verdict else 'FAIL'}, expected the opposite"
        return {"pass": pass_no, "op": op.name, "seconds": seconds,
                "outcome": outcome, "detail": detail}

    def run_cli(self, op, pass_no: int, op_id: int, stdouts: dict) -> dict:
        env = self.env
        fixture = None
        if op.fixture:
            fixture = self.work / f"fixture-{op.fixture}-pass{pass_no}"
            env = dict(env, DYNR_FIXTURE_DIR=str(fixture))
        out_path = self.work / "stdout"
        err_path = self.work / "stderr"
        spans_path = self.work / f"spans-{op_id}.json.gz"
        if self.tracer is not None:
            cmd = [sys.executable, str(HERE / "launch.py"), str(spans_path), str(op_id),
                   "--", *op.argv]
        else:
            cmd = [sys.executable, "-m", "dynr", *op.argv]
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        stdouts[op.name] = stdout

        outcome, detail = "ok", ""
        if TRACEBACK in stderr or code not in (0, 1, 2, 3):
            last_line = stderr.decode(errors="replace").strip().splitlines()[-1:]
            outcome, detail = "crash", f"exit {code}, stderr ends {last_line}"
        elif code != op.expect_exit:
            outcome, detail = "wrong", f"exit {code}, expected {op.expect_exit}"
        elif op.json_out:
            try:
                doc = json.loads(stdout)
                good = op.check is None or op.check(doc)
            except (ValueError, KeyError, TypeError) as exc:
                good, detail = False, f"unreadable output: {exc}"
            if not good:
                outcome, detail = "wrong", detail or "output check failed"
        if outcome == "ok" and op.same_stdout_as and stdout != stdouts.get(op.same_stdout_as):
            outcome, detail = "wrong", f"output differs from {op.same_stdout_as}"
        if outcome == "ok" and fixture is not None and not any(fixture.glob("structure_*")):
            outcome, detail = "wrong", "structure-constant cache not written"

        if self.tracer is not None:
            self.tracer.op = op_id
            self.tracer.count("cli.process_s", seconds)
            if outcome == "crash":
                self.tracer.count("cli.exit_contract_violations")
            if spans_path.exists():
                with gzip.open(spans_path, "rt") as fh:
                    self.tracer.merge(json.load(fh))
                spans_path.unlink()
        return {"pass": pass_no, "op": op.name, "seconds": seconds, "outcome": outcome,
                "detail": detail, "exit": code, "rss_mb": usage.ru_maxrss / 1024}

    def run_passes(self, seconds: float, traced: bool) -> list:
        """Whole passes while the next one is expected to end within ``seconds``.

        At least one pass runs.  Returns each pass's campaign time: the sum
        of its op latencies, so the harness's bookkeeping between ops is
        left out.
        """
        durations = []
        start = time.perf_counter()
        while not durations or time.perf_counter() - start + durations[-1] <= seconds:
            pass_no = self.next_pass
            self.next_pass += 1
            stdouts = {}
            campaign = 0.0
            for op in self.ops:
                op_id = self.next_op_id
                self.next_op_id += 1
                if traced:
                    self.pass_of_op[op_id] = pass_no
                if op.kind == "cli":
                    rec = self.run_cli(op, pass_no, op_id, stdouts)
                else:
                    rec = self.run_inprocess(op, pass_no, op_id)
                rec["traced"] = traced
                rec["op_id"] = op_id
                self.records.append(rec)
                campaign += rec["seconds"]
            durations.append(campaign)
            if self.tracer is not None:
                self.tracer.op = None
        return durations

    # -- reporting -----------------------------------------------------------

    def peak_rss_mb(self) -> float:
        if self.wl.name == "cli-session":
            return self.child_rss_kb / 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(seed: int, nproc: int, threads: dict, probe: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "blas": probe["blas"],
        "cpu_model": cpu_model(),
        "nproc": nproc,
        "thread_env": threads,
        "platform": platform.platform(),
        "seed": seed,
    }


def run_one(args) -> int:
    if not (SRC / "dynr" / "__init__.py").is_file():
        print(f"error: no dynr sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads(nproc)
    env = dict(os.environ)
    env.pop("DYNR_FIXTURE_DIR", None)
    os.environ.pop("DYNR_FIXTURE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out_dir = ROOT / ".bench_build" / "perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, env, work, out_dir, nproc, threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, env, work, out_dir, nproc, threads) -> int:
    h = Harness(workloads.plan(args.workload, args.seed), env, work)
    probes = h.probe_setup()
    setup_samples = [p["import_s"] + p["build_s"] for p in probes]
    if h.wl.name != "cli-session":
        h.build_in_process()

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed, nproc, threads, probes[0]),
        "setup_samples_s": setup_samples,
    }
    if args.trace == 0:
        passes = h.run_passes(args.seconds, traced=False)
        op_times = [r["seconds"] for r in h.records]
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "campaign_s": (statistics.median(passes), "s"),
            "op_p50_s": (statistics.median(op_times), "s"),
            "peak_rss_mb": (h.peak_rss_mb(), "MiB"),
        }
        doc["campaign_samples_s"] = passes
    else:
        untraced = h.run_passes(args.seconds / 2, traced=False)
        h.tracer = tracer_mod.Tracer(lambda_box=workloads.LAMBDA_BOX)
        h.tracer.install()
        h.traced_setup()
        traced = h.run_passes(args.seconds / 2, traced=True)
        metrics = tracer_mod.summarize(h.tracer, h.pass_of_op)
        base, with_trace = statistics.median(untraced), statistics.median(traced)
        metrics["trace.overhead_s"] = (with_trace - base, "s")
        metrics["trace.overhead_frac"] = ((with_trace - base) / base, "ratio")
        doc["campaign_samples_s"] = {"untraced": untraced, "traced": traced}
        first = min(h.pass_of_op.values())
        first_ops = [i for i, p in h.pass_of_op.items() if p == first]
        profile = tracer_mod.op_profile(h.tracer, first_ops)
        by_id = {r["op_id"]: r for r in h.records}
        doc["op_profile"] = {
            by_id[i]["op"]: {
                "seconds": by_id[i]["seconds"],
                "self_s": {name: own for name, own in profile.get(i, [])},
            }
            for i in first_ops
        }
        doc["trace_absent"] = h.tracer.absent
        op_times = [r["seconds"] for r in h.records if not r["traced"]]

    attempted = len(h.records)
    failed = sum(r["outcome"] != "ok" for r in h.records)
    correct = not any(r["outcome"] == "wrong" for r in h.records)
    doc.update(
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        correct=correct,
        ops=h.records,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        ops_per_pass=len(h.ops),
    )
    hp = high_percentile(op_times)
    doc["op_high_percentile"] = {"p": hp[0], "value_s": hp[1]} if hp else None

    out_path = Path(args.out) if args.out else (
        out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if h.tracer is not None:
        spans_path = out_path.with_name(out_path.stem + "-spans.json.gz")
        h.tracer.dump(str(spans_path), extra={"pass_of_op": sorted(h.pass_of_op.items())})
        doc["spans_file"] = spans_path.name
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    print_summary(doc, metrics, op_times, out_path)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": doc["metrics"],
    }, sort_keys=True))
    return 0


def print_summary(doc, metrics, op_times, out_path):
    print(f"workload {doc['workload']}  seed {doc['seed']}  seconds {doc['seconds']:g}"
          f"  trace {doc['trace']}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:38s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':38s} {doc['fail_frac']:14.6g} ratio"
          f"  ({doc['failed']} of {doc['attempted']} ops)")
    hp = doc["op_high_percentile"]
    tail = f"; p{hp['p']} {hp['value_s']:.4g} s" if hp else ""
    print(f"  ops: {len(op_times)} timed, {doc['ops_per_pass']} per pass{tail}")
    for rec in doc["ops"]:
        if rec["outcome"] != "ok" and rec["pass"] == 0:
            print(f"  {rec['outcome']}: {rec['op']}: {rec['detail']}")
    for name, prof in doc.get("op_profile", {}).items():
        shares = ", ".join(f"{fn} {100 * own / prof['seconds']:.0f}%"
                           for fn, own in prof["self_s"].items())
        print(f"  profile {name} ({prof['seconds']:.3g} s): {shares}")
    if doc.get("trace_absent"):
        print(f"  absent from trace: {', '.join(doc['trace_absent'])}")
    print(f"  result file: {out_path}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
