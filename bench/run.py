"""qfridge benchmark: end-to-end and per-layer metrics on four workloads.

Run from the repository root::

    python3 bench/run.py --workload figure_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                       # every workload, untraced

The program is imported from ``src/`` of the checkout the script sits in;
nothing is installed.  ``BENCHMARK.json`` at the root names the workloads
and metrics.  Each run verifies every output row (see ``verify.py``),
prints each metric by name with its unit, then an environment record, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
The full result, with every sample, goes to ``bench/out/``.

``--trace 0`` reports the end-to-end metrics.  The four timings are scaled
to a reference host speed.  The speed of a shared machine drifts over
minutes (by up to 1.7x on the 2-core VM the benchmark was tuned on, with
interpreter start-up drifting in lockstep), so each run also times a fixed
numpy kernel that does not use qfridge, interleaved with the workload, and
multiplies its times by ``CAL_REF_S`` / (median kernel time); rates are
divided by that factor.  The unscaled medians and the factor are printed
and kept in the result file.

- ``setup_s``: median time, over several fresh interpreters, from process
  start until ``import qfridge`` is done and the workload's configs are
  parsed;
- ``wall_s`` / ``wall_par2_s``: median wall time of one run of the workload
  with qfridge's ``--parallel 1`` / ``--parallel 2`` (output files
  included).  ``relaxation`` calls library functions that have no parallel
  path, so its ``wall_par2_s`` is its serial time;
- ``rows_ok_per_s``: median over serial runs of verified rows / ``wall_s``;
- ``ok_frac``: verified rows / rows attempted (1 - failed_frac; a
  fraction that is 0 on correct workloads cannot carry a relative bound);
- ``peak_rss_mib``: peak resident memory of the benchmark process, which
  runs one workload (``--workload all`` starts one process per workload).

``--trace 1`` alternates untraced and traced serial runs and reports, for
every traced function, ``<module>.<function>.calls``, ``.self_ms`` and
``.failed``, plus RK4 steps, closed classes solved, rows per report,
``failed_frac`` and the tracing overhead.  The spans of the last traced
run go to ``bench/out/trace-<workload>-seed<n>.json``.

``correct`` is false when any row fails that the references do not
already record as failing in the same or a worse way; the seed code's
known ``cold_edge`` failures are counted in ``failed`` and ``failed_frac``
but do not make a run incorrect, so a fix shows as a gain and a new or
worse wrong row as incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: One BLAS thread per process, set before numpy loads and inherited by
#: every process the benchmark starts.  With the library default (one
#: thread per core) two pool workers oversubscribe the two cores and the
#: parallel timings scatter by a factor of three.  Values already set in
#: the environment are kept; the environment record reports them.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh interpreters started per run, at least, to measure ``setup_s``,
#: and per round of serial and parallel runs.
SETUP_SAMPLES = 9
SETUP_PER_ROUND = 1
#: Calibration kernels timed before each timed run: short-term noise on a
#: shared host is as large as the drift, so the factor needs many samples.
CAL_PER_RUN = 2
#: Each of the serial and the parallel series gets at least this many runs.
MIN_RUNS = 3

#: Seconds the calibration kernel takes on the reference host (a 2-core
#: x86-64 VM, Python 3.11, numpy 2 with OpenBLAS on one thread).
CAL_REF_S = 0.05

SETUP_PROGRAM = """
import sys, time
import qfridge
from qfridge.cli import load_config
for path in sys.argv[1:]:
    load_config(path)
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here or produced an inconsistent result."""


def check_checkout() -> dict:
    """Make the checkout's ``src/`` importable and return BENCHMARK.json."""
    spec_path = ROOT / "BENCHMARK.json"
    for need in (SRC / "qfridge" / "__init__.py", ROOT / "configs", spec_path):
        if not need.exists():
            raise BenchmarkError(f"{need} not found; run from a qfridge checkout")
    sys.path.insert(0, str(SRC))
    import qfridge

    if Path(qfridge.__file__).resolve().parent != SRC / "qfridge":
        raise BenchmarkError(f"imported qfridge from {qfridge.__file__}, not {SRC}")
    return json.loads(spec_path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):  # numpy without mode="dicts"
        return {}


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure_setup(configs: list[Path]) -> float:
    """Seconds from launching a fresh interpreter until qfridge is imported
    and the configs are parsed (the child reads the same system clock)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", SETUP_PROGRAM, *map(str, configs)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    if done.returncode != 0:
        raise BenchmarkError(f"set-up interpreter failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - start


def calibration_sample() -> float:
    """Seconds for a fixed numpy kernel with the mix of the workloads, in
    about equal parts: an RK4 loop on a 64-vector (``propagate``), sums of
    complex Kronecker products (Liouvillian assembly) and small singular and
    eigenvalue decompositions (steady-state solves).  It does not use
    qfridge, so a change to the program cannot change it."""
    k = np.arange(1.0, 65.0)
    liou = 0.01 * (np.sin(np.outer(k, k + 1.0)) + 1j * np.cos(np.outer(k + 2.0, k)))
    a = 100.0 * liou[:8, 8:16]
    eye = np.eye(8)
    start = time.perf_counter()
    v = np.ones(64, complex) / 8.0
    for _ in range(600):
        k1 = liou @ v
        k2 = liou @ (v + 0.05 * k1)
        k3 = liou @ (v + 0.05 * k2)
        k4 = liou @ (v + 0.1 * k3)
        v = v + (0.1 / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v /= np.linalg.norm(v)
    acc = np.zeros((64, 64), complex)
    for _ in range(150):
        ada = a.conj().T @ a
        acc += 0.3 * (np.kron(a.conj(), a) - 0.5 * np.kron(eye, ada) - 0.5 * np.kron(ada.T, eye))
    for _ in range(25):
        np.linalg.svd(acc + liou, compute_uv=False)
        np.linalg.eigh(a + a.conj().T)
    return time.perf_counter() - start


class Tally:
    """Row verdicts over every run of a workload."""

    def __init__(self, known_failures: dict[str, str] | None = None):
        self.known = dict(known_failures or {})
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[str, str] = {}

    def add(self, output) -> int:
        """Count one run's verdicts; returns its verified rows."""
        ok = sum(v.ok for v in output.verdicts)
        self.attempted += len(output.verdicts)
        self.failed += len(output.verdicts) - ok
        for v in output.verdicts:
            if not v.ok and not (v.key in self.known
                                 and verify.no_worse(v.reason, self.known[v.key])):
                self.unexpected.setdefault(v.key, v.reason)
        return ok


def timed_run(wl, configs: list[Path], parallel: int, tally: Tally, tracer=None):
    """One run of the workload: (wall seconds, verified rows, output)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = wl.execute(configs, parallel)
        else:
            with tracer.span(tracing.ROOT_SPAN):
                result = wl.execute(configs, parallel)
    except Exception as exc:  # a failed run counts all its rows as failed
        wall = time.perf_counter() - start
        output = workloads.failed_run(wl.keys(), exc)
    else:
        wall = time.perf_counter() - start
        output = wl.check(result)
    return wall, tally.add(output), output


def run_untraced(wl, configs: list[Path], seconds: float, tally: Tally) -> dict:
    """Alternate set-up samples, serial runs and parallel runs until the
    time is up, so that slow and fast phases of a shared machine reach
    every series alike.  A workload without a parallel path runs serially
    only, and its serial runs are its parallel series too."""
    modes = (1, 2) if getattr(wl, "has_parallel", True) else (1,)
    for parallel in modes:  # the first call in a process runs slow
        timed_run(wl, configs, parallel, tally)
    setup, serial, ok_rate, kernel = [], [], [], []
    par2 = [] if len(modes) == 2 else serial
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(setup) < SETUP_SAMPLES
           or min(len(serial), len(par2)) < MIN_RUNS):
        setup += [measure_setup(configs) for _ in range(SETUP_PER_ROUND)]
        for parallel in (modes if len(serial) % 2 == 0 else modes[::-1]):
            kernel += [calibration_sample() for _ in range(CAL_PER_RUN)]
            wall, ok, _ = timed_run(wl, configs, parallel, tally)
            if parallel == 1:
                serial.append(wall)
                ok_rate.append(ok / wall)
            else:
                par2.append(wall)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(serial),
        "wall_par2_s": statistics.median(par2),
        "rows_ok_per_s": statistics.median(ok_rate),
    }
    factor = CAL_REF_S / statistics.median(kernel)
    metrics = {name: value * factor for name, value in raw.items()}
    metrics["rows_ok_per_s"] = raw["rows_ok_per_s"] / factor
    metrics["ok_frac"] = (tally.attempted - tally.failed) / tally.attempted
    metrics["peak_rss_mib"] = rss_mib
    samples = {"setup_s": setup, "wall_s": serial, "wall_par2_s": par2,
               "rows_ok_per_s": ok_rate, "calibration_s": kernel}
    return {"metrics": metrics, "samples": samples,
            "host": {"speed_factor": factor, "raw": raw}}


def run_traced(wl, configs: list[Path], seconds: float, tally: Tally,
               trace_path: Path) -> dict:
    timed_run(wl, configs, 1, tally)
    plain, traced = [], []
    last = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_RUNS:
        for use_tracer in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if not use_tracer:
                plain.append(timed_run(wl, configs, 1, tally)[0])
                continue
            with tracing.Tracer() as tracer:
                wall, _, output = timed_run(wl, configs, 1, tally, tracer)
            traced.append((wall, output.rows_emitted, tracer))
            last = tracer
    last.write(trace_path)

    def med(values):
        return statistics.median(values)

    metrics = {}
    for name in tracing.LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = med([t.calls[name] for _, _, t in traced])
        metrics[f"{name}.self_ms"] = med([t.self_ns[name] / 1e6 for _, _, t in traced])
        metrics[f"{name}.failed"] = med([t.failed[name] for _, _, t in traced])
    for name, (counter, _) in tracing.RESULT_COUNTERS.items():
        key = f"{name}.{counter}"
        metrics[key] = med([t.counters[key] for _, _, t in traced])
    metrics["thermo.build_report.useful_ratio"] = med([
        rows / t.calls["thermo.build_report"] if t.calls["thermo.build_report"] else 0.0
        for _, rows, t in traced
    ])
    metrics["failed_frac"] = tally.failed / tally.attempted
    metrics["trace.wall_ms"] = med([w for w, _, _ in traced]) * 1e3
    metrics["trace.overhead_ms"] = metrics["trace.wall_ms"] - med(plain) * 1e3
    metrics["trace.layer_frac"] = med([
        sum(t.self_ns[n] for n in tracing.LAYER_FUNCTIONS) / (wall * 1e9)
        for wall, _, t in traced
    ])
    samples = {"wall_s": plain, "traced_wall_s": [w for w, _, _ in traced]}
    return {"metrics": metrics, "samples": samples}


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name]()
    configs = wl.prepare(seed)
    tally = Tally(getattr(wl, "known_failures", None))
    if trace:
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        measured = run_traced(wl, configs, seconds, tally, trace_path)
        kind = "per_layer"
    else:
        measured = run_untraced(wl, configs, seconds, tally)
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(measured["metrics"]):
        raise BenchmarkError(
            f"metrics differ from BENCHMARK.json {kind}: "
            f"{sorted(set(units) ^ set(measured['metrics']))}"
        )
    metrics = {n: {"value": float(measured["metrics"][n]), "unit": units[n]} for n in units}
    return {
        "workload": name,
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "unexpected_failures": dict(list(tally.unexpected.items())[:20]),
        "samples": measured["samples"],
        "host": measured.get("host"),
    }


def run_each(names: list[str], args) -> dict:
    """``--workload all``: run every workload in a child process of its own,
    so that each reports its own peak memory, and combine their results."""
    results = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise BenchmarkError(f"workload {name} exited {done.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        results.append((name, json.loads(lines[-1])))
    return {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}/{n}": m for name, r in results for n, m in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = check_checkout()
        names = [w["name"] for w in spec["workloads"]]
        if set(names) != set(workloads.WORKLOADS):
            raise BenchmarkError("workloads differ from BENCHMARK.json")
        if args.workload == "all":
            print(json.dumps(run_each(names, args)))
            return 0
        if args.workload not in names:
            raise BenchmarkError(f"unknown workload {args.workload!r}; one of {names}")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        env = environment(args.seed)
        res = run_workload(spec, args.workload, args.seed, seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    (OUT / f"result-{res['workload']}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(res, environment=env), indent=1), encoding="utf-8")
    print(f"{res['workload']}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']}")
    for key, reason in res["unexpected_failures"].items():
        print(f"  unexpected failure {key}: {reason}")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if res["host"]:
        raw = ", ".join(f"{n} {v:.6g}" for n, v in res["host"]["raw"].items())
        print(f"host speed factor {res['host']['speed_factor']:.4f}; unscaled: {raw}")
    print("environment " + json.dumps(env))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
