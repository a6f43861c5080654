"""End-to-end benchmark of the theta-trunc CLI, with a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-scan --seed 1 --seconds 40 --trace 0

Each job calls ``theta_trunc.cli.main(argv)`` in this process, with stdout
captured and output files sent to a scratch directory inside the checkout.
The load is one closed-loop client: a job starts when the previous one
returns.  Whole passes over the workload's job list run until the next pass
would end after ``--seconds``; at least one pass always runs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (per pass) plus the tracing overhead.  The last stdout line is one JSON
object; the lines before it name every metric with its unit and the
environment the numbers came from.  The exit code is 1 if any job gave a
wrong output, 2 if the program or the references cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import mpmath

import jobs as jobs_mod
from layers import CLI_COMMANDS, LAYERS, Tracer

ROOT = os.path.dirname(jobs_mod.HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

SETUP_REPS = 7
# The host's speed drifts by 20-30 % between 30-second windows, in phases
# of a few seconds.  calibrate() is timed before every job, after the last
# one and in every set-up child.  Times are reported scaled to the
# speed at which it takes CAL_REF_S, using for each job the median of the
# two probes before it and the two after it.
CAL_REF_S = 0.004
# The tail is the highest latency percentile with this many jobs of each
# pass beyond it, estimated over a window of TAIL_HALF_WIDTH jobs of each
# pass on either side of it.
TAIL_BEYOND = 10
TAIL_HALF_WIDTH = 2
# The share of traced job time outside the cli.main root span (output
# capture and call overhead in this benchmark) may not exceed this.
MAX_UNATTRIBUTED = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "exact_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no theta_trunc sources to benchmark."""


def load_program():
    """Import theta_trunc from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "theta_trunc", "cli.py")):
        raise ProgramMissing("no theta_trunc sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import theta_trunc
    import theta_trunc.cli

    if not os.path.abspath(theta_trunc.__file__).startswith(SRC + os.sep):
        raise ProgramMissing("theta_trunc imported from %s, not %s" % (theta_trunc.__file__, SRC))
    return theta_trunc


def environment(tt) -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "backend": tt.kernels.BACKEND,
        "theta_trunc_pure": "THETA_TRUNC_PURE" in os.environ,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def calibrate() -> float:
    """Seconds of a fixed big-integer prefix-sum loop: the benchmark's speed probe."""
    c = [1] * 2000
    t0 = time.perf_counter()
    for m in range(1, 25):
        for i in range(m, 2000):
            c[i] += c[i - m]
    return time.perf_counter() - t0


def scale(seconds, probes):
    """``seconds[i]`` at reference speed; ``probes[i]`` and ``probes[i + 1]`` bracket it."""
    return [
        t * CAL_REF_S / statistics.median(probes[max(0, i - 1): i + 3])
        for i, t in enumerate(seconds)
    ]


@dataclass
class PassResult:
    wall: float = 0.0
    latencies: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    statuses: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def scaled(self):
        return scale(self.latencies, self.probes)

    @property
    def seconds(self):
        """The pass's time in jobs, at reference speed."""
        return sum(self.scaled)


def call_cli(cli, argv):
    """(exit code, stdout, seconds) of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception:  # a crash is a wrong output, not a benchmark error
        code = "exception: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
    return code, out.getvalue(), time.perf_counter() - t0


def run_pass(tt, job_list, out_dir, refs, tracer=None) -> PassResult:
    """One closed-loop pass; outputs are checked after the pass wall time."""
    res = PassResult()
    finished = []
    if tracer is not None:
        tracer.begin_pass()
    t0 = time.perf_counter()
    for job in job_list:
        res.probes.append(calibrate())
        if tracer is not None:
            tracer.job_margins = []
        code, stdout, dt = call_cli(tt.cli, job.resolved_argv(out_dir))
        res.latencies.append(dt)
        finished.append((job, code, stdout, tracer.job_margins if tracer else ()))
    res.probes.append(calibrate())
    res.wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_pass()
    for job, code, stdout, margins in finished:
        status, why = jobs_mod.check_job(job, code, stdout, out_dir, refs)
        res.statuses.append(status)
        if status != jobs_mod.OK:
            res.problems.append("%s %s: %s" % (status.upper(), " ".join(job.argv), why))
        if tracer is not None:
            tracer.add("cli.bytes_out", len(stdout.encode("utf-8")))
            if job.kind == "circle":
                if status == jobs_mod.OK:
                    tracer.maxima["analytic.int_margin_max"] = max(
                        [tracer.maxima["analytic.int_margin_max"], *margins])
                else:
                    tracer.add("analytic.mismatches", 1)
    return res


def measure_setup(reps=SETUP_REPS) -> float:
    """Median seconds from a cold interpreter start until theta_trunc.cli is imported.

    CLOCK_MONOTONIC is shared by all processes, so the child's reading after
    the import minus the parent's reading before the spawn is the set-up time.
    The child then times calibrate() itself, so each start is scaled by the
    speed of the CPU it ran on.
    """
    code = (
        "import statistics, sys, time\n"
        "sys.path.insert(0, %r)\n"
        "import theta_trunc.cli\n"
        "t = time.monotonic()\n"
        "if not theta_trunc.cli.__file__.startswith(%r):\n"
        "    sys.exit(3)\n"
    ) % (SRC, SRC + os.sep) + inspect.getsource(calibrate) + (
        "print(repr(t), repr(statistics.median(calibrate() for _ in range(3))))\n"
    )
    scaled = []
    for _ in range(reps):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        ready, probe = map(float, proc.stdout.split())
        scaled.append((ready - t0) * CAL_REF_S / probe)
    return statistics.median(scaled)


def timed_passes(seconds, run_one):
    """Run passes, at least one, until the next would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_one())
        if time.perf_counter() - start + passes[-1].wall > seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def window_quantile(values, p, h):
    """Mean of the sample quantile function over [p - h, p + h], clipped to [0, 1].

    Each order statistic is weighted by the share of the window that its
    rank interval covers.  Single jobs jitter by tens of percent on a shared
    host; a single order statistic inherits that jitter, while this mean
    averages it away.  Unlike a Harrell-Davis estimate, whose bandwidth
    narrows as more passes are pooled, the bandwidth is fixed, so the value
    does not depend on how many passes fit into the run.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo, hi = max(0.0, p - h), min(1.0, p + h)
    total = 0.0
    for i, x in enumerate(ordered):
        overlap = min(hi, (i + 1) / n) - max(lo, i / n)
        if overlap > 0:
            total += overlap * x
    return total / (hi - lo)


def tail(latencies, per_pass):
    """(value, level) at the highest percentile with TAIL_BEYOND jobs of each pass beyond it."""
    if per_pass <= TAIL_BEYOND:
        raise ValueError("a pass needs more than %d jobs for a tail" % TAIL_BEYOND)
    level = (per_pass - TAIL_BEYOND) / per_pass
    return window_quantile(latencies, level, TAIL_HALF_WIDTH / per_pass), level


def end_to_end(passes, per_pass, setup_s):
    latencies = [x for p in passes for x in p.scaled]
    tail_s, level = tail(latencies, per_pass)
    attempted = len(latencies)
    statuses = [s for p in passes for s in p.statuses]
    exact, limit = statuses.count(jobs_mod.OK), statuses.count(jobs_mod.LIMIT)
    metrics = {
        "setup_s": setup_s,
        "pass_s": statistics.median(p.seconds for p in passes),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "exact_ratio": exact / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    probes = [x for p in passes for x in p.probes]
    notes = [
        "times are scaled to reference speed: calibrate() median %.6f s against %.6f s (range %.6f..%.6f)"
        % (statistics.median(probes), CAL_REF_S, min(probes), max(probes)),
        "unscaled: pass_s %.4f s, job_p50_s %.4f s"
        % (statistics.median(sum(p.latencies) for p in passes),
           statistics.median(x for p in passes for x in p.latencies)),
        "setup_s: median of %d cold interpreter starts" % SETUP_REPS,
        "pass_s: median of %d passes of %d jobs" % (len(passes), per_pass),
        "job_tail_s: p%.1f of %d jobs (%d jobs of each pass beyond it), mean over +-%d jobs of each pass"
        % (100 * level, attempted, TAIL_BEYOND, TAIL_HALF_WIDTH),
        "exact_ratio: %d/%d jobs exact; %d past the quadrature limit (exit 4), %d wrong"
        % (exact, attempted, limit, attempted - exact - limit),
    ]
    return metrics, notes


def _per_layer_units():
    units = {}
    for kernel, work in (
        ("div_one_minus", "updates"), ("mul_one_minus", "updates"), ("conv_trunc", "mults"), ("inv_unit", "mults"),
    ):
        units.update({"kernels.%s.calls" % kernel: "count", "kernels.%s.s" % kernel: "s",
                      "kernels.%s.%s" % (kernel, work): "count"})
    units.update({
        "series.ps_div_pochhammer.calls": "count",
        "series.ps_div_pochhammer.s": "s",
        "series.ps_div_pochhammer.parts": "count",
        "series.numerator.s": "s",
        "series.numerator.nnz": "count",
        "series.pochhammer.s": "s",
        "series.qbinomial.s": "s",
        "series.ps_mul.s": "s",
        "series.ps_inv.s": "s",
        "series.coeff_bits_max": "bits",
        "families.genfun_family.calls": "count",
        "families.genfun_family.self_s": "s",
        "families.via_decomposition.s": "s",
        "families.scan_signs.self_s": "s",
        "families.identity_sides.s": "s",
        "families.denominator_reuse": "ratio",
        "asymptotics.mainterm_family.calls": "count",
        "asymptotics.mainterm_family.s": "s",
        "asymptotics.bessel_I_scaled.calls": "count",
        "asymptotics.bessel_I_scaled.s": "s",
        "analytic.wright_coefficient.calls": "count",
        "analytic.wright_coefficient.s": "s",
        "analytic.arc_split_diagnostic.calls": "count",
        "analytic.arc_split_diagnostic.s": "s",
        "analytic.samples": "count",
        "analytic.samples_per_s": "1/s",
        "analytic.int_margin_max": "1",
        "analytic.mismatches": "count",
    })
    for cmd in CLI_COMMANDS:
        units["cli.%s.s" % cmd] = "s"
    units["cli.write_table.s"] = "s"
    units["cli.bytes_out"] = "bytes"
    for layer in LAYERS:
        units["%s.self_s" % layer] = "s"
    units["trace.overhead"] = "ratio"
    units["trace.unattributed_share"] = "ratio"
    return units


PER_LAYER_UNITS = _per_layer_units()


def per_layer(tracer: Tracer, plain, traced):
    """Per-layer metrics: sums are per traced pass; maxima and ratios are not."""
    n = len(traced)
    v = tracer.values
    m = {name: v.get(name, 0) / n for name in PER_LAYER_UNITS}
    divisions = v["series.ps_div_pochhammer.calls"]
    m["families.denominator_reuse"] = tracer.denominators_distinct / divisions if divisions else 0.0
    analytic_s = v["analytic.wright_coefficient.s"] + v["analytic.arc_split_diagnostic.s"]
    m["analytic.samples_per_s"] = v["analytic.samples"] / analytic_s if analytic_s else 0.0
    m["series.coeff_bits_max"] = tracer.maxima["series.coeff_bits_max"]
    m["analytic.int_margin_max"] = tracer.maxima["analytic.int_margin_max"]
    for layer in LAYERS:
        m["%s.self_s" % layer] = tracer.layer_self[layer] / n
    traced_jobs_s = sum(sum(p.latencies) for p in traced)
    m["trace.overhead"] = statistics.median(p.seconds for p in traced) / statistics.median(p.seconds for p in plain)
    m["trace.unattributed_share"] = (traced_jobs_s - tracer.root_s) / traced_jobs_s
    notes = [
        "per-layer figures are per traced pass (%d traced, %d untraced passes); their seconds are unscaled"
        % (n, len(plain)),
        "layer self times sum to %.4f s of %.4f s in cli.main root spans per pass"
        % (sum(tracer.layer_self.values()) / n, tracer.root_s / n),
    ]
    return m, notes


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", default=None, help="append the result set as one JSON line to this file")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        tt = load_program()
        refs = jobs_mod.load_refs()
    except (ProgramMissing, ImportError, OSError) as exc:
        print("perfbench: cannot start: %s" % exc, file=sys.stderr)
        return 2
    env = environment(tt)
    job_list = jobs_mod.build_jobs(args.workload, args.seed)
    print("env %s" % json.dumps(env, sort_keys=True))
    print("workload %s seed %d: %d jobs per pass" % (args.workload, args.seed, len(job_list)))

    os.makedirs(WORK_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=WORK_DIR)
    saved_out = os.environ.get("THETA_TRUNC_OUT")
    os.environ["THETA_TRUNC_OUT"] = out_dir
    trace_ok = True
    try:
        if args.trace == 0:
            setup_s = measure_setup()
            passes = timed_passes(args.seconds, lambda: run_pass(tt, job_list, out_dir, refs))
            metrics, notes = end_to_end(passes, len(job_list), setup_s)
            units = END_TO_END_UNITS
        else:
            tracer = Tracer()
            plain, traced = [], []

            def untraced_then_traced():
                plain.append(run_pass(tt, job_list, out_dir, refs))
                tracer.install(tt)
                try:
                    traced.append(run_pass(tt, job_list, out_dir, refs, tracer))
                finally:
                    tracer.uninstall()
                return PassResult(wall=plain[-1].wall + traced[-1].wall)

            timed_passes(args.seconds, untraced_then_traced)
            passes = plain + traced
            metrics, notes = per_layer(tracer, plain, traced)
            units = PER_LAYER_UNITS
            if metrics["trace.unattributed_share"] > MAX_UNATTRIBUTED:
                trace_ok = False
                notes.append("WRONG trace: unattributed share above %.2f" % MAX_UNATTRIBUTED)
    finally:
        if saved_out is None:
            os.environ.pop("THETA_TRUNC_OUT", None)
        else:
            os.environ["THETA_TRUNC_OUT"] = saved_out
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)

    statuses = [s for p in passes for s in p.statuses]
    problems = sorted({msg for p in passes for msg in p.problems})
    correct = trace_ok and jobs_mod.WRONG not in statuses
    for msg in problems:
        print(msg, file=sys.stderr if msg.startswith("WRONG") else sys.stdout)
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print("%s %r %s" % (name, value, units[name]))
    result = {
        "correct": correct,
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": statuses.count(jobs_mod.WRONG),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.save:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env, "result": result}
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    if not correct:
        print("perfbench: WRONG OUTPUT in %s" % args.workload, file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
