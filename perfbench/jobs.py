"""Seeded job lists of the three workloads and the checks on their outputs.

A job is one ``theta-trunc`` invocation, given as its argv.  The seed only
chooses among inputs of equal kind (job order, N sets, N within fixed
bands), so every seed asks the program for the same amount of work of the
same shape.  Output checks compare against ``refs.json``, which
``make_refs.py`` generated from the unmodified program.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")

WORKLOADS = ("grid-scan", "deep-series", "circle")

FLAGS = ("C", "Cp", "D", "Dp")

# The acceptance-criterion-2 grid, fixed here so that a change to the
# program's default_grid() cannot change the workload.
GRID_RS = ((3, 1), (4, 1), (5, 2), (7, 3))
SCAN_N_HI = 2000

DEEP_N_MAX = 8000
# Each family gets one compare job per top N; the seed draws three more N
# (multiples of COMPARE_STEP) below the top, so the series order of every
# job, and with it the cost, does not depend on the seed.
COMPARE_TOPS = (250, 500, 750, 1000, 1250, 1500, 1750, 2000, 4000)
COMPARE_STEP = 50
COMPARE_EXTRA = 3

# (a, c, d, R, S) of acceptance criterion 5.
CIRCLE_INSTANCES = (
    ("6", "7", 2, 3, 1),
    ("6", "11", 5, 3, 1),
    ("6", "13", 7, 3, 1),
    ("8", "10", 3, 4, 1),
    ("10", "11", 3, 5, 2),
    ("9/2", "21/2", 6, 3, 1),
    ("9/2", "9/2", 1, 3, 1),
    ("15/2", "23/2", 4, 5, 2),
    ("1", "0", 0, 3, 1),
    ("3/2", "1/2", 0, 4, 1),
)
CIRCLE_VARIANTS = ("threeR", "twoR")
# N is drawn once from each of CIRCLE_BANDS equal bands of [lo, hi]; the
# range straddles the float64 limit near N = 300 on purpose, so that the
# share of jobs past the limit is measured (see LIMIT).
CIRCLE_N_LO, CIRCLE_N_HI = 50, 400
CIRCLE_BANDS = 8

# Relative tolerance for the float columns of compare (libm differences).
FLOAT_RTOL = 1e-9

EXIT_OK = 0
EXIT_QUADRATURE = 4

# OK: the answer equals the exact reference.  LIMIT: a circle job past the
# documented float64 quadrature limit, which the program itself reports
# with exit 4 and the correct exact value; the operation did what it
# promises, so it is not failed, but it is not exact either.  WRONG: a
# wrong output or an unexpected exit code, i.e. a failed operation.
OK, LIMIT, WRONG = "ok", "limit", "wrong"


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``{out}`` in argv stands for the output directory."""

    kind: str
    key: str
    argv: tuple

    def resolved_argv(self, out_dir: str) -> list:
        return [a.replace("{out}", out_dir) for a in self.argv]


def grid_specs():
    """(flag, R, S, k) of the 52 default-grid family instances."""
    specs = []
    for flag in FLAGS:
        ks = (0, 1, 2, 3) if flag == "D" else (1, 2, 3)
        for R, S in GRID_RS:
            for k in ks:
                specs.append((flag, R, S, k))
    return specs


def _family_argv(flag, R, S, k):
    return ("--family", flag, "--R", str(R), "--S", str(S), "--k", str(k))


def scan_key(flag, R, S, k) -> str:
    return "scan %s R=%d S=%d k=%d" % (flag, R, S, k)


def grid_scan_jobs(rng: random.Random):
    jobs = [
        Job("scan", scan_key(*spec), ("scan",) + _family_argv(*spec) + ("--n-hi", str(SCAN_N_HI)))
        for spec in grid_specs()
    ]
    jobs.append(Job("verify", "verify-identities", ("verify-identities",)))
    rng.shuffle(jobs)
    return jobs


def deep_series_jobs(rng: random.Random):
    jobs = [
        Job(
            "coeffs",
            flag,
            ("coeffs",) + _family_argv(flag, 3, 1, 1)
            + ("--n-max", str(DEEP_N_MAX), "--out", "{out}/coeffs_%s.csv" % flag),
        )
        for flag in FLAGS
    ]
    for flag in FLAGS:
        for top in COMPARE_TOPS:
            ns = sorted(rng.sample(range(COMPARE_STEP, top, COMPARE_STEP), COMPARE_EXTRA))
            ns.append(top)
            argv = ("compare",) + _family_argv(flag, 3, 1, 1) + ("--form", "bessel")
            for n in ns:
                argv += ("--n", str(n))
            jobs.append(Job("compare", flag, argv))
    rng.shuffle(jobs)
    return jobs


def circle_bands():
    """Half-open [lo, hi) integer bands covering [CIRCLE_N_LO, CIRCLE_N_HI]."""
    width = CIRCLE_N_HI + 1 - CIRCLE_N_LO
    edges = [CIRCLE_N_LO + width * i // CIRCLE_BANDS for i in range(CIRCLE_BANDS + 1)]
    return list(zip(edges, edges[1:]))


def circle_key(a, c, d, R, S, variant) -> str:
    return "%s,%s,%d,%d,%d %s" % (a, c, d, R, S, variant)


def circle_jobs(rng: random.Random):
    jobs = []
    for a, c, d, R, S in CIRCLE_INSTANCES:
        for variant in CIRCLE_VARIANTS:
            for lo, hi in circle_bands():
                n = rng.randrange(lo, hi)
                argv = (
                    "circle", "--a", a, "--c", c, "--d", str(d), "--R", str(R),
                    "--S", str(S), "--N", str(n), "--variant", variant,
                )
                jobs.append(Job("circle", circle_key(a, c, d, R, S, variant), argv))
    rng.shuffle(jobs)
    return jobs


BUILDERS = {
    "grid-scan": grid_scan_jobs,
    "deep-series": deep_series_jobs,
    "circle": circle_jobs,
}


def build_jobs(workload: str, seed: int):
    """The job list of one pass of ``workload`` for ``seed``."""
    return BUILDERS[workload](random.Random("%s/%d" % (workload, seed)))


def load_refs(path: str = REFS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks: each returns (status, reason)
# ---------------------------------------------------------------------------

def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _close(got: str, want) -> bool:
    try:
        g = float(got)
    except ValueError:
        return got == want
    if isinstance(want, str):
        return False
    return abs(g - want) <= FLOAT_RTOL * max(abs(want), 1e-300)


def check_job(job: Job, code, stdout: str, out_dir: str, refs: dict):
    """Classify one finished job as OK, LIMIT (reported precision limit) or WRONG."""
    if job.kind in ("scan", "verify"):
        ref = refs["grid-scan"][job.key]
        if code != ref["exit"]:
            return WRONG, "exit %r, expected %r" % (code, ref["exit"])
        if sha256_text(stdout) != ref["stdout_sha256"]:
            return WRONG, "stdout digest differs"
        return OK, ""
    if job.kind == "coeffs":
        ref = refs["deep-series"]["coeffs"][job.key]
        path = os.path.join(out_dir, "coeffs_%s.csv" % job.key)
        if code != EXIT_OK:
            return WRONG, "exit %r" % (code,)
        if not os.path.exists(path) or sha256_file(path) != ref["sha256"]:
            return WRONG, "coefficient table digest differs"
        return OK, ""
    if job.kind == "compare":
        return _check_compare(job, code, stdout, refs["deep-series"]["compare"][job.key])
    if job.kind == "circle":
        n = int(job.argv[job.argv.index("--N") + 1])
        return _check_circle(code, stdout, refs["circle"][job.key][n - CIRCLE_N_LO])
    raise ValueError("unknown job kind %r" % (job.kind,))


def _check_compare(job, code, stdout, ref):
    if code != EXIT_OK:
        return WRONG, "exit %r" % (code,)
    want_ns = sorted(int(job.argv[i + 1]) for i, a in enumerate(job.argv) if a == "--n")
    rows = [line.split(",") for line in stdout.splitlines()]
    if [r[0] for r in rows] != [str(n) for n in want_ns] or any(len(r) != 4 for r in rows):
        return WRONG, "rows do not match the requested N"
    for n, ln_exact, ln_main, ratio in rows:
        want = ref[n]
        if ln_exact != want[0]:
            return WRONG, "ln_exact at N=%s is %s, expected %s" % (n, ln_exact, want[0])
        if not (_close(ln_main, want[1]) and _close(ratio, want[2])):
            return WRONG, "main term at N=%s outside rtol %g" % (n, FLOAT_RTOL)
    return OK, ""


def parse_circle(stdout: str):
    """(quadrature value, rounded, exact) from ``circle`` output."""
    fields = {}
    for line in stdout.splitlines():
        name, _, value = line.partition(":")
        fields[name.strip()] = value.strip()
    return float(fields["quadrature value"]), int(fields["rounded"]), int(fields["exact"])


def _check_circle(code, stdout, ref_exact):
    """The program's own rule: exit 0 iff the quadrature rounds to the exact value.

    The exact coefficient must match the reference.  Exit 4 with rounded !=
    exact is the documented precision limit, which the program reports
    itself.  Any other combination is a wrong output.
    """
    try:
        value, rounded, exact = parse_circle(stdout)
    except (KeyError, ValueError):
        return WRONG, "unparsable output (exit %r)" % (code,)
    if exact != ref_exact:
        return WRONG, "exact coefficient %d, expected %d" % (exact, ref_exact)
    if rounded != round(value):
        return WRONG, "rounded %d is not round(%r)" % (rounded, value)
    if code == EXIT_OK and rounded == exact:
        return OK, ""
    if code == EXIT_QUADRATURE and rounded != exact:
        return LIMIT, "quadrature mismatch |%d - %d| = %d" % (rounded, exact, abs(rounded - exact))
    return WRONG, "exit %r with rounded %d, exact %d" % (code, rounded, exact)
