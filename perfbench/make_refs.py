"""Write refs.json, the reference outputs every benchmark job is checked against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_refs.py

It covers every input any seed can draw: the 52 scans and verify-identities
of grid-scan, the four coefficient tables of deep-series and the compare
rows at every N that a compare job can ask for.  Before writing, the
deep-series series are cross-checked once against the independent
four-block route (genfun_family_via_decomposition) at the same order.
For circle it stores the exact coefficient of every (instance, variant, N);
the pass/fail rule is the program's own, quadrature rounded == exact.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
from fractions import Fraction

import jobs as jobs_mod
from run import WORK_DIR, call_cli, load_program


def _number(text):
    """A float column value; compare writes "sign-mismatch" in place of a ratio."""
    try:
        return float(text)
    except ValueError:
        return text


def main() -> int:
    tt = load_program()
    families = tt.families
    family_of = dict(zip(jobs_mod.FLAGS, families.FAMILIES))
    flag_of = dict(zip(families.FAMILIES, jobs_mod.FLAGS))
    program_grid = [(flag_of[s.family], s.R, s.S, s.k) for s in families.default_grid()]
    if program_grid != jobs_mod.grid_specs():
        raise SystemExit("the benchmark grid differs from default_grid()")

    refs = {"grid-scan": {}, "deep-series": {"coeffs": {}, "compare": {}}}
    for job in jobs_mod.grid_scan_jobs(random.Random(0)):
        code, stdout, _ = call_cli(tt.cli, list(job.argv))
        refs["grid-scan"][job.key] = {"exit": code, "stdout_sha256": jobs_mod.sha256_text(stdout)}
        print("%s: exit %s" % (job.key, code))

    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as out_dir:
        for job in jobs_mod.deep_series_jobs(random.Random(0)):
            if job.kind != "coeffs":
                continue
            code, _, _ = call_cli(tt.cli, job.resolved_argv(out_dir))
            path = os.path.join(out_dir, "coeffs_%s.csv" % job.key)
            if code != 0:
                raise SystemExit("coeffs %s exited %s" % (job.key, code))
            spec = families.FamilySpec(family_of[job.key], 3, 1, 1)
            order = jobs_mod.DEEP_N_MAX + 1
            direct = families.genfun_family(spec, order)
            if direct != families.genfun_family_via_decomposition(spec, order):
                raise SystemExit("%s: direct and four-block series differ" % job.key)
            with open(path, encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            if rows != ["%d,%d" % (n, direct[n]) for n in range(order)]:
                raise SystemExit("%s: coefficient table differs from the series" % job.key)
            refs["deep-series"]["coeffs"][job.key] = {
                "sha256": jobs_mod.sha256_file(path),
                "bytes": os.path.getsize(path),
            }
            print("coeffs %s: cross-checked at order %d" % (job.key, order))
    os.rmdir(WORK_DIR)

    ns = range(jobs_mod.COMPARE_STEP, max(jobs_mod.COMPARE_TOPS) + 1, jobs_mod.COMPARE_STEP)
    for flag in jobs_mod.FLAGS:
        argv = ["compare", "--family", flag, "--R", "3", "--S", "1", "--k", "1", "--form", "bessel"]
        for n in ns:
            argv += ["--n", str(n)]
        code, stdout, _ = call_cli(tt.cli, argv)
        if code != 0:
            raise SystemExit("compare %s exited %s" % (flag, code))
        table = {}
        for line in stdout.splitlines():
            n, ln_exact, ln_main, ratio = line.split(",")
            table[n] = [ln_exact, float(ln_main), _number(ratio)]
        refs["deep-series"]["compare"][flag] = table
        print("compare %s: %d rows" % (flag, len(table)))

    refs["circle"] = {}
    order = jobs_mod.CIRCLE_N_HI + 1
    for a, c, d, R, S in jobs_mod.CIRCLE_INSTANCES:
        p = tt.series.ThetaParams(Fraction(a), Fraction(c), d)
        for variant, genfun in zip(jobs_mod.CIRCLE_VARIANTS, (families.genfun_B, families.genfun_Bprime)):
            series = genfun(p, R, S, order)
            key = jobs_mod.circle_key(a, c, d, R, S, variant)
            refs["circle"][key] = series.coeffs[jobs_mod.CIRCLE_N_LO:]
    print("circle: exact coefficients for %d instances" % len(refs["circle"]))

    with open(jobs_mod.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
