"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run a few cheap jobs of each workload, not the timed loop.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import jobs
import run
from layers import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

# Counters that must be non-zero when a workload's jobs run traced, one
# group per layer the workload is said to exercise.
EXERCISED = {
    "grid-scan": {
        "kernels": ("kernels.div_one_minus.calls", "kernels.div_one_minus.updates"),
        "series": ("series.ps_div_pochhammer.calls", "series.ps_div_pochhammer.parts", "series.numerator.nnz"),
        "families": ("families.genfun_family.calls", "families.scan_signs.self_s", "families.identity_sides.s"),
        "cli": ("cli.cmd_scan.s", "cli.cmd_verify_identities.s"),
    },
    "deep-series": {
        "kernels": ("kernels.div_one_minus.calls", "kernels.div_one_minus.updates"),
        "series": ("series.ps_div_pochhammer.calls", "series.numerator.nnz", "series.coeff_bits_max"),
        "families": ("families.genfun_family.calls",),
        "asymptotics": ("asymptotics.mainterm_family.calls", "asymptotics.bessel_I_scaled.calls"),
        "cli": ("cli.cmd_coeffs.s", "cli.cmd_compare.s", "cli.write_table.s", "cli.bytes_out"),
    },
    "circle": {
        "kernels": ("kernels.div_one_minus.calls",),
        "series": ("series.ps_div_pochhammer.calls", "series.numerator.nnz"),
        "analytic": (
            "analytic.wright_coefficient.calls", "analytic.arc_split_diagnostic.calls",
            "analytic.samples", "analytic.samples_per_s", "analytic.int_margin_max",
        ),
        "cli": ("cli.cmd_circle.s",),
    },
}


@pytest.fixture(scope="module")
def tt():
    return run.load_program()


@pytest.fixture(scope="module")
def refs():
    return jobs.load_refs()


def cheap_jobs(workload):
    """The cheapest job of each kind in the workload, in job-list order."""
    chosen = {}
    for job in jobs.build_jobs(workload, 1):
        kind = job.kind
        if kind == "compare" and job.argv[-1] != "250":
            continue
        if kind == "circle" and int(job.argv[job.argv.index("--N") + 1]) >= 100:
            continue
        chosen.setdefault(kind, job)
    return list(chosen.values())


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_same_jobs(workload):
    assert jobs.build_jobs(workload, 7) == jobs.build_jobs(workload, 7)
    assert jobs.build_jobs(workload, 7) != jobs.build_jobs(workload, 8)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seed_keeps_the_shape_of_the_work(workload):
    def shape(job_list):
        out = []
        for job in job_list:
            argv = list(job.argv)
            if job.kind == "compare":
                argv = argv[: argv.index("--n")] + [argv[-1]]  # the top N sets the series order
            if job.kind == "circle":
                n = int(argv[argv.index("--N") + 1])
                argv[argv.index("--N") + 1] = next(i for i, (lo, hi) in enumerate(jobs.circle_bands()) if lo <= n < hi)
            out.append(tuple(map(str, argv)))
        return sorted(out)

    assert shape(jobs.build_jobs(workload, 1)) == shape(jobs.build_jobs(workload, 2))


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_run_counts_every_exercised_layer(tt, refs, workload, tmp_path):
    job_list = cheap_jobs(workload)
    plain = run.run_pass(tt, job_list, str(tmp_path), refs)
    tracer = Tracer()
    tracer.install(tt)
    try:
        traced = run.run_pass(tt, job_list, str(tmp_path), refs, tracer)
    finally:
        tracer.uninstall()
    assert set(plain.statuses) == set(traced.statuses) == {jobs.OK}
    metrics, _ = run.per_layer(tracer, [plain], [traced])
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    for layer, names in EXERCISED[workload].items():
        assert metrics["%s.self_s" % layer] > 0, layer
        for name in names:
            assert metrics[name] > 0, name
    assert abs(sum(tracer.layer_self.values()) - tracer.root_s) < 1e-6
    assert 0 <= metrics["trace.unattributed_share"] < run.MAX_UNATTRIBUTED


def test_uninstall_restores_the_program(tt):
    originals = {
        (mod, name): vars(mod)[name]
        for mod in (tt.kernels, tt.series, tt.families, tt.asymptotics, tt.analytic, tt.cli, tt.series.PowerSeries)
        for name in list(vars(mod))
    }
    tracer = Tracer()
    tracer.install(tt)
    assert tt.families.ps_div_pochhammer is not tt.series.ps_div_pochhammer
    tracer.uninstall()
    for (mod, name), value in originals.items():
        assert vars(mod)[name] is value, name


def test_corrupted_reference_digest_counts_as_failed(tt, refs, tmp_path):
    job_list = [j for j in jobs.build_jobs("grid-scan", 1) if j.kind == "scan"][:11]
    bad = copy.deepcopy(refs)
    bad["grid-scan"][job_list[3].key]["stdout_sha256"] = "0" * 64
    passes = [run.run_pass(tt, job_list, str(tmp_path), bad)]
    assert passes[0].statuses.count(jobs.WRONG) == 1
    metrics, notes = run.end_to_end(passes, len(job_list), setup_s=0.1)
    assert metrics["exact_ratio"] == pytest.approx(10 / 11)
    assert any("10/11 jobs exact" in note and "1 wrong" in note for note in notes)


def test_corrupted_compare_reference_is_wrong(tt, refs, tmp_path):
    job = next(j for j in cheap_jobs("deep-series") if j.kind == "compare")
    code, stdout, _ = run.call_cli(tt.cli, job.resolved_argv(str(tmp_path)))
    assert jobs.check_job(job, code, stdout, str(tmp_path), refs) == (jobs.OK, "")
    bad = copy.deepcopy(refs)
    n = job.argv[-1]
    bad["deep-series"]["compare"][job.key][n][0] += "1"
    assert jobs.check_job(job, code, stdout, str(tmp_path), bad)[0] == jobs.WRONG


@pytest.mark.parametrize(
    "code, rounded, exact, status",
    [
        (0, 7, 7, jobs.OK),
        (4, 8, 7, jobs.LIMIT),
        (0, 8, 7, jobs.WRONG),
        (4, 7, 7, jobs.WRONG),
        (2, 7, 7, jobs.WRONG),
        (0, 6, 6, jobs.WRONG),  # agrees with itself, not with the reference
    ],
)
def test_circle_rule(code, rounded, exact, status):
    job = jobs.Job("circle", "x", ("circle", "--N", str(jobs.CIRCLE_N_LO)))
    refs = {"circle": {"x": [7]}}
    stdout = "quadrature value : %r\nrounded          : %d\nexact            : %d\n" % (rounded + 0.1, rounded, exact)
    assert jobs.check_job(job, code, stdout, "", refs)[0] == status


def test_tail_is_the_percentile_with_ten_jobs_per_pass_beyond():
    latencies = list(range(1, 54)) * 3
    value, level = run.tail(latencies, 53)
    assert level == pytest.approx(43 / 53)
    assert value == pytest.approx(43, abs=1)
    assert run.window_quantile([5.0] * 40, 0.75, 0.05) == pytest.approx(5.0)
    # The window does not narrow when more passes are pooled.
    one_pass = [float(x) for x in range(1, 41)]
    assert run.tail(one_pass * 3, 40)[0] == pytest.approx(run.tail(one_pass, 40)[0])


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _saved(path, backend):
    rec = {"workload": "grid-scan", "seed": 1, "trace": 0, "env": {"backend": backend},
           "result": {"metrics": {"pass_s": {"value": 1.0, "unit": "s"}}}}
    path.write_text(json.dumps(rec) + "\n")
    return str(path)


def test_compare_refuses_different_backends(tmp_path, capsys):
    a = _saved(tmp_path / "a.jsonl", "python")
    assert compare.main([a, _saved(tmp_path / "b.jsonl", "python")]) == 0
    assert compare.main([a, _saved(tmp_path / "c.jsonl", "c")]) == 2
    assert "refusing" in capsys.readouterr().err
