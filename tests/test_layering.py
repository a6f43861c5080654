"""layering: each module imports on its own, loading only the layers below it
and not numpy, which only the circle grid loads, nor mpmath, which no run
loads, nor dataclasses, inspect or json, which no start-up needs; no module
defines an exception type of its own; each module defines only what the
CLI reaches or the benchmark uses; every name the
benchmark's tracer patches exists and is restored, and every package name
its scripts read exists, its series supporting the reads made of them."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import theta_trunc
import theta_trunc.cli

# Lowest layer first; each module may import only those before it, and
# none imports numpy or mpmath.
LAYERS = ("kernels", "series", "families", "asymptotics", "analytic", "cli")

# Standard modules that importing a layer must not add: dataclasses brings
# inspect, ast, dis and tokenize, more than the package's own import costs,
# and json is needed only for a JSON row (cli._line).
COLD_START_FREE = ("dataclasses", "inspect", "json")


def fresh_python(code, cwd=None):
    """stdout of ``code`` run by a fresh interpreter that imports this
    package from its source directory."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(theta_trunc.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


@pytest.mark.parametrize("module", LAYERS)
def test_module_loads_only_lower_layers(module):
    # Only what the import adds counts, so an interpreter whose start-up
    # already loads one of COLD_START_FREE still passes.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import theta_trunc.%s\n"
        "print(sorted(m for m in sys.modules if m.startswith('theta_trunc.')))\n"
        "print('numpy' in sys.modules, 'mpmath' in sys.modules)\n"
        "print(sorted(set(%r) & (set(sys.modules) - before)))\n" % (module, COLD_START_FREE)
    )
    loaded, numpy_mpmath, added = fresh_python(code).splitlines()
    below = LAYERS[: LAYERS.index(module) + 1]
    assert loaded == str(sorted("theta_trunc." + m for m in below))
    assert numpy_mpmath == "False False"
    assert added == "[]"


def test_no_module_defines_an_exception_type():
    # Invalid input raises ValueError with a message; cli.main turns it
    # into exit 2, so no caller needs a type of its own.
    own = [
        "%s.%s" % (module, name)
        for module in LAYERS
        for name, obj in vars(importlib.import_module("theta_trunc." + module)).items()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__.startswith("theta_trunc")
    ]
    assert own == []


# Each CLI run but circle's works on exact series and Bessel terms only;
# numpy loads with the first circle grid.  No run loads mpmath, and these
# runs, all CSV, do not load json.
EXACT_RUNS = (
    "coeffs --family C --R 3 --S 1 --k 1 --n-max 20 --out coeffs.csv",
    "scan --family Dp --R 3 --S 1 --k 1 --n-hi 50",
    "compare --family C --R 3 --S 1 --k 1 --n 40 --form elementary",
    "compare --family C --R 3 --S 1 --k 1 --n 40 --form bessel",
    "verify-identities --order 50 --decomp-order 10",
)


def test_cli_loads_numpy_only_for_circle(tmp_path):
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from theta_trunc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv.split()) for argv in %r]\n"
        "print(codes, 'numpy' in sys.modules, 'mpmath' in sys.modules,\n"
        "      'json' in set(sys.modules) - before)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main('circle --a 6 --c 7 --d 2 --R 3 --S 1 --N 50'.split())\n"
        "print(code, 'numpy' in sys.modules, 'mpmath' in sys.modules)\n" % (EXACT_RUNS,)
    )
    exact, circle = fresh_python(code, cwd=tmp_path).splitlines()
    assert exact == "%s False False False" % ([0] * len(EXACT_RUNS))
    assert circle == "0 True False"


def _names_used(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_every_module_defines_only_what_runs():
    # Each module-level name of a layer is reachable from cli.main or
    # cli.console_main, each definition reaching the names its body
    # mentions (no name is defined in two layers, so a name is its
    # definition), or the benchmark reads it or its tracer patches it under
    # this or another module's name (families imports series.qbinomial for
    # it).  A benchmark name is not a root, so a helper that only it uses
    # fails.  The paper's block ladder and point evaluators live with the
    # tests (tests/oracles.py, tests/paper_lemmas.py).
    modules = {m: importlib.import_module("theta_trunc." + m) for m in LAYERS}
    module_of, bodies = {}, {}
    for module in LAYERS:
        with open(modules[module].__file__) as f:
            for node in ast.parse(f.read()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                else:
                    continue
                for name in names:
                    assert name not in module_of, name
                    module_of[name], bodies[name] = module, node

    reached, todo = set(), ["main", "console_main"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [used for used in _names_used(bodies[name]) if used in bodies]

    root = Path(__file__).resolve().parents[1] / "perfbench"
    reads = _package_reads(root / "make_refs.py") | _package_reads(root / "run.py")
    patched, _ = _tracer_patches()
    wrapped = [
        vars(importlib.import_module(owner))[attr]
        for owner, attr in patched
        if owner.startswith("theta_trunc.")  # not PowerSeries's methods
    ]
    unused = [
        "%s.%s" % (module_of[name], name)
        for name in bodies
        if name not in reached
        and (module_of[name], name) not in reads
        and not any(vars(modules[module_of[name]])[name] is fn for fn in wrapped)
    ]
    assert unused == []


def _tracer_patches():
    """(patched, moved): the (owner, attribute) pairs that perfbench/layers.py's
    ``Tracer.install`` replaces, and those that differ after its ``uninstall``.
    The file is compiled from its source, so nothing is written next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    layers = types.ModuleType("perfbench_layers")
    exec(compile(path.read_text(), str(path), "exec"), vars(layers))
    owners = [importlib.import_module("theta_trunc." + m) for m in LAYERS]
    owners.append(theta_trunc.series.PowerSeries)
    before = [dict(vars(owner)) for owner in owners]

    tracer = layers.Tracer()
    try:
        tracer.install(theta_trunc)
        patched = [
            (owner.__name__, attr)
            for owner, old in zip(owners, before)
            for attr, value in vars(owner).items()
            if old.get(attr) is not value
        ]
    except KeyError as exc:
        pytest.fail("perfbench/layers.py patches %s, which the package does not define" % exc)
    finally:
        tracer.uninstall()

    after = [dict(vars(owner)) for owner in owners]
    moved = [
        (owner.__name__, attr)
        for owner, old, new in zip(owners, before, after)
        for attr in old.keys() | new.keys()
        if old.get(attr) is not new.get(attr)
    ]
    return patched, moved


def test_benchmark_tracer_patches_existing_names_and_restores_them():
    # perfbench/layers.py wraps package functions by name for the traced
    # benchmark passes; a deleted or renamed name fails here.
    patched, moved = _tracer_patches()
    assert patched
    assert moved == []


def _package_reads(path):
    """(module, name) for each ``families.<name>`` and ``tt.<module>.<name>``
    in the script at ``path``, (module, None) for each ``tt.<module>``."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name):
            if owner.id == "families":
                reads.add(("families", node.attr))
            elif owner.id == "tt":
                reads.add((node.attr, None))
        elif isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name) and owner.value.id == "tt":
            reads.add((owner.attr, node.attr))
    return reads


def test_benchmark_scripts_read_existing_names():
    # perfbench/make_refs.py and perfbench/run.py read package names
    # directly (``tt`` is the imported package, ``families`` its module):
    # the reference builder calls genfun_B, genfun_Bprime and the
    # decomposition route, the runner records kernels.BACKEND.  A deleted
    # or renamed name fails here, not when the references are rebuilt.
    root = Path(__file__).resolve().parents[1] / "perfbench"
    reads = _package_reads(root / "make_refs.py") | _package_reads(root / "run.py")
    assert {("families", "genfun_B"), ("series", "ThetaParams"), ("kernels", "BACKEND")} <= reads
    missing = [
        "%s.%s" % (module, name) if name else module
        for module, name in sorted(reads, key=str)
        if module not in LAYERS
        or name is not None and not hasattr(importlib.import_module("theta_trunc." + module), name)
    ]
    assert missing == []


def test_series_the_reference_builder_reads_support_its_reads():
    # perfbench/make_refs.py indexes genfun_family(spec, order)[n], compares
    # it with the decomposition route by !=, and reads the .coeffs of
    # genfun_B and genfun_Bprime; _package_reads sees only the names, so a
    # deleted __getitem__ or __eq__ fails here, not when the references are
    # rebuilt.
    families = theta_trunc.families
    order = 12
    for family in families.FAMILIES:
        spec = families.FamilySpec(family, 3, 1, 1)
        direct = families.genfun_family(spec, order)
        assert not direct != families.genfun_family_via_decomposition(spec, order), spec
        assert direct != families.genfun_family(families.FamilySpec(family, 3, 1, 2), order), spec
        assert [direct[n] for n in range(order)] == direct.coeffs, spec
    p = theta_trunc.series.ThetaParams(6, 13, 7)
    for genfun in (families.genfun_B, families.genfun_Bprime):
        coeffs = genfun(p, 3, 1, order).coeffs
        assert len(coeffs) == order and coeffs[7] == 1 and not any(coeffs[:7]), genfun
