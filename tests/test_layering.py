"""layering: each module imports on its own, loading only the layers below it
and not numpy, which only the circle grid loads, nor mpmath, which no run
loads; no module defines an exception type of its own; ``analytic`` defines
only what ``cli`` runs."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import theta_trunc

# Lowest layer first; each module may import only those before it, and
# none imports numpy or mpmath.
LAYERS = ("kernels", "series", "families", "asymptotics", "analytic", "cli")


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
    code = (
        "import sys, theta_trunc.%s\n"
        "print(sorted(m for m in sys.modules if m.startswith('theta_trunc.')))\n"
        "print('numpy' in sys.modules, 'mpmath' in sys.modules)\n" % module
    )
    loaded, numpy_mpmath = fresh_python(code).splitlines()
    below = LAYERS[: LAYERS.index(module) + 1]
    assert loaded == str(sorted("theta_trunc." + m for m in below))
    assert numpy_mpmath == "False False"


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
# numpy loads with the first circle grid.  No run loads mpmath.
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
        "from theta_trunc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv.split()) for argv in %r]\n"
        "print(codes, 'numpy' in sys.modules, 'mpmath' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main('circle --a 6 --c 7 --d 2 --R 3 --S 1 --N 50'.split())\n"
        "print(code, 'numpy' in sys.modules, 'mpmath' in sys.modules)\n" % (EXACT_RUNS,)
    )
    exact, circle = fresh_python(code, cwd=tmp_path).splitlines()
    assert exact == "%s False False" % ([0] * len(EXACT_RUNS))
    assert circle == "0 True False"


def _names_used(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_analytic_defines_only_what_cli_runs():
    # Each module-level name of analytic is used by cli or by another
    # module-level statement of analytic: the point evaluators of the
    # paper's lemmas live with the tests (tests/paper_lemmas.py).
    def tree(module):
        with open(importlib.import_module("theta_trunc." + module).__file__) as f:
            return ast.parse(f.read())

    body = tree("analytic").body
    used = _names_used(tree("cli"))
    defined = {}
    for i, node in enumerate(body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = i
        elif isinstance(node, ast.Assign):
            defined.update((t.id, i) for t in node.targets if isinstance(t, ast.Name))
    unused = [
        name
        for name, i in defined.items()
        if name not in used
        and not any(name in _names_used(node) for j, node in enumerate(body) if j != i)
    ]
    assert unused == []
