"""layering: each module imports on its own, loading only the layers below it."""

import os
import subprocess
import sys

import pytest

import theta_trunc

# Lowest layer first; each module may import only those before it.
LAYERS = ("kernels", "series", "families", "asymptotics", "analytic", "cli")
NUMPY_FREE = ("kernels", "series", "families", "asymptotics")


@pytest.mark.parametrize("module", LAYERS)
def test_module_loads_only_lower_layers(module):
    code = (
        "import sys, theta_trunc.%s\n"
        "print(sorted(m for m in sys.modules if m.startswith('theta_trunc.')))\n"
        "print('numpy' in sys.modules)\n" % module
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(theta_trunc.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded, numpy_loaded = done.stdout.splitlines()
    below = LAYERS[: LAYERS.index(module) + 1]
    assert loaded == str(sorted("theta_trunc." + m for m in below))
    if module in NUMPY_FREE:
        assert numpy_loaded == "False"
