import os
import subprocess
import sys

#: scipy subpackages that nlfb does not need; importing one adds its load time
#: to every process that imports nlfb
UNUSED_SCIPY = ("scipy.signal", "scipy.integrate", "scipy.stats", "scipy.interpolate",
                "scipy.ndimage")


def test_import_loads_no_unused_scipy_subpackage():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, nlfb; "
            f"print(' '.join(m for m in {UNUSED_SCIPY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == []
