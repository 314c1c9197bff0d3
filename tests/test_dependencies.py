"""What importing and running kdvlab loads, checked in fresh interpreters.

NumPy is the package's only declared dependency.  scipy.fft is often
installed next to it and is a drop-in for np.fft, so one guard imports
kdvlab and runs one small evolve, then lists the top-level packages that
appeared.  Modules loaded before the import (by site.py and .pth files of
the environment) are not kdvlab's and are not counted.

numpy.fft is loaded at the first transform, not with the package, and that
import must survive a signal handler that touches np.fft mid-import.
"""

import json
import os
import subprocess
import sys

import pytest

import kdvlab

SCRIPT = """
import json, sys
before = set(sys.modules)
from kdvlab import ModeLattice, SolverConfig, evolve, sequence_from_modes
lat = ModeLattice(8, 25)
u0 = sequence_from_modes(lat, {1: 0.1, -1: 0.1, 3: 0.05j, -3: -0.05j})
evolve(u0, SolverConfig(dt=1e-3, t_final=1e-2, lattice=lat, record_every=5))
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded)))
"""


# a meta path finder raises SIGUSR1 while numpy.fft is being imported; the
# handler then touches np.fft, as a sampling profiler's might
SIGNAL_MID_IMPORT = """
import os, signal, sys
import numpy as np
import kdvlab.cli
assert "numpy.fft" not in sys.modules

class SignalMidImport:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy.fft._helper":
            os.kill(os.getpid(), signal.SIGUSR1)
        return None

signal.signal(signal.SIGUSR1, lambda signum, frame: np.fft.fft(np.ones(4)))
sys.meta_path.insert(0, SignalMidImport())
from kdvlab import ModeLattice, physical_from_weighted, sequence_from_modes
v = physical_from_weighted(sequence_from_modes(ModeLattice(4, 13), {1: 1.0, -1: 1.0}))
print(float(v.samples[0]))
"""


def run_fresh(script: str) -> str:
    src = os.path.dirname(os.path.dirname(kdvlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_only_stdlib_and_numpy_are_loaded():
    loaded = set(json.loads(run_fresh(SCRIPT)))
    assert {"kdvlab", "numpy"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"kdvlab", "numpy"} == set()


def test_fft_import_survives_signal_handler():
    # v = 2 cos x sampled at x_0 = -pi
    assert float(run_fresh(SIGNAL_MID_IMPORT)) == pytest.approx(-2.0, abs=1e-14)
