"""The trial layer's kernel resolver and its numpy-less fallback.

:func:`repro.core.trials.resolve_kernels` picks the ensemble search
engine and the vectorized generator when numpy imports, and the serial
reference paths otherwise.  Neither choice is a trial parameter, so:

* the resolver answers per environment (numpy present, numpy
  import-blocked by a shim module in a subprocess);
* a trial store filled on the numpy path replays in full on the
  numpy-less path, and the replay prints byte-identical output;
* a cold numpy-less run prints the same numbers as the numpy run.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core.trials import Kernels, resolve_kernels
from repro.graphs.frozen import HAVE_NUMPY

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the fast kernels require numpy"
)


@pytest.fixture()
def numpy_shim(tmp_path):
    """A directory whose ``numpy`` module refuses to import."""
    shim = tmp_path / "no-numpy"
    shim.mkdir()
    (shim / "numpy.py").write_text(
        'raise ImportError("numpy blocked for this test")\n'
    )
    return str(shim)


def run_python(args, *, shim=None):
    """Run ``python args...`` with ``src`` (after ``shim``) on the path."""
    path = [shim] if shim else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path + [SRC]))
    completed = subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestResolver:
    @needs_numpy
    def test_numpy_picks_the_fast_kernels(self):
        assert resolve_kernels() == Kernels(
            engine="ensemble", generator="vectorized"
        )

    def test_numpy_blocked_picks_serial(self, numpy_shim):
        out = run_python(
            [
                "-c",
                "from repro.core.trials import resolve_kernels; "
                "print(tuple(resolve_kernels()))",
            ],
            shim=numpy_shim,
        )
        assert out.strip() == "('serial', 'serial')"


def _split_store_line(out):
    """(output without the store tally, the tally line)."""
    lines = out.splitlines(keepends=True)
    tally = [line for line in lines if line.startswith("store:")]
    assert len(tally) == 1, out
    rest = "".join(line for line in lines if line not in tally)
    return rest, tally[0].strip()


@needs_numpy
class TestFallbackIdentity:
    def test_numpy_filled_store_replays_without_numpy(
        self, tmp_path, numpy_shim
    ):
        cache = str(tmp_path / "cache")
        argv = ["-m", "repro", "run", "E1", "--quick", "--cache-dir", cache]
        cold, cold_tally = _split_store_line(run_python(argv))
        replay, replay_tally = _split_store_line(
            run_python(argv, shim=numpy_shim)
        )
        trials = int(cold_tally.split()[3])
        assert trials > 0
        assert cold_tally == f"store: 0 hits, {trials} misses"
        assert replay_tally == f"store: {trials} hits, 0 misses"
        assert replay == cold

    def test_cold_runs_agree_with_and_without_numpy(self, numpy_shim):
        argv = ["-m", "repro", "run", "E3", "--quick"]
        assert run_python(argv, shim=numpy_shim) == run_python(argv)
