"""Run BLAS on one thread, as perfbench/run.py's PINNED_THREADS does, unless
the caller has set the variable. It must be set before numpy loads, and
nothing the suite imports before this file loads numpy. On two cores a second
BLAS thread mostly spins: default reliability training took as long and about
twice the CPU time. Outputs do not depend on it.

Default reliability training is the suite's longest set-up. When a collected
test needs it, one ``pdtwin train --env reliability`` process starts as
collection ends and trains on the second core while the suite runs; those
tests run last and read its checkpoint, which round-trips bit for bit."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import shutil
import subprocess
import sys
import tempfile
from importlib.util import find_spec
from pathlib import Path

import pytest

_WORKER = pytest.StashKey()


def _needs_training(item) -> bool:
    return "reliability_checkpoint" in getattr(item, "fixturenames", ())


def pytest_collection_modifyitems(items):
    items.sort(key=_needs_training)  # stable: the rest keep their order


def pytest_collection_finish(session):
    if session.config.option.collectonly or not any(map(_needs_training, session.items)):
        return
    out = Path(tempfile.mkdtemp(prefix="pdtwin-reliability-"))
    src = Path(find_spec("pdtwin").submodule_search_locations[0]).resolve().parent
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    worker = subprocess.Popen(
        [sys.executable, "-m", "pdtwin.cli", "train", "--env", "reliability",
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    session.config.stash[_WORKER] = worker, out


def pytest_sessionfinish(session):
    if (started := session.config.stash.get(_WORKER, None)) is not None:
        worker, out = started
        worker.kill()  # nothing if it has been reaped
        worker.wait()
        worker.stderr.close()
        shutil.rmtree(out, ignore_errors=True)


@pytest.fixture(scope="session")
def reliability_checkpoint(request) -> Path:
    """The checkpoint ``pdtwin train --env reliability`` writes at its defaults."""
    worker, out = request.config.stash[_WORKER]
    _, err = worker.communicate()
    if worker.returncode != 0:
        pytest.fail(f"reliability training exited {worker.returncode}:\n{err}")
    return out / "checkpoint.npz"
