"""The benchmark's tracer must still fit pdtwin.

``perfbench/tracing.py`` lists the functions it wraps in ``TRACED`` and counts
the set rows of every ``forward_batch`` call. A rename or deletion under
``src/`` that drops one of those functions, or a ``forward_batch`` input the
row counter cannot read, would otherwise only show when the benchmark runs
with ``--trace``.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from pdtwin.nets import DeepSetsNet, SetBatch, canonical_set

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_traced():
    return load_tracing().TRACED


def test_forward_batch_row_counter_reads_the_batch():
    net = DeepSetsNet(2, 1, 2, seed=0, phi_hidden=(4,), latent_dim=3, rho_hidden=(5,))
    rng = np.random.default_rng(0)
    sets = [canonical_set(rng.standard_normal((k, 2)), 2) for k in (3, 0, 5, 1)]
    batch = SetBatch(sets, rng.standard_normal((4, 1)))
    q, _ = net.forward_batch(batch)
    assert q.shape == (4, 2)
    assert load_tracing()._element_rows(net, batch) == 9


def test_every_traced_name_resolves():
    traced = load_traced()
    assert traced
    for layer, path in traced:
        owner = importlib.import_module(f"pdtwin.{layer}")
        for part in path.split("."):
            assert hasattr(owner, part), f"pdtwin.{layer}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"pdtwin.{layer}.{path}"
