"""Span tracing of pdtwin's public functions, installed from the benchmark.

The tracer replaces each function listed in ``TRACED`` with a wrapper that
records one span per call: name, start, end, parent span and run id. Nothing
under ``src/`` changes. Spans are kept in flat in-memory arrays while the
workload runs and are written out once it has ended. Only calls made inside
a root span (one per benchmark pass) are recorded, so the benchmark's own
set-up and bookkeeping never appear in a trace.

Per-layer metric names follow ``<layer>.<function>.<stat>``, where the layer
is the module path below ``pdtwin``.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

import numpy as np

# (layer, attribute path) of every traced function
TRACED = (
    ("nets", "DeepSetsNet.forward"),
    ("nets", "DeepSetsNet.forward_batch"),
    ("nets", "DeepSetsNet.backward_batch"),
    ("nets", "Adam.step"),
    ("dqn", "train"),
    ("dqn", "ReplayBuffer.push"),
    ("dqn", "ReplayBuffer.sample"),
    ("dqn", "td_target"),
    ("dqn", "epsilon_greedy"),
    ("envs.reliability", "ReliabilityEnv.step"),
    ("envs.reliability", "ReliabilityEnv.encode"),
    ("envs.reliability", "estimate_pf_stats"),
    ("envs.reliability", "select_fe_input"),
    ("envs.reliability", "SurrogatePosterior.observe"),
    ("envs.reliability", "SurrogatePosterior.cov_array"),
    ("envs.component", "ComponentEnv.step"),
    ("envs.component", "ComponentEnv.encode"),
    ("envs.component", "ComponentEnv.action_mask"),
    ("envs.component", "belief_psi"),
    ("beliefs", "gaussian_condition"),
    ("mdp", "run_episode"),
    ("mdp", "evaluate_policy"),
    ("oracle", "backward_induction"),
    ("oracle", "policy_value"),
    ("oracle", "OraclePolicy.act"),
    ("cli", "main"),
    ("config", "load_run_config"),
)

# the hot calls named in the ROADMAP; these also get latency percentiles
PERCENTILE_CALLS = frozenset((
    "nets.DeepSetsNet.forward",
    "nets.DeepSetsNet.forward_batch",
    "nets.DeepSetsNet.backward_batch",
    "nets.Adam.step",
    "dqn.ReplayBuffer.sample",
    "envs.reliability.ReliabilityEnv.step",
    "envs.reliability.ReliabilityEnv.encode",
    "envs.reliability.estimate_pf_stats",
))

ROOT_NAME = "benchmark"
FORWARD_BATCH = "nets.DeepSetsNet.forward_batch"

# count ratios: name -> (numerator, denominator, better); a numerator of
# FORWARD_BATCH_ROWS counts the set-element rows fed to forward_batch
FORWARD_BATCH_ROWS = "nets.DeepSetsNet.forward_batch.rows"
RATIOS = {
    "envs.reliability.pf_stats_per_step": (
        "envs.reliability.estimate_pf_stats", "envs.reliability.ReliabilityEnv.step",
        "lower"),
    "envs.reliability.encode_per_step": (
        "envs.reliability.ReliabilityEnv.encode", "envs.reliability.ReliabilityEnv.step",
        "lower"),
    "envs.reliability.cov_array_per_step": (
        "envs.reliability.SurrogatePosterior.cov_array",
        "envs.reliability.ReliabilityEnv.step", "lower"),
    "nets.forward_batch.rows_per_call": (FORWARD_BATCH_ROWS, FORWARD_BATCH, "higher"),
    "dqn.td_target_per_update": ("dqn.td_target", "nets.Adam.step", "lower"),
}


def traced_names() -> list:
    return [f"{layer}.{path}" for layer, path in TRACED]


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in traced_names():
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
        if name in PERCENTILE_CALLS:
            specs.append((f"{name}.p50_us", "us", "lower"))
            specs.append((f"{name}.p99_us", "us", "lower"))
    for name, (_, _, better) in RATIOS.items():
        specs.append((name, "ratio", better))
    specs.append((f"{ROOT_NAME}.self_s", "s", "lower"))
    specs.append(("trace.wall_s", "s", "lower"))
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


def _element_rows(net, encodings):
    return sum(len(elements) for elements, _ in encodings)


class Tracer:
    """Records spans of the wrapped pdtwin functions inside root spans."""

    def __init__(self):
        self.labels = [ROOT_NAME] + traced_names()
        self.run_ids = []  # run id string per root span
        self.rows = 0  # set-element rows passed to forward_batch
        # one entry per span; parent -1 marks a root span
        self._name = array("l")
        self._parent = array("l")
        self._run = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._installed = []

    # installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every function in TRACED, wherever pdtwin modules bind it."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for label_id, (layer, path) in enumerate(TRACED, start=1):
            module = sys.modules[f"{package.__name__}.{layer}"]
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if owner_path else getattr(owner, attr)
            counter = _element_rows if self.labels[label_id] == FORWARD_BATCH else None
            wrapper = self._wrap(original, label_id, counter)
            self._patch(owner, attr, original, wrapper)
            if not owner_path:  # module function: rebind every `from ... import`
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original and other is not owner:
                            self._patch(other, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, label_id, counter):
        stack, names, parents, runs = self._stack, self._name, self._parent, self._run
        starts, ends = self._start, self._end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(label_id)
            parents.append(stack[-1])
            runs.append(runs[stack[0]])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
                if counter is not None:
                    tracer.rows += counter(*args, **kwargs)

        return traced

    # root spans ---------------------------------------------------------

    def begin(self, run_id: str) -> None:
        if self._stack:
            raise RuntimeError("root span already open")
        self.run_ids.append(run_id)
        index = len(self._name)
        self._name.append(0)
        self._parent.append(-1)
        self._run.append(len(self.run_ids) - 1)
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._stack.append(index)

    def end(self) -> float:
        """Close the root span; returns its duration in seconds."""
        index = self._stack.pop()
        if self._stack:
            raise RuntimeError("spans left open inside the root span")
        self._end[index] = time.perf_counter()
        return self._end[index] - self._start[index]

    # analysis -----------------------------------------------------------

    def _arrays(self):
        names = np.asarray(self._name, dtype=np.int64)
        parents = np.asarray(self._parent, dtype=np.int64)
        runs = np.asarray(self._run, dtype=np.int64)
        durations = np.asarray(self._end) - np.asarray(self._start)
        return names, parents, runs, durations

    def summary(self, untraced_wall_s: float) -> dict:
        """Per-layer metrics over all root spans recorded so far.

        Counts are per root span and must be the same in every one of them;
        self times are medians over the root spans; latency percentiles pool
        every call of every root span.
        """
        names, parents, runs, durations = self._arrays()
        n_labels = len(self.labels)
        n_runs = len(self.run_ids)
        child = np.zeros(len(names))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        self_time = durations - child
        is_root = ~has_parent
        root_walls = durations[is_root]

        flat = runs * n_labels + names
        calls = np.bincount(flat, minlength=n_runs * n_labels).reshape(n_runs, n_labels)
        selfs = np.bincount(flat, weights=self_time,
                            minlength=n_runs * n_labels).reshape(n_runs, n_labels)
        if not np.all(calls == calls[0]):
            raise RuntimeError("call counts differ between repeats of the same pass")
        totals = selfs.sum(axis=1)
        if not np.allclose(totals, root_walls, rtol=1e-9, atol=1e-9):
            raise RuntimeError("self times do not add up to the traced wall time")

        counts = {label: int(calls[0, i]) for i, label in enumerate(self.labels)}
        counts[FORWARD_BATCH_ROWS] = self.rows // n_runs
        metrics = {}
        for i, label in enumerate(self.labels[1:], start=1):
            metrics[f"{label}.calls"] = counts[label]
            metrics[f"{label}.self_s"] = float(np.median(selfs[:, i]))
            if label in PERCENTILE_CALLS:
                sample = durations[names == i] * 1e6
                p50, p99 = np.percentile(sample, [50, 99]) if len(sample) else (0.0, 0.0)
                metrics[f"{label}.p50_us"] = float(p50)
                metrics[f"{label}.p99_us"] = float(p99)
        for name, (num, den, _) in RATIOS.items():
            metrics[name] = counts[num] / counts[den] if counts[den] else 0.0
        traced_wall = float(np.median(root_walls))
        metrics[f"{ROOT_NAME}.self_s"] = float(np.median(selfs[:, 0]))
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall_s
        return metrics

    def write_spans(self, path) -> None:
        """Gzipped, one tab-separated line per span, times relative to the first."""
        names, parents, runs, _ = self._arrays()
        origin = self._start[0] if len(self._start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\trun_id\tname\tstart_s\tend_s\n")
            for i in range(len(names)):
                fh.write(
                    f"{i}\t{parents[i]}\t{self.run_ids[runs[i]]}\t"
                    f"{self.labels[names[i]]}\t{self._start[i] - origin:.9f}\t"
                    f"{self._end[i] - origin:.9f}\n"
                )
