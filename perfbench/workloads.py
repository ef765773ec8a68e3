"""One benchmark workload, run in-process through ``pdtwin.cli.main``.

``run.py`` starts this file in a fresh process with BLAS threads pinned to
one. The process imports pdtwin from the checkout's ``src/``, does its
set-up (load the config, build the environment, write the set-up
checkpoints), prints ``ready`` so the parent can time the set-up, and then,
in ``run`` mode, runs the workload's pass until ``--seconds`` are used up.
A pass is a fixed list of operations: CLI commands and correctness checks.
Its result goes to ``--result`` as JSON.

Workloads (see README.md for why each exists):

- ``train-reliability``: ``pdtwin train --env reliability``, 240 episodes.
- ``train-component-set``: ``pdtwin train --env component --encoding set``,
  600 episodes.
- ``evaluate``: both oracles and both ``compare`` commands; the greedy
  policy comes from an untrained, seed-initialised checkpoint.

Both training workloads keep their environment's training defaults except
for the exploration rate, which is held at 1 (see ``EXPLORE_ONLY``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Training runs hold epsilon at 1 (explore only) and keep every other training
# default. At the default epsilon schedule a short run's greedy policy, and
# with it the episode lengths and set sizes, differs so much between training
# seeds that the work of a run varied by 20-30% from seed to seed; exploring
# uniformly makes the work of a run the same in distribution for every seed.
EXPLORE_ONLY = {"train": {"epsilon_start": 1.0, "epsilon_end": 1.0}}
WORKLOADS = {
    "train-reliability": {"env": "reliability", "encoding": "compressed", "episodes": 240},
    "train-component-set": {"env": "component", "encoding": "set", "episodes": 600},
    "evaluate": {"component_episodes": 4000, "reliability_episodes": 60},
}
# Host-speed probe. On the shared 2-core development host the speed of one
# thread drifted by up to 1.6x within minutes as other tenants came and went,
# more than any bound could absorb, and pdtwin's passes slowed in proportion
# with a fixed kernel of small numpy products and interpreter work. Untraced
# passes therefore run this kernel between env steps, every PROBE_INTERVAL_S,
# and report their time at the host speed where the kernel takes PROBE_REF_S.
# The kernel calls no pdtwin code, so no change to pdtwin can change its time.
PROBE_REF_S = 0.004
PROBE_INTERVAL_S = 0.25
SETUP_PROBES = 10
EVAL_SEED_STRIDE = 1_000_000  # evaluation episodes of seed s start at s * 1e6
CHECKPOINT_INIT_SEED = 0  # the evaluated network is the same for every seed
RELIABILITY_OUTCOMES = ("confirmed_below", "confirmed_above", "failed")
EVAL_POLICIES = {"component": ("random", "oracle", "dqn_unconstrained"),
                 "reliability": ("random", "benchmark", "dqn")}
MC_SE_LIMIT = 4.0
VALUE_RTOL = 1e-9


class CheckFailed(Exception):
    """A CLI command failed or one of its outputs is wrong."""


def import_pdtwin():
    """Import pdtwin from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import pdtwin
    import pdtwin.cli

    if Path(pdtwin.cli.__file__).resolve() != (SRC / "pdtwin" / "cli.py").resolve():
        raise SystemExit(f"pdtwin imported from {pdtwin.cli.__file__}, not from {SRC}")
    return pdtwin


# machine facts -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


# operations -----------------------------------------------------------------


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def digest_checkpoint(path) -> str:
    """Hash of the checkpoint's parameter arrays, independent of the zip wrapper."""
    import numpy as np

    h = hashlib.sha256()
    with np.load(path, allow_pickle=False) as data:
        for key in sorted(k for k in data.files if k.startswith("param/")):
            value = data[key]
            h.update(f"{key}:{value.dtype}:{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Pass:
    """Runs operations, counting attempts and failures."""

    def __init__(self, pdtwin, work: Path):
        self.pdtwin = pdtwin
        self.work = work
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.op_walls = {}  # label -> seconds
        self.cpu_s = 0.0

    def op(self, label, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            # a missing or malformed output file fails the check, not the run
            self.failures.append(f"{label}: {exc!r}")
        finally:
            self.op_walls[label] = time.perf_counter() - start
        return None

    def cli(self, label, argv):
        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.pdtwin.cli.main(argv)
            if code != 0:
                raise CheckFailed(f"pdtwin {' '.join(argv)} exited {code}")
            return True

        return self.op(label, run)


def compare_digests(p: Pass, expected: dict, actual: dict, where: str) -> None:
    """Outputs of the same code and seed must be bit-identical (criterion 10)."""
    for key in sorted(expected.keys() | actual.keys()):
        p.attempted += 1
        if expected.get(key) != actual.get(key):
            p.failures.append(f"{key}: output digest differs {where}")


def digest_store_path(workload, seed) -> Path:
    """Where the digests of this workload, seed, source tree and toolchain live.

    The key covers every file under src/, this file and the interpreter and
    numpy/scipy versions, so digests are only ever compared between runs of
    the same code, never against another commit."""
    import numpy as np
    import scipy

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [Path(__file__)]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    h.update(f"{platform.python_version()} {np.__version__} {scipy.__version__}".encode())
    return ROOT / ".perfbench_out" / "digests" / f"{workload}-seed{seed}-{h.hexdigest()[:16]}.json"


def train_pass(p: Pass, spec, seed, inputs) -> None:
    out = p.work / "train"
    argv = ["train", "--env", spec["env"], "--encoding", spec["encoding"],
            "--config", str(inputs["config"]), "--episodes", str(spec["episodes"]),
            "--seed", str(seed), "--out", str(out)]
    if p.cli("train", argv):
        p.op("train outputs", check_train_outputs, p, out, spec)
        p.digests["train"] = (
            digest_files([out / "curve.csv"]) + digest_checkpoint(out / "checkpoint.npz"))


def check_train_outputs(p: Pass, out: Path, spec) -> None:
    rows = read_csv(out / "curve.csv")
    if len(rows) != spec["episodes"]:
        raise CheckFailed(f"curve.csv has {len(rows)} rows, expected {spec['episodes']}")
    loss = float(rows[-1]["loss_moving_average"])
    if not math.isfinite(loss):
        raise CheckFailed(f"final loss moving average is {loss}")
    _, meta = p.pdtwin.nets.load_checkpoint(out / "checkpoint.npz")
    if meta.get("env") != spec["env"] or meta.get("encoding") != spec["encoding"]:
        raise CheckFailed(f"checkpoint meta {meta} does not name env and encoding")


def evaluate_pass(p: Pass, spec, seed, inputs) -> None:
    base = str(seed * EVAL_SEED_STRIDE)
    work = p.work
    for name, extra in (("oracle", []), ("oracle-constrained", ["--constrained"])):
        if p.cli(name, ["oracle", *extra, "--out", str(work / name)]):
            p.digests[name] = digest_files([work / name / "oracle_table.csv"])
    p.op("oracle V* = policy_value", check_oracle_self_value, p)
    p.op("constrained V* <= V*", check_constrained_value, p)
    out = work / "compare-component"
    argv = ["compare", "--env", "component", "--episodes", str(spec["component_episodes"]),
            "--seed", base, "--checkpoint", str(inputs["component"]), "--out", str(out)]
    if p.cli("compare-component", argv):
        p.op("oracle MC mean within 4 SE of V*", check_oracle_monte_carlo, p, spec)
        p.digests["compare-component"] = digest_files(
            [out / "compare_table.csv", out / "compare_histogram.csv"])
    out = work / "compare-reliability"
    argv = ["compare", "--env", "reliability", "--episodes",
            str(spec["reliability_episodes"]), "--seed", base,
            "--checkpoint", str(inputs["reliability"]), "--out", str(out)]
    if p.cli("compare-reliability", argv):
        p.op("reliability episodes end validly", check_reliability_episodes, p, out, spec)
        p.digests["compare-reliability"] = digest_files(
            [out / "compare_table.csv"]
            + [out / f"episodes_{name}.csv" for name in EVAL_POLICIES["reliability"]])


def _oracle_value(p: Pass, name) -> float:
    with open(p.work / name / "oracle_summary.json") as fh:
        return float(json.load(fh)["optimal_value"])


def check_oracle_self_value(p: Pass) -> None:
    oracle = p.pdtwin.oracle
    for name, constrained in (("oracle", False), ("oracle-constrained", True)):
        config = p.pdtwin.config.load_run_config(None, "component", constrained=constrained)
        policy = {
            oracle.TabularState(int(r["n_success"]), int(r["n_fail"]), int(r["days_left"])):
                int(r["action"])
            for r in read_csv(p.work / name / "oracle_table.csv") if r["action"] != ""
        }
        exact = oracle.policy_value(policy, config.component)
        v_star = _oracle_value(p, name)
        if not math.isclose(v_star, exact, rel_tol=VALUE_RTOL):
            raise CheckFailed(f"{name}: V* {v_star!r} != policy_value {exact!r}")


def check_constrained_value(p: Pass) -> None:
    free, constrained = _oracle_value(p, "oracle"), _oracle_value(p, "oracle-constrained")
    if constrained > free:
        raise CheckFailed(f"constrained V* {constrained!r} exceeds V* {free!r}")


def check_oracle_monte_carlo(p: Pass, spec) -> None:
    rows = {r["policy"]: r for r in read_csv(p.work / "compare-component" / "compare_table.csv")}
    if set(rows) != set(EVAL_POLICIES["component"]):
        raise CheckFailed(f"compare table lists {sorted(rows)}")
    n = spec["component_episodes"]
    mean, sd = float(rows["oracle"]["mean"]), float(rows["oracle"]["sd"])
    v_star = _oracle_value(p, "oracle")
    if abs(mean - v_star) > MC_SE_LIMIT * sd / math.sqrt(n):
        raise CheckFailed(f"oracle MC mean {mean!r} is more than 4 SE from V* {v_star!r}")


def check_reliability_episodes(p: Pass, out: Path, spec) -> None:
    max_actions = p.pdtwin.envs.reliability.ReliabilityConfig().max_actions
    for name in EVAL_POLICIES["reliability"]:
        rows = read_csv(out / f"episodes_{name}.csv")
        if len(rows) != spec["reliability_episodes"]:
            raise CheckFailed(f"{name}: {len(rows)} episodes")
        for r in rows:
            actions = int(r["n_measurement"]) + int(r["n_fe"]) + int(r["n_lab"])
            failed = r["outcome"] == "failed"
            if (r["outcome"] not in RELIABILITY_OUTCOMES or not 1 <= actions <= max_actions
                    or (failed and actions != max_actions)
                    or r["success"] != ("0" if failed else "1")):
                raise CheckFailed(f"{name} seed {r['seed']}: {r['outcome']} "
                                  f"(success {r['success']}) after {actions} actions")


# set-up ---------------------------------------------------------------------


def setup(pdtwin, workload, seed, work: Path) -> dict:
    """Write and load the config, build the environments, write the checkpoints.

    Returns the paths of the generated CLI inputs."""
    spec = WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=True)
    inputs = {}
    config_path = None
    if workload != "evaluate":
        config_path = inputs["config"] = work / "explore_only.json"
        config_path.write_text(json.dumps(EXPLORE_ONLY, indent=2) + "\n")
    for env_name in ("component", "reliability") if workload == "evaluate" else (spec["env"],):
        run_config = pdtwin.config.load_run_config(config_path, env_name, seed=seed)
        if env_name == "component":
            env = pdtwin.envs.component.ComponentEnv(
                run_config.component, encoding=spec.get("encoding", "compressed"))
        else:
            env = pdtwin.envs.reliability.ReliabilityEnv(run_config.reliability)
        if workload == "evaluate":
            train = run_config.train
            net = pdtwin.nets.DeepSetsNet(
                env.element_dim, env.aux_dim, env.action_count, seed=CHECKPOINT_INIT_SEED,
                phi_hidden=train.phi_hidden, latent_dim=train.latent_dim,
                rho_hidden=train.rho_hidden)
            inputs[env_name] = work / f"setup-{env_name}.npz"
            pdtwin.nets.save_checkpoint(inputs[env_name], net, meta={
                "env": env_name, "encoding": "compressed", "constrained": False,
                "seed": CHECKPOINT_INIT_SEED})
    return inputs


class HostProbe:
    """Times a fixed kernel that stands for the host's current speed."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((40, 64))
        self._w = rng.standard_normal((64, 64))
        self.times = []
        self._due = 0.0

    def run(self) -> None:
        start = time.perf_counter()
        for _ in range(200):
            self._np.tanh(self._a @ self._w).sum()
            [j * j for j in range(50)]
        self.times.append(time.perf_counter() - start)

    def run_if_due(self) -> None:
        if time.perf_counter() >= self._due:
            self.run()
            self._due = time.perf_counter() + PROBE_INTERVAL_S

    def restart(self) -> None:
        """Forget earlier probes; the next call of run_if_due probes."""
        self.times = []
        self._due = 0.0


class StepCounter:
    """Counts environment transitions by wrapping each env's ``step``.

    While ``probe`` is set, the host probe runs between steps when it is due."""

    def __init__(self, pdtwin):
        self.steps = 0
        self.probe = None
        for cls in (pdtwin.envs.component.ComponentEnv,
                    pdtwin.envs.reliability.ReliabilityEnv):
            cls.step = self._counting(cls.step)

    def _counting(self, step):
        counter = self

        def counted(env, state, action, rng):
            counter.steps += 1
            if counter.probe is not None:
                counter.probe.run_if_due()
            return step(env, state, action, rng)

        return counted


# timed phase ------------------------------------------------------------------


def run_workload(pdtwin, workload, seed, seconds, trace, work, inputs) -> dict:
    spec = WORKLOADS[workload]
    counter = StepCounter(pdtwin)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()

    probe = HostProbe()
    raw_walls, probe_means = [], []

    def one_pass(index, traced):
        """Runs a pass; returns it, its wall time and its env steps.

        An untraced pass of an untraced run is probed, and its wall time is
        scaled to the reference host speed; a traced run reports raw times."""
        pass_dir = work / f"pass-{index}"
        p = Pass(pdtwin, pass_dir)
        steps_before = counter.steps
        if traced:
            tracer.begin(f"{workload}-seed{seed}-pass{index}")
        if tracer is None:
            probe.restart()
            counter.probe = probe
        start, cpu_start = time.perf_counter(), time.process_time()
        if workload == "evaluate":
            evaluate_pass(p, spec, seed, inputs)
        else:
            train_pass(p, spec, seed, inputs)
        wall = time.perf_counter() - start
        p.cpu_s = time.process_time() - cpu_start
        counter.probe = None
        if traced:
            tracer.end()
        if tracer is None:
            wall -= sum(probe.times)
            if not probe.times:  # a pass that failed before its first env step
                probe.run()
            raw_walls.append(wall)
            probe_means.append(statistics.fmean(probe.times))
            wall *= PROBE_REF_S / probe_means[-1]
        shutil.rmtree(pass_dir, ignore_errors=True)
        return p, wall, counter.steps - steps_before

    # in trace mode passes alternate between untraced and traced, starting
    # untraced, so that the tracing overhead compares passes run side by side
    passes, untraced_walls, traced_walls, step_counts = [], [], [], []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install(pdtwin)
        p, wall, steps = one_pass(len(passes), traced)
        if traced:
            tracer.uninstall()
        passes.append(p)
        (traced_walls if traced else untraced_walls).append(wall)
        step_counts.append(steps)
        if tracer is not None and not traced_walls:
            continue
        longest = max(statistics.median(w) for w in (untraced_walls, traced_walls) if w)
        if time.perf_counter() - begin + longest > seconds:
            break

    checks = Pass(pdtwin, work)
    reference = passes[0].digests
    for q in passes[1:]:
        compare_digests(checks, reference, q.digests, "between passes")
    stored = digest_store_path(workload, seed)
    if stored.exists():
        compare_digests(checks, json.loads(stored.read_text()), reference,
                        "from an earlier run of the same code and seed")
    else:
        stored.parent.mkdir(parents=True, exist_ok=True)
        stored.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    checks.attempted += 1
    if len(set(step_counts)) != 1:
        checks.failures.append(f"env step counts differ between passes: {step_counts}")

    all_passes = passes + [checks]
    result = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "pass_walls_s": untraced_walls,
        "raw_pass_walls_s": raw_walls,
        "probe_means_s": probe_means,
        "steps_per_pass": step_counts[0],
        "attempted": sum(q.attempted for q in all_passes),
        "failures": [f for q in all_passes for f in q.failures],
        "digests": reference,
        "op_walls_s": [q.op_walls for q in passes],
        # CPU time well below wall time means the host took the CPU away
        "pass_cpu_s": [q.cpu_s for q in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["traced_walls_s"] = traced_walls
        result["layers"] = tracer.summary(statistics.median(untraced_walls))
        tracer.write_spans(work.parent / "spans.tsv.gz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    pdtwin = import_pdtwin()
    work = Path(args.work)
    inputs = setup(pdtwin, args.workload, args.seed, work)
    print("ready", flush=True)
    probe = HostProbe()
    for _ in range(SETUP_PROBES):
        probe.run()
    print(f"probe {statistics.fmean(probe.times)!r}", flush=True)
    if args.mode == "setup":
        return 0
    result = run_workload(pdtwin, args.workload, args.seed, args.seconds,
                          bool(args.trace), work, inputs)
    result["machine"] = machine_facts()
    Path(args.result).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
