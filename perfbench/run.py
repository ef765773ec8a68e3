"""pdtwin benchmark: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload train-reliability --seed 0 --seconds 35 --trace 0

Set-up is timed in several fresh processes (start the interpreter, import
pdtwin, load the config, build the env, write the set-up checkpoint); the
median is ``setup_s``. The last of these processes goes on to run the
workload for ``--seconds`` (see workloads.py). Every process gets BLAS
threads pinned to one. End-to-end times are scaled to a reference host
speed (see ``HostProbe`` in workloads.py). With ``--trace 1`` the pdtwin functions are wrapped
and the per-layer metrics are reported instead of the end-to-end ones.

Human-readable lines, including the machine facts and the error rate, come
first; the last line of standard output is the JSON result. The command
exits non-zero, without a result, when the workload cannot be run at all,
for example when the checkout has no ``src/pdtwin``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import metric_specs
from workloads import PROBE_REF_S, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7  # set-up runs per invocation; the last one runs the workload
DEADLINE_S = 170  # the whole invocation must end within 180 s
PINNED_THREADS = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
END_TO_END_UNITS = {"wall_s": "s", "env_steps_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def start_child(mode, args, work, result):
    """Start a workload process and wait until it reports set-up done.

    Returns (process, seconds from start to ``ready``, the same at the
    reference host speed). The host probe runs right after ``ready``."""
    cmd = [sys.executable, str(HERE / "workloads.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    probe = proc.stdout.readline().split()
    if line.strip() != "ready" or len(probe) != 2 or probe[0] != "probe":
        finish(proc, time.perf_counter() + 10)
        raise SystemExit(f"workload process failed during set-up (exit {proc.returncode})")
    return proc, elapsed, elapsed * PROBE_REF_S / float(probe[1])


def finish(proc, deadline) -> None:
    """Wait for the process; kill it if it overruns the deadline."""
    try:
        proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("workload process timed out") from None


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pdtwin benchmark")
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0; 17 is held out, see README)")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "pdtwin" / "cli.py").is_file():
        print(f"error: no pdtwin sources under {SRC}", file=sys.stderr)
        return 2

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = out / "result.json"
    raw_setup_times, setup_times = [], []
    for k in range(SETUP_REPEATS):
        mode = "run" if k == SETUP_REPEATS - 1 else "setup"
        proc, raw, scaled = start_child(mode, args, out / mode, result_path)
        raw_setup_times.append(raw)
        setup_times.append(scaled)
        if mode == "setup":
            finish(proc, deadline)
            if proc.returncode != 0:
                raise SystemExit(f"set-up process exited {proc.returncode}")
            shutil.rmtree(out / mode, ignore_errors=True)
    finish(proc, deadline)
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited {proc.returncode}")
    result = json.loads(result_path.read_text())
    shutil.rmtree(out / "run", ignore_errors=True)

    wall = statistics.median(result["pass_walls_s"])
    end_to_end = {
        "wall_s": wall,
        "env_steps_per_s": result["steps_per_pass"] / wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    failed = len(result["failures"])
    attempted = result["attempted"]
    result["setup_times_s"] = setup_times
    result["raw_setup_times_s"] = raw_setup_times
    result["end_to_end"] = end_to_end
    result["error_rate"] = failed / attempted
    result_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['passes']} passes, {result['steps_per_pass']} env steps per pass")
    print("pass wall s " + " ".join(f"{w:.3f}" for w in result["pass_walls_s"])
          + " | raw " + " ".join(f"{w:.3f}" for w in result["raw_pass_walls_s"])
          + " | traced " + " ".join(f"{w:.3f}" for w in result.get("traced_walls_s", []))
          + " | cpu s " + " ".join(f"{c:.3f}" for c in result["pass_cpu_s"]))
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"error_rate = {result['error_rate']:.6g} ratio ({failed}/{attempted} operations)")
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in metric_specs()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
