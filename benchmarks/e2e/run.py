"""End-to-end benchmark of the VoD simulator: five traffic mixes.

One command runs the workloads named in ``BENCHMARK.json``, each in its
own fresh subprocess, one after another, checks the simulated outcome,
and prints every metric by name with its unit::

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--repeat N] [--trace [0|1]] [--smoke] [--out PATH]
    python benchmarks/e2e/run.py --compare OLD.json NEW.json

Per workload, ``checks.py`` runs the correctness checks once, outside
every timed window, and ``measure.py`` runs the workload ``--repeat``
times.  Untraced runs give the end-to-end metrics; ``--trace`` gives the
per-layer metrics instead.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record (host, seed, parameters, raw values, medians and quartiles)
goes to ``--out``, by default under ``benchmarks/e2e/out/``.

Exits 1 when a check fails, 2 when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
#: Each child must end well inside the 180 s a single run may take.
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 1.0


def load_spec() -> dict[str, Any]:
    """The benchmark contract: workloads, metrics, units and bounds."""
    with SPEC.open() as handle:
        spec: dict[str, Any] = json.load(handle)
    return spec


def host_info() -> dict[str, Any]:
    """The host a result was measured on."""
    import numpy
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            commit = head.stdout.strip()
            dirty = bool(status.stdout.strip())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "dirty": dirty,
    }


def child_env() -> dict[str, str]:
    """The simulator on the path; hashing and BLAS threads pinned."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class ChildFailed(RuntimeError):
    """A subprocess crashed or printed no result."""


def run_child(script: str, args: list[str]) -> dict[str, Any]:
    """Run ``script`` in a fresh interpreter; its last line is JSON."""
    done = subprocess.run(
        [sys.executable, str(HERE / script), *args], cwd=ROOT,
        env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    try:
        result: dict[str, Any] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"{script} {' '.join(args)} exited "
                          f"{done.returncode}:\n{done.stderr}") from None
    return result


def summarise(values: list[float]) -> dict[str, Any]:
    """Median, quartiles and count of one metric's samples."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def end_to_end(run: dict[str, Any]) -> dict[str, float]:
    """One untraced run's end-to-end values (medians over its samples),
    plus the host-time medians the normalised ones come from."""
    return {
        "sim_cycles_per_s": statistics.median(run["sim_cycles_per_s"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(run["setup_s"]),
        "host_sim_cycles_per_s":
            statistics.median(run["host_sim_cycles_per_s"]),
        "host_setup_s": statistics.median(run["host_setup_s"]),
    }


def run_workload(name: str, args: argparse.Namespace,
                 seconds: float) -> dict[str, Any]:
    """Checks once, then ``--repeat`` measured runs of one workload."""
    common = ["--workload", name, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    checks = run_child("checks.py", common)
    extra = ["--seconds", str(seconds)] + (["--trace"] if args.trace else [])
    runs = [run_child("measure.py", common + extra)
            for _ in range(args.repeat)]
    values = [run["per_layer"] if args.trace else end_to_end(run)
              for run in runs]
    digests = [run["outcome"]["state_sha256"] for run in runs]
    problems = [problem for run in runs for problem in run["problems"]]
    if len(set(digests)) > 1:
        problems.append("runs of one seed reached different digests")
    return {
        "params": runs[0]["params"],
        "checks": checks["checks"],
        "correct": checks["ok"] and not problems,
        "problems": problems,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "outcome": runs[0]["outcome"],
        "digests": digests,
        "metrics": {metric: summarise([value[metric] for value in values])
                    for metric in values[0]},
        "runs": runs,
    }


def report_line(spec: dict[str, Any], results: dict[str, Any],
                trace: bool) -> dict[str, Any]:
    """The last-line JSON: every contract metric, median over runs.

    One workload: plain metric names; several: ``<workload>.<metric>``.
    """
    catalogue = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for entry in catalogue:
            if entry["name"] not in result["metrics"]:
                raise KeyError(f"{workload} did not emit {entry['name']}")
            metrics[prefix + entry["name"]] = {
                "value": result["metrics"][entry["name"]]["median"],
                "unit": entry["unit"]}
    return {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }


def print_workload(name: str, result: dict[str, Any],
                   units: dict[str, str], trace: bool) -> None:
    """Human-readable lines for one workload."""
    failing = [check["name"] for check in result["checks"]
               if not check["ok"]] + result["problems"]
    outcome = result["outcome"]
    print(f"{name}: checks {'ok' if not failing else 'FAILED'} "
          f"({len(result['checks'])}), digest "
          f"{outcome['state_sha256'][:12]}, hiccups {outcome['hiccups']}, "
          f"reject_ratio {outcome['reject_ratio']:.4f}, streams_shed "
          f"{outcome['streams_shed']}, ops {outcome['ops']}")
    for problem in failing:
        print(f"  FAILED: {problem}")
    for metric, summary in result["metrics"].items():
        if trace and not summary["median"]:
            continue
        print(f"  {metric:50s} {summary['median']:14.6g} "
              f"{unit_of(metric, units):6s} [q1 {summary['q1']:.6g}, "
              f"q3 {summary['q3']:.6g}] n={summary['n']}")


def unit_of(metric: str, units: dict[str, str]) -> str:
    """A metric's unit: as in ``BENCHMARK.json``, else read off the name
    (the host-time and result-file-only metrics)."""
    name = metric.removeprefix("host_")
    if name in units:
        return units[name]
    return "ms" if name.endswith("_ms") else "s" if name.endswith("_s") \
        else ""


# -- comparing two result files -------------------------------------------------

def verdict(old: dict[str, Any], new: dict[str, Any], better: str,
            bound: float) -> str:
    """Improved, regressed, unchanged, or unresolved (noisy parent).

    A gain counts only when the medians differ by more than the old
    IQR and the two quartile ranges do not overlap.
    """
    base = old["median"]
    spread = (old["q3"] - old["q1"]) / base
    change = (new["median"] - base) / base
    worse = change if better == "lower" else -change
    apart = (new["q3"] < old["q1"] if better == "lower"
             else new["q1"] > old["q3"])
    if spread > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > spread and apart:
        return "improved"
    return "unchanged"


def compare(old_path: Path, new_path: Path, spec: dict[str, Any]) -> int:
    """One row per workload x metric; 1 if anything regressed."""
    old = json.loads(old_path.read_text())["workloads"]
    new = json.loads(new_path.read_text())["workloads"]
    regressed = False
    print(f"{'workload':12s} {'metric':18s} {'old median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'change':>8s}  verdict")
    for workload in (w for w in old if w in new):
        for entry in spec["end_to_end"]:
            before = old[workload]["metrics"][entry["name"]]
            after = new[workload]["metrics"][entry["name"]]
            call = verdict(before, after, entry["better"], entry["bound"])
            regressed |= call == "regressed"
            change = after["median"] / before["median"] - 1
            print(f"{workload:12s} {entry['name']:18s} "
                  f"{_cell(before):34s} {_cell(after):34s} "
                  f"{change:+8.1%}  {call} (bound {entry['bound']:.0%})")
        for key in ("state_sha256", "hiccups", "reject_ratio",
                    "streams_shed"):
            same = old[workload]["outcome"][key] == \
                new[workload]["outcome"][key]
            regressed |= not same
            print(f"{workload:12s} {key:18s} "
                  f"{str(old[workload]['outcome'][key])[:34]:34s} "
                  f"{str(new[workload]['outcome'][key])[:34]:34s} "
                  f"{'':8s}  {'equal' if same else 'CHANGED'}")
    return 1 if regressed else 0


def _cell(summary: dict[str, Any]) -> str:
    return (f"{summary['median']:.5g} [{summary['q1']:.5g}, "
            f"{summary['q3']:.5g}] n={summary['n']}")


# -- entry point ----------------------------------------------------------------

def parse_args(spec: dict[str, Any]) -> argparse.Namespace:
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=names, metavar="NAME",
                        help=f"workloads to run (default: {' '.join(names)})")
    parser.add_argument("--seed", type=int, default=42,
                        help="drives the traces, chaos scripts and cluster "
                             "spec (default 42)")
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="measured runs per workload (default 1)")
    parser.add_argument("--smoke", action="store_true",
                        help="the same workloads at reduced size")
    parser.add_argument("--out", type=Path,
                        help="result file (default under benchmarks/e2e/out)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("OLD", "NEW"),
                        help="compare two result files and exit")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    args.workload = args.workload or names
    return args


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir() or not SPEC.is_file():
        print(f"run.py: the simulator sources ({ROOT / 'src' / 'repro'}) "
              f"and {SPEC.name} must sit at the repository root",
              file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(spec)
    if args.compare:
        return compare(*args.compare, spec)
    seconds: Optional[float] = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    trace = bool(args.trace)
    units = {entry["name"]: entry["unit"]
             for entry in spec["end_to_end"] + spec["per_layer"]}
    results = {}
    try:
        for name in args.workload:
            results[name] = run_workload(name, args, seconds)
            print_workload(name, results[name], units, trace)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    out = args.out or OUT / (("smoke" if args.smoke else "result")
                             + ("-trace" if trace else "") + ".json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "benchmark": "e2e",
        "host": host_info(),
        "seed": args.seed,
        "seconds": seconds,
        "repeat": args.repeat,
        "trace": trace,
        "smoke": args.smoke,
        "workloads": results,
    }, indent=1) + "\n")
    line = report_line(spec, results, trace)
    print(f"wrote {out}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
