"""PairwiseHist benchmark: one command, one workload per run.

    python3 aqpbench/run.py --workload query-power --seed 1 --seconds 8 --trace 0

Run from the repository root. ``--workload all`` runs every workload in
turn, each in its own process. With ``--trace 0`` the result reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics from
a run whose second half is traced, and writes the spans under
``.aqpbench/``, where the determinism check also keeps its record and
Spark its scratch files. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list the same metrics by name and unit. The exit code is 1 when an output
check or the build determinism check failed, 2 when the sources are
missing. Workloads and metrics are described in ``workloads.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".aqpbench"
WORKLOADS = ("query-power", "update-power")


def jvm_memory() -> str:
    """Half the machine's memory in GiB, clamped to [2, 8], as the test
    command sets it."""
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kib // 2097152))}g"


def configure_spark() -> None:
    """Environment for a local Spark session whose scratch files stay
    under ``.aqpbench/`` and whose Python workers can import ``repro``.
    Read at JVM launch, so it must be set before the session starts."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cores = min(4, len(os.sched_getaffinity(0)))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join([
        "--master", f"local[{cores}]",
        "--driver-memory", jvm_memory(),
        "--driver-java-options", f"-Djava.io.tmpdir={tmp}",
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", f"spark.sql.warehouse.dir={tmp / 'warehouse'}",
        "pyspark-shell",
    ])


def run_all(args) -> int:
    code = 0
    for w in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    configure_spark()
    sys.path.insert(0, str(SRC))
    import workloads  # needs SRC on the path

    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), WORK)
    finally:
        shutil.rmtree(WORK / "tmp", ignore_errors=True)
    print(f"# {args.workload} seed={args.seed} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
