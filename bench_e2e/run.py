"""End-to-end benchmark of the author-index path, layer by layer.

Run from the root of a checkout::

    python3 bench_e2e/run.py --workload lookup --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py                      # every workload, one after another
    python3 bench_e2e/run.py --runs 5 --output results.json   # seeds 1..5 each

Each workload runs in a fresh child interpreter (``workloads.py``) with
``PYTHONHASHSEED=0`` and the checkout's ``src`` on the path, so the
benchmark needs no installed package and leaves nothing outside the
checkout.  The child's stores live in ``bench_e2e/.work`` and are
removed when it ends.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).  With
several workloads or runs it also summarises each metric as a median
and inter-quartile range.  The exit code is nonzero when any op failed
or gave a wrong result.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

ROOT = HERE.parent
#: A child that has not finished by then is killed.
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, trace: int, quick: bool,
              output: Path | None) -> tuple[int, dict | None]:
    """Run one workload in a fresh interpreter; relay its output and
    return its exit code and final JSON line."""
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(workdir),
    ]
    if quick:
        cmd.append("--quick")
    if output is not None:
        cmd += ["--output", str(output)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return 124, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run is using it
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
    return proc.returncode, result


def main(argv: list[str] | None = None) -> int:
    p = harness.parser(__doc__.splitlines()[0])
    p.add_argument(
        "--runs", type=int, default=1,
        help="runs per workload, with seeds SEED, SEED+1, ... (default 1)",
    )
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    seconds = harness.default_seconds(args)
    workloads = [args.workload] if args.workload else list(harness.WORKLOADS)
    single = len(workloads) == 1 and args.runs == 1
    doc: dict = {
        "host": harness.host_block(),
        "seconds": seconds,
        "trace": args.trace,
        "quick": args.quick,
        "runs": {},
    }
    status = 0
    last = None
    for workload in workloads:
        results = []
        for seed in range(args.seed, args.seed + args.runs):
            output = None
            if args.output and single:
                output = Path(args.output).resolve()
            code, result = run_child(workload, seed, seconds, args.trace, args.quick, output)
            if code != 0 or result is None:
                status = status or code or 1
            if result is not None:
                results.append({"seed": seed, **result})
                last = result
        doc["runs"][workload] = results
    if single:
        if last is None:
            return status or 1
        print(json.dumps(last))
        return status
    doc["summary"] = summarize(doc["runs"])
    for workload, metrics in doc["summary"].items():
        print(f"{workload}:")
        for name, s in metrics.items():
            print(
                f"  {name:<40} median {s['median']:>12.6g} {s['unit']:<8}"
                f" IQR/median {s['iqr_share']:7.2%}  n={s['n']}"
            )
    if args.output:
        harness.write_json(doc, args.output)
    print(json.dumps({
        "correct": status == 0,
        "attempted": sum(r["attempted"] for rs in doc["runs"].values() for r in rs),
        "failed": sum(r["failed"] for rs in doc["runs"].values() for r in rs),
        "summary": doc["summary"],
    }))
    return status


def summarize(runs: dict[str, list[dict]]) -> dict[str, dict[str, dict]]:
    """Median and IQR of every metric across the runs of each workload."""
    out: dict[str, dict[str, dict]] = {}
    for workload, results in runs.items():
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for result in results:
            for name, m in result["metrics"].items():
                if m["value"] is not None:
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
        out[workload] = {
            name: {"unit": units[name], **harness.spread(v)} for name, v in values.items()
        }
    return out


if __name__ == "__main__":
    raise SystemExit(main())
