"""Benchmark of ample-angles: one workload, one seed, one run.

    python3 perfbench/run.py --workload {classify,reports,queries} --seed N --seconds S --trace {0,1}

Run from the root of the repository.  Each pass runs the workload's whole
job list in a fresh single-threaded interpreter (perfbench/child.py), one
pass at a time, so nothing cached in one pass can speed up the next.

--trace 0  measures set-up in several fresh interpreters, then runs
           untraced passes until S seconds have gone, and reports the
           end-to-end metrics as medians over the passes.
--trace 1  runs one untraced pass, then traced passes until S seconds have
           gone, and reports the per-layer metrics (medians over the traced
           passes) and trace.overhead_ratio.

Human-readable tables go to stdout first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"} whose metric names
and units are the ones BENCHMARK.json lists.  Any wrong answer counts as a
failed job; it does not stop the run.  The exit code is non-zero, with no
JSON line, when the library is missing or a pass cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
# set-up is timed in this many fresh interpreters, after one warm-up that
# fills the bytecode caches
SETUP_PROBES = 9
# every run ends within 180 s, whatever --seconds says
RUN_LIMIT_S = 170
# traced runs list the hottest layers per job up to this many jobs
MAX_JOB_ROWS = 16

sys.path.insert(0, str(HERE))
import spans  # noqa: E402


class PassFailed(Exception):
    pass


def run_pass(args, started: float, *, traced=False, setup_only=False) -> dict:
    out = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
    cmd = [
        sys.executable, "-I", str(CHILD), "--root", str(ROOT), "--workload", args.workload,
        "--seed", str(args.seed), "--out", str(out),
    ]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    try:
        left = RUN_LIMIT_S - (time.monotonic() - started)
        if left <= 0:
            raise PassFailed("out of time before the pass could start")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise PassFailed(f"pass killed after {left:.0f} s") from None
        if proc.returncode != 0:
            raise PassFailed(f"pass exited with {proc.returncode}:\n{proc.stderr.strip()}")
        result = json.loads((out / "result.json").read_text())
        if traced:
            head = result.pop("trace")
            arrays = spans.load(out / "spans.bin", head["spans"])
            seconds = [job["raw_s"] for job in result["jobs"]]
            result["layers"] = spans.layer_metrics(head["names"], arrays, head["counts"])
            result["shares"] = spans.job_shares(head["names"], arrays, seconds)
            result["span_count"] = head["spans"]
        return result
    finally:
        shutil.rmtree(out, ignore_errors=True)


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def pass_figures(result: dict) -> dict[str, float]:
    """End-to-end figures of one untraced pass."""
    seconds = [job["seconds"] for job in result["jobs"]]
    figures = {
        "wall_s": sum(seconds),
        "wall_s.raw": sum(job["raw_s"] for job in result["jobs"]),
        "job_s.max": max(seconds),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    for key, values in result["samples"].items():
        if len(values) >= 2:
            figures[f"{key}.p50"] = statistics.median(values)
            figures[f"{key}.p90"] = percentile(values, 90)
    return figures


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    out = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        # counts repeat exactly from pass to pass; keep them whole numbers
        whole = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if whole else statistics.median(values)
    return out


def row(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<36} {text:>12} {unit:<5} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    missing = [p for p in ("src/ampleangles/__init__.py", "tests/_util.py", "samples") if not (ROOT / p).exists()]
    if missing:
        print(f"cannot benchmark: {', '.join(missing)} missing under {ROOT}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    started = time.monotonic()

    results, setup, figures, layers, traced = [], [], [], [], []
    try:
        if not args.trace:
            run_pass(args, started, setup_only=True)
            setup = [run_pass(args, started, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        else:
            results.append(run_pass(args, started))
            figures.append(pass_figures(results[-1]))
        measure_start = time.monotonic()
        while not (traced if args.trace else results) or time.monotonic() - measure_start < args.seconds:
            result = run_pass(args, started, traced=bool(args.trace))
            results.append(result)
            if args.trace:
                traced.append(result)
                layers.append(result["layers"] | {"wall_s": sum(j["seconds"] for j in result["jobs"])})
            else:
                figures.append(pass_figures(result))
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    jobs = [job for result in results for job in result["jobs"]]
    failed = [job for job in jobs if job["error"]]
    for job in failed[:3]:
        print(f"FAILED {job['name']}:\n{job['error']}", file=sys.stderr)
    e2e = medians(figures)
    print(f"workload {args.workload}, seed {args.seed}: {len(results[0]['jobs'])} jobs per pass, "
          f"{len(results)} passes ({len(traced)} traced)")

    if args.trace:
        values = medians(layers)
        values["trace.overhead_ratio"] = values.pop("wall_s") / e2e["wall_s"]
        wanted = spec["per_layer"]
        first = traced[0]
        whole, per_job = first["shares"]
        print(f"largest self-time shares, first traced pass ({first['span_count']} spans):")
        rows = [("whole pass", sum(job["raw_s"] for job in first["jobs"]), whole)]
        if len(per_job) <= MAX_JOB_ROWS:
            rows += [(job["name"], job["raw_s"], shares) for job, shares in zip(first["jobs"], per_job)]
        for name, seconds, shares in rows:
            text = ", ".join(f"{layer} {share:.0%}" for layer, share in shares)
            print(f"  {name:<34} {seconds:8.3f} s  {text}")
        print("per-layer metrics (median over traced passes):")
    else:
        values = e2e | {"setup_s": statistics.median(setup)}
        wanted = spec["end_to_end"]
        print(f"end-to-end metrics (median over {len(figures)} passes, set-up over {len(setup)} interpreters):")
        row("fail_ratio", len(failed) / len(jobs), "ratio", f"{len(failed)} failed of {len(jobs)} jobs")
        row("wall_s.raw", values.pop("wall_s.raw"), "s", "plain wall time, not normalized")
        for key in sorted(set(values) - {m["name"] for m in wanted}):
            row(key, values[key], "us", "per call")
    for metric in wanted:
        row(metric["name"], values[metric["name"]], metric["unit"])

    line = {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
