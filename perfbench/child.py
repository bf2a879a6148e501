"""One benchmark pass in a fresh, single-threaded interpreter.

    python3 -I perfbench/child.py --root ROOT --workload W --seed N --out DIR [--trace] [--setup-only]

Runs from ROOT.  Imports the library from ROOT/src (an absolute path, so
the pass never depends on the caller's working directory or PYTHONPATH),
builds the workload's inputs from the seed, runs each job as one timed span
and checks its answer afterwards.  Writes DIR/result.json and, when traced,
the spans to DIR/spans.bin.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))  # -I leaves the script's directory out
import speed  # noqa: E402


def main(probe: speed.SpeedProbe) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = Path(args.root).resolve()
    out = Path(args.out)
    sys.path[:0] = [str(root / "src"), str(root / "tests")]

    import workloads

    jobs = workloads.make_jobs(args.workload, args.seed)
    setup_end = time.perf_counter()
    result = {"setup_s": probe.normalized(T0, setup_end), "setup_raw_s": setup_end - T0, "jobs": []}
    if args.setup_only:
        probe.stop()
        (out / "result.json").write_text(json.dumps(result))
        return 0

    rec = None
    if args.trace:
        import ampleangles
        import spans

        rec = spans.Recorder()
        spans.instrument(rec, ampleangles)

    samples = {"contains_us": [], "reparam_us": []}
    clock = time.perf_counter
    for index, job in enumerate(jobs):
        if rec is not None:
            rec.current_job = index
        entry = {"name": job.name, "error": None}
        t0 = clock()
        try:
            answer = job.run(samples)
        except Exception:
            answer = None
            entry["error"] = traceback.format_exc(limit=3)
        t1 = clock()
        entry["raw_s"] = t1 - t0
        entry["seconds"] = probe.normalized(t0, t1)
        if entry["error"] is None:
            try:
                job.check(answer)
            except Exception:
                entry["error"] = traceback.format_exc(limit=3)
        result["jobs"].append(entry)
    probe.stop()
    result["samples"] = {
        key: [probe.normalized(a, b) * 1e6 for a, b in spans_] for key, spans_ in samples.items()
    }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if rec is not None:
        rec.current_job = -1
        rec.finish()
        rec.save(out / "spans.bin")
        result["trace"] = rec.header()
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    probe = speed.SpeedProbe()
    probe.start()
    sys.exit(main(probe))
