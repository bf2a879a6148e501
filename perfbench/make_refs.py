"""Write the reference outputs of the fixed CLI jobs into perfbench/ref/.

    python3 perfbench/make_refs.py

Run from the root of the repository.  The references were generated once,
from the commit that introduced the benchmark; regenerate them only when a
change is meant to alter the program's output.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def main() -> int:
    Path(workloads.WORK).mkdir(exist_ok=True)
    jobs = workloads.classify_jobs(0) + workloads.reports_jobs(0)
    for job in jobs:
        if not isinstance(job, workloads.CliJob):
            continue
        code, stdout = job.run(None)
        if code != job.exit_code:
            print(f"{job.name}: exit code {code}, want {job.exit_code}", file=sys.stderr)
            return 1
        (workloads.REF / f"{job.name}.out").write_text(stdout, encoding="utf-8")
        if job.svg:
            (workloads.REF / f"{job.name}.svg").write_text(Path(job.svg).read_text(encoding="utf-8"), encoding="utf-8")
        print(f"wrote {job.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
