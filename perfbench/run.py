"""Run one benchmark workload of the spheredeconv fitting pipeline.

    python3 perfbench/run.py --workload joint_s1 --seed 1 --seconds 15 --trace 0

Run from any directory; the package is imported from the src/ directory of
the checkout this file sits in, and nothing is installed or built.  The
input is generated from --seed.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  The line before it records the environment (thread pins,
versions, BLAS, git revision) and the run's diagnostics.  --trace 1 also
writes the recorded spans to perfbench/traces/<workload>.json.  Each run
starts one low-priority helper process, the speed sampler of speed.py, and
waits for it to end before returning.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import harness  # pins the BLAS thread counts before numpy loads
    except ModuleNotFoundError as exc:
        print(f"run.py: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(harness.sd.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"run.py: spheredeconv resolved to {harness.sd.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = harness.load_spec(ROOT)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")

    out = harness.run(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT,
        trace_dir=HERE / "traces",
    )
    info = dict(out["info"], env=harness.environment(ROOT))
    result = harness.report(spec, out["values"], bool(args.trace), info["ops"], len(info["errors"]))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
