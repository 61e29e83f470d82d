#!/bin/sh
# Record one BENCH_<short-sha>.json for a checkout of this repository.
#
#     scripts/record_bench.sh [CHECKOUT]
#
# Runs perfbench/run.py of CHECKOUT (default: this repository) on every
# workload at seeds 1-3 for 15 s each, plus one traced run each of
# joint_s1, known_s1_big and known_s4 at seed 1, one run at a time, and writes
# BENCH_<short-sha of CHECKOUT's HEAD>.json to the current directory: a
# JSON list with one object per run holding the run's arguments and the
# two JSON lines it printed (info, result).
set -eu
checkout=$(cd "${1:-$(dirname "$0")/..}" && pwd)
sha=$(git -C "$checkout" rev-parse --short HEAD)
out="BENCH_$sha.json"
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
record() {
    python3 "$checkout/perfbench/run.py" --workload "$1" --seed "$2" --seconds 15 --trace "$3" \
        | tail -n 2 \
        | python3 -c 'import json, sys; info, result = map(json.loads, sys.stdin); print(json.dumps({"workload": sys.argv[1], "seed": int(sys.argv[2]), "trace": int(sys.argv[3]), "info": info, "result": result}))' "$1" "$2" "$3" \
        >> "$runs"
}
for workload in joint_s1 known_s1_big known_s4 sweep_s4; do
    for seed in 1 2 3; do
        record "$workload" "$seed" 0
    done
done
record joint_s1 1 1
record known_s1_big 1 1
record known_s4 1 1
python3 -c 'import json, sys; json.dump([json.loads(line) for line in open(sys.argv[1])], sys.stdout, indent=1); print()' "$runs" > "$out"
echo "wrote $out"
