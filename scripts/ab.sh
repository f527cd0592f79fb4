#!/usr/bin/env bash
# Alternating-pairs comparison of the working tree against a base commit
# on one perfbench workload:
#
#   bash scripts/ab.sh BASE WORKLOAD
#
# Run from a git checkout. BASE is any commit name; WORKLOAD is one of
# the names in BENCHMARK.json. The two sides must carry the same
# benchmark: the script refuses to run if perfbench/ or BENCHMARK.json
# differ between BASE and the working tree.
#
# BASE's committed tree is exported with `git archive` to
# target/ab/<sha>/src and built into target/ab/<sha>/target; the
# working tree builds into target. Ten pairs run on seeds 1-10 for
# BENCHMARK.json's run_seconds, untraced, alternating which side runs
# first. Each run's stdout and stderr are kept in
# target/ab/<sha>/logs/<workload>.
#
# For every end-to-end metric the table gives both sides' median and
# quartiles (as statistics.quantiles(n=4) gives them), the number of
# pairs the working tree won (ties count for neither side), whether its
# median is within the metric's bound of BASE's, and whether it is a
# gain: at least nine tenths of the pairs won, and the medians apart in
# the better direction by more than BASE's q3 - q1.
#
# Exits 0 when every run passed its correctness gate with no failed
# operation and every median is within its bound; 1 otherwise. The gain
# column does not affect the exit status.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

[ $# -eq 2 ] || { echo "usage: scripts/ab.sh BASE WORKLOAD" >&2; exit 2; }
base=$(git rev-parse --verify --quiet "$1^{commit}") \
  || { echo "ab: $1 is not a commit" >&2; exit 2; }
workload=$2
python3 -c 'import json, sys; names = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]; sys.exit(sys.argv[1] not in names)' "$workload" \
  || { echo "ab: unknown workload $workload" >&2; exit 2; }

if ! git diff --quiet "$base" -- perfbench BENCHMARK.json \
  || [ -n "$(git ls-files --others --exclude-standard -- perfbench)" ]; then
  echo "ab: perfbench/ or BENCHMARK.json differs between $base and the working tree" >&2
  exit 1
fi

root=$PWD
dir=$root/target/ab/$base
logs=$dir/logs/$workload
rm -rf "$dir/src" "$logs"
mkdir -p "$dir/src" "$logs"
git archive "$base" | tar -x -C "$dir/src"

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
results=$logs/results.jsonl

# run SIDE SEED: one untraced run; appends {"side", "seed", "result"}.
run() {
  local side=$1 seed=$2 src target
  if [ "$side" = base ]; then src=$dir/src target=$dir/target; else src=$root target=$root/target; fi
  local log=$logs/$side-seed$seed
  (cd "$src" && CARGO_TARGET_DIR=$target bash perfbench/run.sh \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
    >"$log.out" 2>"$log.err" \
    || { echo "ab: $side seed $seed exited non-zero; see $log.err" >&2; exit 1; }
  printf '{"side": "%s", "seed": %s, "result": %s}\n' "$side" "$seed" "$(tail -n 1 "$log.out")" >>"$results"
  echo "# $side seed $seed done" >&2
}

for seed in 1 2 3 4 5 6 7 8 9 10; do
  if [ $((seed % 2)) -eq 1 ]; then
    run base "$seed"; run head "$seed"
  else
    run head "$seed"; run base "$seed"
  fi
done

python3 - "$results" "$base" "$workload" <<'EOF'
import json
import statistics
import sys

results_path, base, workload = sys.argv[1:]
with open("BENCHMARK.json") as f:
    metrics = json.load(f)["end_to_end"]
runs = {"base": {}, "head": {}}
with open(results_path) as f:
    for line in f:
        r = json.loads(line)
        runs[r["side"]][r["seed"]] = r["result"]

ok = True
for side, by_seed in runs.items():
    attempted = sum(r["attempted"] for r in by_seed.values())
    failed = sum(r["failed"] for r in by_seed.values())
    wrong = [s for s, r in sorted(by_seed.items()) if not r["correct"]]
    print(f"# {side}: {len(by_seed)} runs, {failed}/{attempted} failed, incorrect seeds {wrong or 'none'}")
    ok &= failed == 0 and not wrong

seeds = sorted(runs["base"])
print(f"# {workload}: head (working tree) vs base {base[:12]}, {len(seeds)} pairs")
print(f"{'metric':<14} {'base median [q1, q3]':>32} {'head median [q1, q3]':>32} {'change':>8} {'wins':>6} {'bound':>6}  {'verdict':<16}  gain")
for m in metrics:
    name, sign = m["name"], (1 if m["better"] == "higher" else -1)
    pairs = [(runs["base"][s]["metrics"].get(name), runs["head"][s]["metrics"].get(name)) for s in seeds]
    if any(b is None or h is None for b, h in pairs):
        print(f"{name:<14} not reported by every run")
        continue
    b = [p[0]["value"] for p in pairs]
    h = [p[1]["value"] for p in pairs]
    wins = sum(sign * (y - x) > 0 for x, y in zip(b, h))
    bm, hm = statistics.median(b), statistics.median(h)
    bq1, _, bq3 = statistics.quantiles(b, n=4)
    hq1, _, hq3 = statistics.quantiles(h, n=4)
    change = (hm - bm) / abs(bm) if bm else 0.0
    within = sign * change >= -m["bound"]
    ok &= within
    verdict = "within bound" if within else "WORSE than bound"
    gain = "yes" if 10 * wins >= 9 * len(seeds) and sign * (hm - bm) > bq3 - bq1 else "no"
    side = lambda med, q1, q3: f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
    print(f"{name:<14} {side(bm, bq1, bq3):>32} {side(hm, hq1, hq3):>32} {change:>+8.1%} {wins:>3}/{len(seeds):<2} {m['bound']:>6}  {verdict:<16}  {gain}")
sys.exit(0 if ok else 1)
EOF
