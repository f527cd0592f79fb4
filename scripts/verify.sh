#!/usr/bin/env bash
# Repo verification gate: formatting, lints, and the tier-1 suite.
# Run from the repository root. Everything here works offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, deny warnings; or_fun_call catches an eager allocation in ok_or/unwrap_or)"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::or_fun_call

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q (every workspace crate: shard parity on and off the shard workers, checkpoints, serve, zero-alloc steady state at 1 and 2 shards on 2 threads)"
cargo test -q

echo "== ctms-serve smoke (session, run, checkpoint/restore round trip)"
serve_out=$(printf '%s\n' \
  '{"scenario":"case_a","seed":42}' \
  '{"cmd":"run","until_ms":1000}' \
  '{"cmd":"checkpoint"}' \
  '{"cmd":"quit"}' \
  | cargo run --release -q -p ctms-bench --bin serve)
ckpt=$(printf '%s' "$serve_out" | sed -n 's/.*"checkpoint":"\([0-9a-f]*\)".*/\1/p')
[ -n "$ckpt" ] || { echo "serve smoke: no checkpoint in output" >&2; exit 1; }
printf '%s\n' \
  '{"scenario":"case_a","seed":42}' \
  "{\"cmd\":\"restore\",\"checkpoint\":\"$ckpt\"}" \
  '{"cmd":"quit"}' \
  | cargo run --release -q -p ctms-bench --bin serve \
  | grep -q '"event":"restored","now_ms":1000' \
  || { echo "serve smoke: restore did not land at 1000 ms" >&2; exit 1; }

echo "== ctms-serve hostile-input smoke (an oversized ring count, deep nesting, truncated, bad-magic, non-hex and advanced-clock checkpoints, a non-UTF-8 line and an overflowing until_ms are typed errors; the session keeps serving)"
deep=$(head -c 100000 /dev/zero | tr '\0' '[')
# The 1 s case-A snapshot's clock is the u64 at byte 87 (hex 174..189);
# moving it to 1.5 s leaves node deadlines behind the clock.
[ "${ckpt:174:16}" = "00ca9a3b00000000" ] \
  || { echo "serve hostile smoke: the clock is not at byte 87" >&2; exit 1; }
advanced="${ckpt:0:174}002f685900000000${ckpt:190}"
hostile_out=$(printf '%s\n' \
  '{"scenario":"chain","rings":65537}' \
  '{"scenario":"case_a","seed":42}' \
  "$deep" \
  "{\"cmd\":\"restore\",\"checkpoint\":\"${ckpt:0:$((${#ckpt} / 4 * 2))}\"}" \
  "{\"cmd\":\"restore\",\"checkpoint\":\"00${ckpt:2}\"}" \
  '{"cmd":"restore","checkpoint":"aéb"}' \
  "{\"cmd\":\"restore\",\"checkpoint\":\"$advanced\"}" \
  $'{"cmd":"run","until_ms":5}\xff' \
  '{"cmd":"run","until_ms":18446744073710}' \
  '{"cmd":"run","until_ms":100}' \
  '{"cmd":"quit"}' \
  | cargo run --release -q -p ctms-bench --bin serve)
printf '%s\n' "$hostile_out" | sed -n 1p | grep -qF 'bad session line: \"rings\" out of range' \
  || { echo "serve hostile smoke: an oversized ring count was not refused" >&2; exit 1; }
for n in 3 4 5 6 7 8 9; do
  printf '%s\n' "$hostile_out" | sed -n "${n}p" | grep -q '"ok":false' \
    || { echo "serve hostile smoke: reply $n is not a typed error" >&2; exit 1; }
done
printf '%s\n' "$hostile_out" | sed -n 10p | grep -q '"event":"ran","now_ms":100' \
  || { echo "serve hostile smoke: the session stopped serving" >&2; exit 1; }

echo "== ctms-serve steer smoke (one steer+fork script at 1 and 2 shards: byte-identical replies after ready)"
steer_script() {
  printf '%s\n' \
    "{\"scenario\":\"chain\",\"rings\":8,\"shards\":$1}" \
    '{"cmd":"run","until_ms":300}' \
    '{"cmd":"steer","mutations":[{"kind":"station_churn","ring":2},{"kind":"purge_storm","ring":5,"count":2},{"kind":"dma_stall","host":0,"extra_us":500}]}' \
    '{"cmd":"fork","branches":[[],[{"kind":"station_churn","ring":1}]],"until_ms":500}' \
    '{"cmd":"run","until_ms":500}' \
    '{"cmd":"telemetry"}' \
    '{"cmd":"checkpoint"}' \
    '{"cmd":"quit"}' \
    | cargo run --release -q -p ctms-bench --bin serve | tail -n +2
}
steer_one=$(steer_script 1)
steer_two=$(steer_script 2)
printf '%s\n' "$steer_one" | sed -n 2p | grep -q '"event":"steered","applied":3' \
  || { echo "serve steer smoke: the steer did not apply" >&2; exit 1; }
[ "$steer_one" = "$steer_two" ] \
  || { echo "serve steer smoke: replies differ between 1 and 2 shards" >&2; exit 1; }

echo "== ctms-serve smoke (a checkpoint_stream of at least 2 chunks, chain/256 at 2 shards, concatenates to the checkpoint hex)"
stream_out=$(printf '%s\n' \
  '{"scenario":"chain","rings":256,"shards":2}' \
  '{"cmd":"run","until_ms":200}' \
  '{"cmd":"checkpoint"}' \
  '{"cmd":"checkpoint_stream"}' \
  '{"cmd":"quit"}' \
  | cargo run --release -q -p ctms-bench --bin serve)
mono=$(printf '%s' "$stream_out" | sed -n 's/.*"checkpoint":"\([0-9a-f]*\)".*/\1/p')
chunks=$(printf '%s' "$stream_out" \
  | sed -n 's/.*"event":"checkpoint_chunk".*"data":"\([0-9a-f]*\)".*/\1/p' \
  | tr -d '\n')
[ -n "$mono" ] || { echo "serve smoke: no monolithic checkpoint hex" >&2; exit 1; }
n_chunks=$(printf '%s\n' "$stream_out" | grep -c '"event":"checkpoint_chunk"' || true)
[ "$n_chunks" -ge 2 ] \
  || { echo "serve smoke: $n_chunks checkpoint_chunk lines, want at least 2" >&2; exit 1; }
[ "$chunks" = "$mono" ] \
  || { echo "serve smoke: streamed chunks do not concatenate to the checkpoint hex" >&2; exit 1; }
printf '%s' "$stream_out" | grep -q '"event":"checkpoint_done"' \
  || { echo "serve smoke: missing checkpoint_done line" >&2; exit 1; }

echo "== perfbench smoke (fddi/32 at 2 shards on 2 threads; the correctness gate must pass)"
bench_out=$(bash perfbench/run.sh --workload fddi-thin --seed 1 --seconds 1 --trace 0 | tail -n 1)
case "$bench_out" in
  *'"correct": true'*'"failed": 0'*) ;;
  *) echo "perfbench smoke: correctness gate failed: $bench_out" >&2; exit 1 ;;
esac

echo "== perfbench city-tree smoke (traced tree/10^4 at 2 shards, its fat windows on a shard worker: every threaded repetition and every traced single-threaded run must match the single-threaded reference)"
tree_bench=$(bash perfbench/run.sh --workload city-tree --seed 1 --seconds 1 --trace 1 | tail -n 1)
case "$tree_bench" in
  *'"correct": true'*'"failed": 0'*) ;;
  *) echo "perfbench city-tree smoke: correctness gate failed: $tree_bench" >&2; exit 1 ;;
esac

echo "== perfbench city-tree footprint (untraced tree/10^4 at 2 shards: the correctness gate must pass and peak RSS stay at most 42 MB, where it reads about 32: a node slot sized for a ring with no output scratch, shard tables reserved once, a station queue that allocates only for a second frame)"
tree_mem=$(bash perfbench/run.sh --workload city-tree --seed 1 --seconds 1 --trace 0 | tail -n 1)
case "$tree_mem" in
  *'"correct": true'*'"failed": 0'*) ;;
  *) echo "perfbench city-tree footprint: correctness gate failed: $tree_mem" >&2; exit 1 ;;
esac
python3 -c 'import json, sys; rss = json.loads(sys.argv[1])["metrics"]["peak_rss_mb"]["value"]; print(f"peak_rss_mb {rss:.1f}"); sys.exit(rss > 42)' "$tree_mem" \
  || { echo "perfbench city-tree footprint: peak RSS above 42 MB: $tree_mem" >&2; exit 1; }

echo "== perfbench paper-ab footprint (untraced cases A and B with the H1-H7 analysis: the correctness gate must pass and peak RSS stay at most 18 MB, where it reads about 14: the TAP keeps counts, not records; a measurement set borrows the truth logs; kept samples are packed as a few bytes of delta each; H5-H7 pair two tag-ordered logs in one merge)"
paper_mem=$(bash perfbench/run.sh --workload paper-ab --seed 1 --seconds 1 --trace 0 | tail -n 1)
case "$paper_mem" in
  *'"correct": true'*'"failed": 0'*) ;;
  *) echo "perfbench paper-ab footprint: correctness gate failed: $paper_mem" >&2; exit 1 ;;
esac
python3 -c 'import json, sys; rss = json.loads(sys.argv[1])["metrics"]["peak_rss_mb"]["value"]; print(f"peak_rss_mb {rss:.1f}"); sys.exit(rss > 18)' "$paper_mem" \
  || { echo "perfbench paper-ab footprint: peak RSS above 18 MB: $paper_mem" >&2; exit 1; }

echo "== perfbench serve-steer smoke (traced: every cycle the in-process replay restores a fresh sample-less bus and its presentation and purge counts must match serve's status lines; the correctness gate must pass)"
steer_bench=$(bash perfbench/run.sh --workload serve-steer --seed 1 --seconds 1 --trace 1 | tail -n 1)
case "$steer_bench" in
  *'"correct": true'*'"failed": 0'*) ;;
  *) echo "perfbench serve-steer smoke: correctness gate failed: $steer_bench" >&2; exit 1 ;;
esac

echo "verify: OK"
