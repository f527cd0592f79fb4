#!/usr/bin/env bash
# Repo verification gate: formatting, lints, and the tier-1 suite.
# Run from the repository root. Everything here works offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, deny warnings; or_fun_call catches an eager allocation in ok_or/unwrap_or)"
cargo clippy --workspace -- -D warnings -W clippy::or_fun_call

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q (every workspace crate: shard parity, checkpoints, serve)"
cargo test -q

echo "== zero-alloc scheduler steady state (alloc-count)"
cargo test -q -p ctms-sim --features alloc-count --test zero_alloc

echo "== zero-alloc sharded steady state (alloc-count)"
cargo test -q -p ctms-sim --features alloc-count --test zero_alloc_sharded

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

echo "== ctms-serve hostile-input smoke (deep nesting, truncated, bad-magic and non-hex checkpoints, a non-UTF-8 line and an overflowing until_ms are typed errors; the session keeps serving)"
deep=$(head -c 100000 /dev/zero | tr '\0' '[')
hostile_out=$(printf '%s\n' \
  '{"scenario":"case_a","seed":42}' \
  "$deep" \
  "{\"cmd\":\"restore\",\"checkpoint\":\"${ckpt:0:$((${#ckpt} / 4 * 2))}\"}" \
  "{\"cmd\":\"restore\",\"checkpoint\":\"00${ckpt:2}\"}" \
  '{"cmd":"restore","checkpoint":"aéb"}' \
  $'{"cmd":"run","until_ms":5}\xff' \
  '{"cmd":"run","until_ms":18446744073710}' \
  '{"cmd":"run","until_ms":100}' \
  '{"cmd":"quit"}' \
  | cargo run --release -q -p ctms-bench --bin serve)
for n in 2 3 4 5 6 7; do
  printf '%s\n' "$hostile_out" | sed -n "${n}p" | grep -q '"ok":false' \
    || { echo "serve hostile smoke: reply $n is not a typed error" >&2; exit 1; }
done
printf '%s\n' "$hostile_out" | sed -n 8p | grep -q '"event":"ran","now_ms":100' \
  || { echo "serve hostile smoke: the session stopped serving" >&2; exit 1; }

echo "== ctms-serve smoke (streamed checkpoint chunks concatenate to the monolithic hex)"
stream_out=$(printf '%s\n' \
  '{"scenario":"chain","rings":8,"shards":2}' \
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
[ "$chunks" = "$mono" ] \
  || { echo "serve smoke: streamed chunks do not concatenate to the checkpoint hex" >&2; exit 1; }
printf '%s' "$stream_out" | grep -q '"event":"checkpoint_done"' \
  || { echo "serve smoke: missing checkpoint_done line" >&2; exit 1; }

echo "== sharded perf smoke (parity-asserting, report-only vs BENCH_PR5.json)"
cargo run --release -q -p ctms-bench --features alloc-count --bin perf -- \
  --quick --shards 4 --rings 32 --compare BENCH_PR5.json

echo "== topology perf smoke (tree+mesh+fddi parity at 1 and 4 shards, vs BENCH_PR7.json)"
cargo run --release -q -p ctms-bench --features alloc-count --bin perf -- \
  --quick --shards 4 --rings 32 \
  --topology tree:16 --topology mesh:12 --topology fddi:8 \
  --compare BENCH_PR7.json

echo "== scale perf smoke (capacity section at small N: build, streamed-checkpoint parity at 1/2/4 shards, vs BENCH_PR10.json)"
cargo run --release -q -p ctms-bench --features alloc-count --bin perf -- \
  --quick --scale --compare BENCH_PR10.json

echo "== bench_trend selftest (malformed reports must fail; /7 rows render)"
python3 scripts/bench_trend.py --selftest

echo "verify: OK"
