#!/usr/bin/env bash
# Paired benchmark of the working tree against a base commit on the
# repository's benchmark (`simbench/`), plus an optional one-factor
# ablation. Hermetic: no network.
#
# usage: scripts/bench.sh BASE [LABEL=SOURCE ...]
#
#   BASE          git revision of the parent commit (arm "parent").
#   LABEL=SOURCE  ablation arms, in cumulative order: each adds one factor
#                 to the arm before it (the first to BASE), and the working
#                 tree (arm "change") adds the last factor. SOURCE is a git
#                 revision or a directory holding a source tree.
#
# Every arm's igo-simbench is built once, from a snapshot of its sources in
# a temporary directory, so editing the working tree mid-run changes
# nothing. Then, each run lasting SECONDS_PER_RUN (the benchmark's 35 s):
#
#   claim          CLAIM_PAIRS parent/change pairs on CLAIM_WORKLOAD, one
#                  fresh seed per pair, alternating which side runs first;
#   no-regression  NOREG_PAIRS such pairs on each other workload;
#   ablation       ABLATION_ROUNDS rounds of every arm on every workload,
#                  arm order reversed every other round;
#   traced         one `--trace 1` run of parent and change per workload,
#                  for the per-layer metrics.
#
# Before any of that, the tier-1 suite (`cargo test -q`) of the working
# tree runs once to warm the build and then five more times, timed.
#
# Writes BENCH_<BENCH_ID>.json: DESCRIPTION (what the arms are), the host,
# the tier-1 wall times with their min and median, every run's final JSON
# line tagged with arm, workload, seed and role, and
# per (role, workload, metric) the median and quartiles of each arm plus,
# for paired roles, the change's wins over the parent.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

BASE="${1:?usage: scripts/bench.sh BASE [LABEL=SOURCE ...]}"
shift
BENCH_ID="${BENCH_ID:-9}"
DESCRIPTION="${DESCRIPTION:-}"
SECONDS_PER_RUN="${SECONDS_PER_RUN:-35}"
CLAIM_WORKLOAD="${CLAIM_WORKLOAD:-layer-mix}"
CLAIM_PAIRS="${CLAIM_PAIRS:-10}"
NOREG_PAIRS="${NOREG_PAIRS:-6}"
ABLATION_ROUNDS="${ABLATION_ROUNDS:-3}"
SEED_BASE="${SEED_BASE:-101}"
WORKLOADS="zoo-ladder layer-mix oracle"
OUT="BENCH_${BENCH_ID}.json"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# snapshot <label> <git revision | directory | "."> — copy the sources and
# build the arm's igo-simbench into $WORK/<label>.
snapshot() {
  local label="$1" src="$2" dir="$WORK/$1"
  mkdir -p "$dir"
  if [ -d "$src" ]; then
    tar -C "$src" --exclude=./target --exclude=./simbench/target --exclude=./.git -cf - . |
      tar -C "$dir" -xf -
  else
    git archive "$src" | tar -C "$dir" -xf -
  fi
  echo "building arm $label" >&2
  cargo build --release --quiet --manifest-path "$dir/simbench/Cargo.toml"
}

# Tier-1 wall time of the working tree, warm build, five timed runs.
echo "tier-1: warm-up run" >&2
cargo test -q >/dev/null 2>&1
TIER1=""
for ((i = 0; i < 5; i++)); do
  start="$(date +%s.%N)"
  cargo test -q >/dev/null 2>&1
  TIER1="$TIER1 $(echo "$start $(date +%s.%N)" | awk '{ printf "%.2f", $2 - $1 }')"
  echo "tier-1 run $((i + 1)):${TIER1##* } s" >&2
done
TIER1_JSON="$(printf '%s\n' $TIER1 | sort -g | awk -v list="$(echo $TIER1 | sed 's/ /, /g')" '
  { v[++n] = $1 }
  END { printf "{\"command\": \"cargo test -q\", \"runs_s\": [%s], \"min_s\": %s, \"median_s\": %s}", list, v[1], v[int((n + 1) / 2)] }')"

ARMS="parent"
snapshot parent "$BASE"
for spec in "$@"; do
  snapshot "${spec%%=*}" "${spec#*=}"
  ARMS="$ARMS ${spec%%=*}"
done
snapshot change .
ARMS="$ARMS change"

RUNS="$WORK/runs.jsonl"
FLAT="$WORK/flat.tsv"
: >"$RUNS"
: >"$FLAT"

# run <role> <arm> <workload> <seed> [trace]: one benchmark run, recorded
# raw in $RUNS and flattened to (role, workload, seed, arm, metric, value)
# rows in $FLAT.
run() {
  local role="$1" arm="$2" workload="$3" seed="$4" trace="${5:-0}" line
  line="$("$WORK/$arm/simbench/target/release/igo-simbench" --workload "$workload" \
    --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace "$trace" 2>/dev/null | tail -1)"
  echo "$role $workload seed $seed $arm: $line" >&2
  printf '{"role": "%s", "arm": "%s", "workload": "%s", "seed": %s, "trace": %s, "result": %s}\n' \
    "$role" "$arm" "$workload" "$seed" "$trace" "$line" >>"$RUNS"
  printf '%s\n' "$line" |
    grep -o '"[a-z0-9_.]*": {"value": [-0-9.e+]*' |
    sed 's/^"\([^"]*\)": {"value": \(.*\)$/\1 \2/' |
    while read -r metric value; do
      printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$role" "$workload" "$seed" "$arm" "$metric" "$value" >>"$FLAT"
    done
}

# pairs <role> <workload> <count>: alternating parent/change pairs.
seed="$SEED_BASE"
pairs() {
  local role="$1" workload="$2" i
  for ((i = 0; i < $3; i++)); do
    if ((i % 2 == 0)); then
      run "$role" parent "$workload" "$seed"
      run "$role" change "$workload" "$seed"
    else
      run "$role" change "$workload" "$seed"
      run "$role" parent "$workload" "$seed"
    fi
    seed=$((seed + 1))
  done
}

pairs claim "$CLAIM_WORKLOAD" "$CLAIM_PAIRS"
for w in $WORKLOADS; do
  [ "$w" = "$CLAIM_WORKLOAD" ] || pairs no-regression "$w" "$NOREG_PAIRS"
done
if [ "$ARMS" != "parent change" ]; then
  REVERSED="$(printf '%s\n' $ARMS | tac | tr '\n' ' ')"
  for ((round = 0; round < ABLATION_ROUNDS; round++)); do
    order="$ARMS"
    ((round % 2 == 0)) || order="$REVERSED"
    for w in $WORKLOADS; do
      for arm in $order; do run ablation "$arm" "$w" "$seed"; done
      seed=$((seed + 1))
    done
  done
fi
for w in $WORKLOADS; do
  for arm in parent change; do run traced "$arm" "$w" "$seed" 1; done
  seed=$((seed + 1))
done

# Per (role, workload, metric, arm): median and quartiles; per paired
# (role, workload, metric): the change's wins over the parent, counting
# the direction each end-to-end metric improves in.
SUMMARY="$(sort -t "$(printf '\t')" -k1,1 -k2,2 -k5,5 -k4,4 -k6,6g "$FLAT" | awk -F '\t' '
  function q(p,   i) { i = int(p * (n - 1) + 0.5) + 1; return v[i] }
  function flush() {
    if (n == 0) return
    printf "%s    {\"role\": \"%s\", \"workload\": \"%s\", \"metric\": \"%s\", \"arm\": \"%s\", \"runs\": %d, \"q1\": %s, \"median\": %s, \"q3\": %s}",
      sep, role, wl, metric, arm, n, q(0.25), q(0.5), q(0.75)
    sep = ",\n"; n = 0
  }
  { key = $1 FS $2 FS $5 FS $4
    if (key != last) { flush(); role = $1; wl = $2; metric = $5; arm = $4; last = key }
    v[++n] = $6 }
  END { flush(); printf "\n" }')"
WINS="$(awk -F '\t' '
  $1 == "claim" || $1 == "no-regression" { val[$1 FS $2 FS $5 FS $3 FS $4] = $6; keys[$1 FS $2 FS $5] = 1; seeds[$1 FS $2 FS $5 FS $3] = 1 }
  END {
    for (k in keys) {
      split(k, f, FS); up = (f[3] == "ops_per_s")
      wins = 0; pairs = 0
      for (s in seeds) {
        if (index(s, k FS) != 1) continue
        p = val[s FS "parent"]; c = val[s FS "change"]
        if (p == "" || c == "") continue
        pairs++
        if ((up && c > p) || (!up && c < p)) wins++
      }
      printf "%s    {\"role\": \"%s\", \"workload\": \"%s\", \"metric\": \"%s\", \"pairs\": %d, \"change_wins\": %d}", sep, f[1], f[2], f[3], pairs, wins
      sep = ",\n"
    }
    printf "\n"
  }' "$FLAT")"

{
  printf '{\n  "bench": "%s",\n  "description": "%s",\n  "base": "%s",\n  "arms": "%s",\n' \
    "$BENCH_ID" "$DESCRIPTION" "$(git rev-parse "$BASE")" "$ARMS"
  printf '  "host": "%s, nproc %s",\n' "$(uname -m)" "$(nproc)"
  printf '  "tier1": %s,\n' "$TIER1_JSON"
  printf '  "command": "igo-simbench --workload W --seed S --seconds %s --trace T",\n' "$SECONDS_PER_RUN"
  printf '  "summary": [\n%s  ],\n' "$SUMMARY"
  printf '  "wins": [\n%s  ],\n' "$WINS"
  printf '  "runs": [\n'
  sed '$!s/$/,/; s/^/    /' "$RUNS"
  printf '  ]\n}\n'
} >"$OUT"
echo "bench: wrote ${OUT}"
