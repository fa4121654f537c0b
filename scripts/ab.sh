#!/usr/bin/env bash
# Alternating A/B of the repository's benchmark: the working tree (the
# change) against a parent commit, the way PERF.md's figures are taken.
#
#   scripts/ab.sh <parent-ref> [pairs] [bench flags...]
#   scripts/ab.sh HEAD~1                          # 10 pairs of -seed 1 -trace 0 -seconds 6
#   scripts/ab.sh 6c9cb15 10 -seed 31 -trace 0 -seconds 6 -workload hadoop-steady
#
# The parent is checked out with `git worktree` under a temporary
# directory (removed on exit); each side's ./bench is built from its own
# tree and run from it, because the bench reads bench/golden.json and the
# git commit relative to its working directory. The two binaries must
# differ: a build run from the wrong directory silently measures one tree
# against itself. Which side runs first alternates pair by pair —
# back-to-back sets drift by ~14 % on a shared host, so only alternating
# pairs count. Every run's stdout and -out file is kept in the directory
# printed at the end (AB_OUT to choose it).
#
# Per workload and end-to-end metric the summary gives both medians, the
# parent's own q1–q3 (its run-to-run spread) and the pairs the change won.
# A gain is claimed only when the change wins at least nine pairs in ten
# and the medians are further apart than the parent's q1–q3 distance.
# Below the table, one line per workload says whether the simulation
# moved: both sides run the same seed, so every run's sim_digest should
# be the same unless the change alters what is simulated; when they
# differ, each side's distinct digests are listed.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,8p' "$0"; exit 2; }
parent_ref=$1
shift
pairs=10
if [[ ${1:-} =~ ^[0-9]+$ ]]; then
  pairs=$1
  shift
fi
flags=("$@")
[ ${#flags[@]} -gt 0 ] || flags=(-seed 1 -trace 0 -seconds 6)

tmp=$(mktemp -d)
out=${AB_OUT:-$(mktemp -d "${TMPDIR:-/tmp}/ab-out.XXXXXX")}
mkdir -p "$out"
cleanup() {
  git worktree remove --force "$tmp/parent" 2>/dev/null || true
  git worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT

git worktree add --quiet --detach "$tmp/parent" "$parent_ref"
# -trimpath and -buildvcs=false keep the directory and the commit out of
# the binaries, so they are identical exactly when the code is.
(cd "$tmp/parent" && go build -trimpath -buildvcs=false -o "$tmp/bench-parent" ./bench)
go build -trimpath -buildvcs=false -o "$tmp/bench-change" ./bench
if cmp -s "$tmp/bench-parent" "$tmp/bench-change"; then
  echo "ab.sh: the parent's bench binary and the change's are identical: nothing to compare" >&2
  exit 1
fi

run() { # side, pair number
  local dir=$PWD
  [ "$1" = parent ] && dir=$tmp/parent
  (cd "$dir" && "$tmp/bench-$1" "${flags[@]}" -out "$out/$1-$2.json") >"$out/$1-$2.txt"
}
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$i"
    run change "$i"
  else
    run change "$i"
    run parent "$i"
  fi
  echo "pair $i/$pairs done" >&2
done

echo "parent $(git rev-parse --short "$parent_ref") vs working tree at $(git rev-parse --short HEAD), $pairs alternating pairs of: bench ${flags[*]}"
grep -h -m1 '^host:' "$out/change-1.txt"
# Which direction is better comes from BENCHMARK.json's end_to_end list;
# the values from each run's gated `e2e` lines and its result lines.
awk -v pairs="$pairs" -v out="$out" '
function sorted(src, dst,    i, j, t) { # insertion sort of src[1..pairs] into dst
  for (i = 1; i <= pairs; i++) dst[i] = src[i]
  for (i = 2; i <= pairs; i++) for (j = i; j > 1 && dst[j-1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j-1]; dst[j-1] = t }
}
function quantile(v, p,    h, lo) { # linear interpolation between order statistics
  h = (pairs - 1) * p + 1; lo = int(h)
  return lo >= pairs ? v[pairs] : v[lo] + (h - lo) * (v[lo+1] - v[lo])
}
FILENAME == "BENCHMARK.json" {
  if ($0 ~ /"end_to_end"/) e2e = 1; else if ($0 ~ /"per_layer"/) e2e = 0
  if (e2e && $0 ~ /"name"/) { split($0, q, "\""); name = q[4] }
  if (e2e && $0 ~ /"better"/) { split($0, q, "\""); better[name] = q[4] }
  next
}
FNR == 1 { n = split(FILENAME, q, /[-.\/]/); side = q[n-2]; pair = q[n-1] }
$1 == "==" {
  w = $2; if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
  for (i = 3; i <= NF; i++) if ($i ~ /^sim_digest=/) {
    d = substr($i, 12)
    if (!((side, w, d) in dseen)) { dseen[side, w, d] = 1; digests[side, w] = digests[side, w] " " d; ndig[side, w]++ }
  }
}
$1 == "e2e" && ($2 in better) { val[side, w, $2, pair] = $3; if (!($2 in mseen)) { mseen[$2] = 1; morder[++nm] = $2 } }
/^\{"correct"/ { if ($0 !~ /"correct":true/ || $0 !~ /"failed":0,/) bad[side]++ }
END {
  printf "%-15s %-15s %14s %14s %7s   %-29s %s\n", "workload", "metric", "parent median", "change median", "ratio", "parent q1–q3", "change ahead"
  for (a = 1; a <= nw; a++) for (b = 1; b <= nm; b++) {
    w = order[a]; m = morder[b]; won = 0
    for (i = 1; i <= pairs; i++) {
      p[i] = val["parent", w, m, i]; c[i] = val["change", w, m, i]
      if (better[m] == "higher" ? c[i] > p[i] : c[i] < p[i]) won++
    }
    sorted(p, ps); sorted(c, cs)
    pm = quantile(ps, 0.5); cm = quantile(cs, 0.5)
    printf "%-15s %-15s %14.6g %14.6g %6.3fx   %-12.6g – %-12.6g   %d/%d\n", w, m, pm, cm, (pm ? cm / pm : 0), quantile(ps, 0.25), quantile(ps, 0.75), won, pairs
  }
  for (a = 1; a <= nw; a++) {
    w = order[a]
    if (ndig["parent", w] == 1 && digests["parent", w] == digests["change", w])
      printf "sim_digest %-15s identical in all %d runs of each side:%s\n", w, pairs, digests["parent", w]
    else
      printf "sim_digest %-15s DIFFERS: parent%s; change%s\n", w, digests["parent", w], digests["change", w]
  }
  if (bad["parent"] + bad["change"] > 0) printf "result lines not correct or with failed flows: parent %d, change %d\n", bad["parent"], bad["change"]
  print "every run is kept in " out
}' BENCHMARK.json $(for i in $(seq 1 "$pairs"); do echo "$out/parent-$i.txt" "$out/change-$i.txt"; done)
