#!/usr/bin/env bash
# Paired timing runs of a parent revision against this checkout, judged
# by the claim rule (ROADMAP, "How to claim anything").
#
#   scripts/pairs.sh REV [N] -- CMD...
#
# Checks REV out into a git worktree under .bench_build/pairs, then runs
# CMD N times (default 10) in the worktree and in this checkout,
# alternating which side goes first, and prints each metric's medians,
# quartiles, wins and verdict (scripts/pairs). CMD is parsed as
# benchmark/run.sh (its last JSON line) or as go test -bench (its result
# lines). Each run's output is kept under .bench_build/pairs/runs.*; the
# worktree is removed on exit.
#
#   scripts/pairs.sh HEAD~1 -- bash benchmark/run.sh --workload lss_stream --seed 1 --seconds 2
#   scripts/pairs.sh HEAD~1 5 -- go test -run '^$' -bench StreamDrain -benchtime 500x ./internal/serve
set -euo pipefail
usage() {
	echo "usage: scripts/pairs.sh REV [N] -- CMD..." >&2
	exit 2
}
[ $# -ge 3 ] || usage
rev=$1
shift
n=10
if [ "$1" != -- ]; then
	n=$1
	shift
fi
[ "$1" = -- ] || usage
shift
[ $# -ge 1 ] || usage

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
base="$root/.bench_build/pairs"
mkdir -p "$base"
wt="$base/worktree.$sha"
out=$(mktemp -d "$base/runs.XXXXXX")
cleanup() {
	git -C "$root" worktree remove --force "$wt" 2>/dev/null || true
	git -C "$root" worktree prune
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$wt" "$sha"

for i in $(seq 1 "$n"); do
	order="parent change"
	if [ $((i % 2)) -eq 0 ]; then
		order="change parent"
	fi
	for side in $order; do
		dir=$root
		[ "$side" = parent ] && dir=$wt
		echo "pairs: run $i of $n, $side" >&2
		if ! (cd "$dir" && "$@") >"$out/$side.$i.txt" 2>"$out/$side.$i.err"; then
			echo "pairs: the $side's run $i failed; see $out/$side.$i.err" >&2
			exit 1
		fi
	done
done

echo "parent $sha, change: this checkout; runs in $out"
cd "$root"
go run ./scripts/pairs -n "$n" -benchmark "$root/BENCHMARK.json" "$out"
