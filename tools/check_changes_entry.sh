#!/usr/bin/env bash
# Fails when the current branch does not add at least one line to
# CHANGES.md relative to the merge base with the target branch
# (default origin/main), or when a committed bench baseline is missing
# or does not pass tools/check_bench_regression.py against itself. Run
# from anywhere inside the repository.
#
# Usage: tools/check_changes_entry.sh [BASE_REF]
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
base_ref="${1:-origin/main}"

# The baselines are the ones CI gates against plus every ledger under
# benchmarks/. The ledger checker, run on a baseline against itself,
# refuses a missing, malformed or non-finite file and a zero/negative
# baseline, and fails one that breaks its own gates. Catch that at lint
# time, in the PR that broke it, not at every later PR's gate step.
baselines=$( { grep -o 'benchmarks/BENCH_[A-Za-z0-9_]*\.json' \
                 .github/workflows/ci.yml
               printf '%s\n' benchmarks/BENCH_*.json; } | sort -u)
for artifact in $baselines; do
  if ! python3 tools/check_bench_regression.py "$artifact" "$artifact" \
       > /dev/null; then
    echo "check_changes_entry: '$artifact' is not a valid bench baseline" >&2
    exit 1
  fi
done
echo "check_changes_entry: $(echo "$baselines" | wc -l) bench baseline(s) valid"

if ! git rev-parse --verify --quiet "$base_ref^{commit}" > /dev/null; then
  # Shallow clone or missing remote: lenient skip rather than a false
  # failure — the check still runs on full-clone CI.
  echo "check_changes_entry: base ref '$base_ref' not found; skipping" >&2
  exit 0
fi

merge_base="$(git merge-base "$base_ref" HEAD)"
if [ "$merge_base" = "$(git rev-parse HEAD)" ]; then
  echo "check_changes_entry: HEAD is the merge base; nothing to check"
  exit 0
fi

added="$(git diff --numstat "$merge_base"..HEAD -- CHANGES.md \
         | awk '{print $1}')"
if [ -z "${added:-}" ] || [ "$added" = "-" ] || [ "$added" -lt 1 ]; then
  echo "check_changes_entry: CHANGES.md gained no lines since $merge_base." >&2
  echo "Append a one-line summary of this change to CHANGES.md." >&2
  exit 1
fi
echo "check_changes_entry: CHANGES.md gained $added line(s)"
