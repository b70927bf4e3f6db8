#!/usr/bin/env bash
# Source mutants: each tests/mutants/NN-name.patch plants one bug that a
# named test must catch. The patch's first line names it:
#
#     Catch: <cargo test arguments>
#
# followed by a few lines of prose and a `git diff` against the tree.
#
# First every named test runs once on an unpatched copy of the working
# tree and must pass. Then, for each patch, the working tree is copied to a
# scratch directory, the patch is applied with `git apply`, and its test runs
# in release; it must fail. A patch that no longer applies or no longer
# builds fails the run with "refresh this mutant".
#
# Usage: ./mutants.sh [tests/mutants/NN-name.patch ...]   (default: all)
# Scratch space (tree copies, build output, one log per mutant):
# $MUTANTS_DIR, else ${TMPDIR:-/tmp}/dtl-mutants, reused from run to run.
# Each copy rebuilds the workspace crates its test needs, about half a
# minute a mutant on two cores.
set -euo pipefail
cd "$(dirname "$0")"
repo=$(pwd)

patches=("$@")
[ ${#patches[@]} -gt 0 ] || patches=(tests/mutants/*.patch)
scratch=${MUTANTS_DIR:-${TMPDIR:-/tmp}/dtl-mutants}
mkdir -p "$scratch"
work="$scratch/tree"
export CARGO_TARGET_DIR="$scratch/target"

# The working tree as git sees it (tracked and untracked, not ignored),
# copied into its own repository so that `git apply` patches it and
# nothing above it.
copy_tree() {
    rm -rf "$work"
    mkdir -p "$work"
    git ls-files -z --cached --others --exclude-standard \
        | while IFS= read -r -d '' f; do
            if [ -e "$f" ]; then printf '%s\0' "$f"; fi
        done \
        | xargs -0 cp --parents -t "$work"
    git -C "$work" init -q
}

catch_args() {
    sed -n '1s/^Catch: //p' "$1"
}

for p in "${patches[@]}"; do
    [ -n "$(catch_args "$p")" ] || { echo "$p: first line is not 'Catch: <cargo test arguments>'"; exit 1; }
done

echo "== unpatched: every named test passes =="
copy_tree
for p in "${patches[@]}"; do
    # shellcheck disable=SC2046 # the arguments are words by design
    if ! (cd "$work" && cargo test --release -q --offline $(catch_args "$p")) \
        > "$scratch/baseline.log" 2>&1; then
        echo "$p: its test fails without the mutant (log: $scratch/baseline.log)"
        exit 1
    fi
done

caught=0
for p in "${patches[@]}"; do
    name=$(basename "$p" .patch)
    log="$scratch/$name.log"
    copy_tree
    if ! git -C "$work" apply "$repo/$p" > "$log" 2>&1; then
        echo "MISSED  $name: does not apply, refresh this mutant (log: $log)"
        continue
    fi
    # shellcheck disable=SC2046
    if ! (cd "$work" && cargo test --release -q --offline --no-run $(catch_args "$p")) \
        >> "$log" 2>&1; then
        echo "MISSED  $name: does not build, refresh this mutant (log: $log)"
        continue
    fi
    # shellcheck disable=SC2046
    if (cd "$work" && cargo test --release -q --offline $(catch_args "$p")) >> "$log" 2>&1; then
        echo "MISSED  $name: $(catch_args "$p") still passes (log: $log)"
    else
        echo "caught  $name"
        caught=$((caught + 1))
    fi
done

echo "caught $caught of ${#patches[@]}"
[ "$caught" -eq ${#patches[@]} ]
