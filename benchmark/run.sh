#!/usr/bin/env bash
# The perf ledger's one command: builds the benchmark package offline and
# hands every argument to it. See benchmark/README.md for the options.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

# Only where this is a git work tree: elsewhere git would go looking in
# the directories above, which are not the benchmark's to read.
PERFLEDGER_GIT_REV=unknown
if [ -e .git ]; then
    PERFLEDGER_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
PERFLEDGER_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export PERFLEDGER_GIT_REV PERFLEDGER_RUSTC

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/perfledger" "$@"
