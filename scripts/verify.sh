#!/usr/bin/env bash
# Tier-1 verification: the format gate (`cargo fmt --check`), build (the
# workspace and the stand-alone benchmark package), full test suite, the
# multi-middleware example, chaos suite, the clippy gate (warnings are
# errors) and the process-wide-state guard. Run before every commit.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "== cargo build --release"
cargo build --release

# benchmark/ builds against the `padico` facade; an API change that
# breaks it fails here, not only in CI's benchmark smoke job.
echo "== cargo build --release --offline --manifest-path benchmark/Cargo.toml"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "== cargo test -q"
cargo test -q

# Examples are documentation that runs: one that panics fails here.
echo "== cargo run --release -q --example multi_middleware"
cargo run --release -q --example multi_middleware >/dev/null

echo "== cargo test --features chaos -q --test chaos"
cargo test --features chaos -q --test chaos

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Telemetry and every other piece of mutable state belongs to one world
# (a Topology owns it). A `static` Mutex/OnceLock/atomic under
# crates/*/src is process-wide state every world in the process would
# share; only these may exist, each for the reason given.
echo "== process-wide statics"
allowed=(
    "SHELVES     segment pool: an allocator cache, process-wide like malloc"
    "HITS        segment pool hit counter (allocator statistics)"
    "MISSES      segment pool miss counter (allocator statistics)"
    "RETURNS     segment pool return counter (allocator statistics)"
    "SCHEDULE_CACHE     redistribution schedules: a memo of a pure function"
    "CHANNEL_IDS        logical channel ids must be unique across every world"
)
names=$(printf '%s\n' "${allowed[@]}" | awk '{print $1}' | paste -sd'|')
offenders=$(grep -rnE 'static +[A-Z_][A-Z0-9_]* *:.*(Mutex|OnceLock|Atomic|IdGen)' crates/*/src \
    | grep -vE "static +($names) *:" || true)
if [ -n "$offenders" ]; then
    echo "process-wide state outside the allow-list in scripts/verify.sh:"
    echo "$offenders"
    exit 1
fi

echo "verify: all gates passed"
