#!/usr/bin/env bash
# Tier-1 verification: build, full test suite, chaos suite, the
# same-seed replay-identity suite, and the clippy gate (warnings are
# errors). Run before every commit.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== cargo test --features chaos -q --test chaos"
cargo test --features chaos -q --test chaos

echo "== cargo test --features chaos -q --test replay_identity"
cargo test --features chaos -q --test replay_identity

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "verify: all gates passed"
