#!/usr/bin/env bash
# Lint gate: formatting, clippy and rustdoc across the whole workspace,
# warnings denied. Run before sending a change out for review.
set -euo pipefail
cd "$(dirname "$0")/.."

# The smoke runs below write their results here; nothing is left in /tmp.
smoke_out="$(mktemp -d)"
trap 'rm -rf "$smoke_out"' EXIT

if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check
else
    echo "warning: rustfmt unavailable, skipping format check" >&2
fi

cargo clippy --workspace --all-targets -- -D warnings
echo "lint: clean"

# Rustdoc: a broken, ambiguous or private intra-doc link and a malformed
# HTML tag in a doc comment pass the compiler, clippy and the tests, so
# only a doc build with warnings denied catches them.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
echo "docs: clean"

# The repo benchmark (perfbench/) is a package with its own [workspace],
# so nothing above compiles it. Type-check it here: deleting or renaming a
# public item it calls must fail lint, not the next benchmark run.
cargo check --manifest-path perfbench/Cargo.toml
echo "perfbench: compiles"

# Lab smoke: the committed four-variant × two-seed spec end to end through
# the planner/executor. Its regression gates compare against
# specs/smoke.baseline.jsonl; the simulation is deterministic, so this one
# DOES fail lint on any gate breach.
cargo run --release -p laminar-bench --bin laminar-experiments -- \
    --spec specs/smoke.toml --out "$smoke_out/lab" >/dev/null
echo "lab smoke: gates pass"

# Chaos smoke: one seeded fault-schedule sweep with the invariant checker.
# "all seeds green: yes" is asserted by the experiment's own tests; here we
# just require the run to exit cleanly and stay green.
cargo run --release -p laminar-bench --bin laminar-experiments -- \
    --chaos-seed 1 --out "$smoke_out/chaos" chaos | grep "all seeds green: yes" >/dev/null
echo "chaos smoke: green"

# Recovery smoke: `--resume-from` must verify a descriptor the `recovery`
# experiment wrote and exit 0, and must refuse the same line with its
# fingerprint's last hex digit changed and exit 1. No test reaches the
# binary's exit code.
cargo run --release -p laminar-bench --bin laminar-experiments -- \
    --out "$smoke_out/recovery" recovery >/dev/null
descriptors="$smoke_out/recovery/recovery.txt"
cargo run --release -q -p laminar-bench --bin laminar-experiments -- \
    --resume-from "$descriptors" | grep -F "verified: yes" >/dev/null
line="$(grep -m1 '^checkpoint ' "$descriptors")"
case "${line: -1}" in
    0) digit=1 ;;
    *) digit=0 ;;
esac
echo "${line%?}$digit" >"$smoke_out/tampered.txt"
status=0
cargo run --release -q -p laminar-bench --bin laminar-experiments -- \
    --resume-from "$smoke_out/tampered.txt" >/dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "recovery smoke: a descriptor with a changed fingerprint exited $status, not 1" >&2
    exit 1
fi
echo "recovery smoke: verified, and a changed fingerprint is refused"
