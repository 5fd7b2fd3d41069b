#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, and the full test suite.
#
# Everything runs offline against the vendored workspace — no network, no
# extra components beyond rustfmt and clippy from the pinned toolchain.
# Workload tests are seeded deterministically, so a green run here is
# reproducible bit-for-bit.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc (warnings are errors: broken or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo test =="
cargo test --workspace --offline -q

echo "== benchmark package: build and test against its own lockfile =="
# perfbench/ is a separate package; --locked fails on a dependency-edge
# change its Cargo.lock does not record, and the build lands under target/.
CARGO_TARGET_DIR="$PWD/target/perfbench" \
    cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== pagebench smoke (page-latch protocol, release) =="
cargo run -p acc-bench --release --offline --bin figures -- pagebench --quick >/dev/null

echo "== crash torture smoke (every kit x every cut-point source, plus the network front-end) =="
cargo run -p acc-bench --release --offline --bin figures -- torture --quick

echo "== multi-thread stress smoke (8-terminal closed loop, release) =="
cargo run -p acc-bench --release --offline --bin figures -- stress --quick

echo "== determinism: two consecutive 'figures -- tables' runs byte-identical =="
t1="$(mktemp)"; t2="$(mktemp)"
trap 'rm -f "$t1" "$t2"' EXIT
cargo run -p acc-bench --release --offline --bin figures -- tables > "$t1"
cargo run -p acc-bench --release --offline --bin figures -- tables > "$t2"
cmp "$t1" "$t2"

echo "== simulator figures: 'figures -- all --quick' matches the committed golden =="
# When a figure change is intended, regenerate the golden with
#   cargo run -p acc-bench --release --offline --bin figures -- all --quick > scripts/figures_all_quick.golden
# and say in the change description which figures moved and why.
cargo run -p acc-bench --release --offline --bin figures -- all --quick > "$t1"
cmp "$t1" scripts/figures_all_quick.golden

echo "== deterministic examples: output matches the committed golden =="
# Regenerate for an intended output change with the same loop redirected to
# scripts/examples.golden. tpcc_demo stays out: it prints wall-clock tps.
for ex in quickstart order_processing stock_trading crash_recovery; do
    cargo run -q --release --offline --example "$ex"
done > "$t1"
cmp "$t1" scripts/examples.golden

echo "== determinism: seeded open-loop arrival schedule byte-identical =="
cargo run -p acc-bench --release --offline --bin figures -- saturate --schedule --quick > "$t1"
cargo run -p acc-bench --release --offline --bin figures -- saturate --schedule --quick > "$t2"
cmp "$t1" "$t2"

echo "== README vs figures --help drift =="
# Every `figures -- <subcommand>` the README advertises must exist in the
# binary's --help output, so docs can't drift from the dispatcher.
help_out="$(cargo run -p acc-bench --release --offline --bin figures -- --help)"
missing=0
for sub in $(grep -o 'figures -- [a-z0-9]*' README.md | awk '{print $3}' | sort -u); do
    if ! grep -qw "$sub" <<<"$help_out"; then
        echo "README mentions 'figures -- $sub' but --help does not list it" >&2
        missing=1
    fi
done
[ "$missing" -eq 0 ] || exit 1

echo "All checks passed."
