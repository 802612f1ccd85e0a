#!/usr/bin/env bash
# ThreadSanitizer gate for the parallel kernel.
#
# Runs tests/parallel_equivalence.rs under `-Zsanitizer=thread`, which
# needs a nightly toolchain with the rust-src component (the sanitizer
# runtime requires rebuilding std via -Zbuild-std). The sharded kernel's
# correctness argument is "no data races by construction" (worlds only
# touch shared state at barrier-fenced epoch edges); tsan checks that
# claim against the real thread interleavings instead of trusting it.
#
# Toolchains are environment, not code: when no nightly (or rustup, or
# rust-src) is available the gate SKIPS — loudly, with the reason — and
# exits 77 (the automake "skipped" code), so scripts/ci.sh can report
# the stage as skipped rather than passed. Exit 0 means TSan ran clean;
# any other nonzero status is a real failure.
set -euo pipefail
cd "$(dirname "$0")/.."

skip() {
    echo "sanitize: SKIP — $1"
    echo "sanitize: install with: rustup toolchain install nightly && rustup component add rust-src --toolchain nightly"
    exit 77
}

command -v rustup >/dev/null 2>&1 || skip "rustup not found"
rustup toolchain list 2>/dev/null | grep -q '^nightly' || skip "no nightly toolchain installed"
rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src.*(installed)' \
    || skip "nightly lacks the rust-src component (needed for -Zbuild-std)"

host=$(rustc -vV | sed -n 's/^host: //p')
[ -n "$host" ] || skip "cannot determine host target triple"

echo "sanitize: ThreadSanitizer on tests/parallel_equivalence ($host)"
# TSAN_OPTIONS: fail hard on any report; suppress nothing.
RUSTFLAGS="-Zsanitizer=thread" \
TSAN_OPTIONS="halt_on_error=1" \
    cargo +nightly test -Zbuild-std --target "$host" \
    --test parallel_equivalence -- --test-threads=1

echo "sanitize: clean"
