#!/usr/bin/env bash
# The repository's benchmark: builds benchmark/ in release and runs `ladder`.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of standard output is the result object
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--smoke] [--out DIR]
#       every workload, each in a process of its own; writes DIR/results.json
#
# Exits non-zero when the build fails or any correctness check does.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# benchmark/ is a workspace of its own and inherits no [profile.*] table from
# the root manifest. Refuse to measure with settings the root does not have:
# every profile table of one manifest must appear, line for line, in the other.
profiles() {
    awk '/^\[/ { keep = ($0 ~ /^\[profile[.\]]/) } keep && NF { gsub(/[ \t]/, ""); print }' "$1" | sort
}
if [ -f Cargo.toml ] && [ "$(profiles Cargo.toml)" != "$(profiles benchmark/Cargo.toml)" ]; then
    echo "run.sh: [profile.*] tables of Cargo.toml and benchmark/Cargo.toml differ;" >&2
    echo "        mirror the root's profile tables in benchmark/Cargo.toml" >&2
    exit 3
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

LADDER_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
LADDER_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export LADDER_RUSTC LADDER_COMMIT
exec "$CARGO_TARGET_DIR/release/ladder" "$@"
