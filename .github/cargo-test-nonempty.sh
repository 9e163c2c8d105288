#!/usr/bin/env bash
# Runs `cargo test` with the given arguments and fails when the run
# executed no test at all. CI steps that select tests by a name
# substring would otherwise pass silently once a rename leaves the
# filter matching nothing.
#
#   bash .github/cargo-test-nonempty.sh --release -q -p aurora-core mirror
set -euo pipefail
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
ran="$(sed -n 's/^test result: [a-zA-Z]*\. \([0-9][0-9]*\) passed.*/\1/p' "$log" |
  awk '{ n += $1 } END { print n + 0 }')"
if [ "$ran" -eq 0 ]; then
  echo "error: 'cargo test $*' ran no test; was a filtered test renamed?" >&2
  exit 1
fi
echo "'cargo test $*' ran $ran test(s)"
