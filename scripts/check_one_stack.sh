#!/usr/bin/env bash
# Checks that the workspace keeps one HTTP stack and one JSON parser:
# `TcpListener` may appear only in the module that hosts the HTTP server
# (crates/serve/src/http.rs), and a JSON value enum only in the one JSON
# reader (crates/obs/src/jsonl.rs). A second copy of either is a second
# place to harden and to fix.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
while IFS= read -r hit; do
  echo "second HTTP server: TcpListener outside crates/serve/src/http.rs: $hit" >&2
  fail=1
done < <(grep -rn --include='*.rs' 'TcpListener' crates/*/src | grep -v '^crates/serve/src/http\.rs:' || true)

while IFS= read -r hit; do
  echo "second JSON parser: JSON value enum outside crates/obs/src/jsonl.rs: $hit" >&2
  fail=1
done < <(grep -rnEi --include='*.rs' '\benum[[:space:]]+[a-z0-9_]*json' crates/*/src | grep -v '^crates/obs/src/jsonl\.rs:' || true)

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "one HTTP stack, one JSON parser"
