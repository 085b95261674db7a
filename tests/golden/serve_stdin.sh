#!/bin/sh
# Replays the serve golden request stream through `ftbfs serve` on stdin.
#
#   serve_stdin.sh FTBFS exact [serve flags...]  stdout equals the golden bytes
#   serve_stdin.sh FTBFS count [serve flags...]  stdout has the golden's line
#                                                count (relaxed mode: order
#                                                and cache_hit are not fixed)
set -eu
bin=$1
check=$2
shift 2
dir=$(dirname "$0")
out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$bin" serve --graph "$dir/serve_graph.txt" "$@" \
  < "$dir/serve_requests.jsonl" > "$out"
case $check in
  exact) diff -u "$dir/serve_responses.jsonl" "$out" ;;
  count) test "$(wc -l < "$out")" = "$(wc -l < "$dir/serve_responses.jsonl")" ;;
  *) echo "serve_stdin.sh: unknown check '$check'" >&2; exit 2 ;;
esac
