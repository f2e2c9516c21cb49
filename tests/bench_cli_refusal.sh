#!/bin/sh
# Every malformed bench argument must be refused loudly: a non-zero
# exit with a "fatal:" message (not a crash), and no BENCH_*.json.
#
#   sh tests/bench_cli_refusal.sh build/bench/fig7_exec_time
set -u
bin=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failed=0
for arg in abc -1 0 nan inf 0.5x "" --bogus; do
    ULMT_BENCH_DIR=$dir "$bin" "$arg" >"$dir/stdout" 2>"$dir/stderr"
    status=$?
    if [ "$status" -eq 0 ] || ! grep -q '^fatal: ' "$dir/stderr"; then
        echo "'$arg': expected a fatal refusal, got status $status:"
        cat "$dir/stderr"
        failed=1
    fi
    if [ -n "$(find "$dir" -name 'BENCH_*.json')" ]; then
        echo "'$arg': a BENCH file was written"
        rm -f "$dir"/BENCH_*.json
        failed=1
    fi
done
exit $failed
