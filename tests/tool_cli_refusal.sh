#!/bin/sh
# Every malformed tool argument must be refused loudly: a non-zero exit
# below 128 (an error, not a crash) with a message on stderr, and
# ulmt-ckpt must write no snapshot.
#
#   sh tests/tool_cli_refusal.sh build/tools/ulmt-ckpt build/tools/ulmt-stats
set -u
ckpt=$1
stats=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failed=0

# expect_refusal LABEL CMD...: run CMD, require 0 < status < 128 and a
# non-empty stderr.
expect_refusal() {
    label=$1
    shift
    "$@" >"$dir/stdout" 2>"$dir/stderr"
    status=$?
    if [ "$status" -eq 0 ] || [ "$status" -ge 128 ] ||
        [ ! -s "$dir/stderr" ]; then
        echo "$label: expected a refusal, got status $status:"
        cat "$dir/stderr"
        failed=1
    fi
}

for arg in --cores=0 --cores=abc --vm=garbage --remap-rate=-5 \
    --remap-rate=abc --scale=abc --seed=xyz; do
    expect_refusal "ulmt-ckpt create $arg" \
        "$ckpt" create MST "$dir/out.ulmtckp" --scale=0.003 --at=50 "$arg"
    if [ -e "$dir/out.ulmtckp" ]; then
        echo "ulmt-ckpt create $arg: a snapshot was written"
        rm -f "$dir/out.ulmtckp"
        failed=1
    fi
done

expect_refusal "ulmt-stats dump --scale=abc" \
    "$stats" dump Tree --scale=abc
exit $failed
