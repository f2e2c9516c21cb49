#!/bin/sh
# Every malformed tool or example argument must be refused loudly: a
# non-zero exit below 128 (an error, not a crash) with a message on
# stderr, and ulmt-ckpt must write no snapshot.
#
#   sh tests/tool_cli_refusal.sh build/tools build/examples
set -u
tools=$1
examples=$2
ckpt=$tools/ulmt-ckpt
stats=$tools/ulmt-stats
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

# expect_usage_error LABEL CMD...: run CMD, require exit status 2 and
# a message on stderr that lists the valid names (it names Repl).
expect_usage_error() {
    label=$1
    shift
    "$@" >"$dir/stdout" 2>"$dir/stderr"
    status=$?
    if [ "$status" -ne 2 ] || ! grep -q "Repl" "$dir/stderr"; then
        echo "$label: expected a usage error listing valid names," \
            "got status $status:"
        cat "$dir/stderr"
        failed=1
    fi
}

expect_usage_error "ulmt-ckpt create --algo=bogus" \
    "$ckpt" create MST "$dir/out.ulmtckp" --scale=0.003 --at=50 --algo=bogus
if [ -e "$dir/out.ulmtckp" ]; then
    echo "ulmt-ckpt create --algo=bogus: a snapshot was written"
    rm -f "$dir/out.ulmtckp"
    failed=1
fi
expect_usage_error "ulmt-stats dump --config=bogus" \
    "$stats" dump Tree --scale=0.003 --config=bogus
expect_usage_error "ulmt-stats dump --config=conven4+bogus" \
    "$stats" dump Tree --scale=0.003 --config=conven4+bogus

# Counts, seeds and scales parse as whole strings: no sign, no
# trailing garbage, no overflow to inf.
for args in "--seeds=-1" "--scale 1e400" "--scale 0.002abc" "--seeds 2x" \
    "--seed0 zz" "--interval=abc"; do
    # $args is unquoted on purpose: one word per token.
    expect_refusal "ulmt-fuzz $args" "$tools/ulmt-fuzz" $args
done
for arg in --scale=abc --seed=zz; do
    expect_refusal "ulmt-trace record $arg" \
        "$tools/ulmt-trace" record Tree "$dir/t.trc" --scale=0.001 "$arg"
done
"$tools/ulmt-trace" record Tree "$dir/ok.trc" --scale=0.001 >/dev/null
for arg in --limit=abc --limit=-3; do
    expect_refusal "ulmt-trace dump $arg" \
        "$tools/ulmt-trace" dump "$dir/ok.trc" "$arg"
done

: >"$dir/empty.txt"
for arg in --ops=abc --ops=-5 --ops=4294967296 --ops=; do
    expect_refusal "ulmt-trace convert $arg" \
        "$tools/ulmt-trace" convert "$dir/empty.txt" "$dir/c.trc" "$arg"
done

expect_refusal "quickstart Mcf -1" "$examples/quickstart" Mcf -1
expect_refusal "quickstart Mcf abc" "$examples/quickstart" Mcf abc
expect_refusal "inspect Mcf Repl abc" "$examples/inspect" Mcf Repl abc
expect_refusal "custom_prefetcher abc" "$examples/custom_prefetcher" abc
expect_refusal "profile_app Sparse abc" "$examples/profile_app" Sparse abc
expect_refusal "page_remap abc" "$examples/page_remap" abc
exit $failed
