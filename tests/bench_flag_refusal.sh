#!/bin/sh
# A bench refuses the flags for settings it fixes or sweeps itself (a
# non-zero exit with a "fatal:" message and no BENCH_*.json), and a
# bench that takes --apps runs exactly the listed applications.  A
# --restore-from snapshot of another machine shape exits 1 with a
# "fatal: --restore-from:" line, serially and in parallel.
#
#   sh tests/bench_flag_refusal.sh build/bench   (uses build/tools too)
set -u
bench=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failed=0

while read -r name arg; do
    ULMT_BENCH_DIR=$dir "$bench/$name" 0.003 "$arg" \
        >"$dir/stdout" 2>"$dir/stderr"
    status=$?
    if [ "$status" -eq 0 ] || ! grep -q '^fatal: ' "$dir/stderr"; then
        echo "$name $arg: expected a fatal refusal, got status $status:"
        cat "$dir/stderr"
        failed=1
    fi
    if [ -n "$(find "$dir" -name 'BENCH_*.json')" ]; then
        echo "$name $arg: a BENCH file was written"
        rm -f "$dir"/BENCH_*.json
        failed=1
    fi
done <<'CASES'
multicore --cores=2
multicore --ulmt-mode=percore
table_cache --table-cache=0
table_cache --table-cache=256,4
vm_churn --vm=off
vm_churn --page-size=4k
vm_churn --page-size=2m
vm_churn --remap-rate=0
vm_churn --audit=off
ablation_filter --apps=MST
ablation_multiprog --cores=2
ablation_multiprog --ulmt-mode=percore
ablation_multiprog --apps=MST
table1_characteristics --audit=off
table1_characteristics --cores=2
table1_characteristics --vm=on
table1_characteristics --table-cache=256,4
table1_characteristics --metrics-interval=0
table1_characteristics --apps=MST
CASES

# --apps replaces the nine-application default of fig7_exec_time.
if ! ULMT_BENCH_DIR=$dir "$bench/fig7_exec_time" 0.003 --apps=Tree \
    >"$dir/stdout" 2>"$dir/stderr"; then
    echo "fig7_exec_time --apps=Tree failed:"
    cat "$dir/stderr"
    failed=1
fi
apps=$(grep -o '"workload": "[^"]*"' "$dir/BENCH_fig7_exec_time.json" |
    sort -u)
if [ "$apps" != '"workload": "Tree"' ]; then
    echo "fig7_exec_time --apps=Tree ran: $apps"
    failed=1
fi
# A table-cache snapshot does not restore into fig7's cache-less
# machines: a clean refusal, never an abort.
rm -f "$dir"/BENCH_*.json
if ! "$bench/../tools/ulmt-ckpt" create MST "$dir/tc.ulmtckp" --algo=Repl \
    --at=100 --scale=0.01 --table-cache=256,4 >"$dir/stdout" 2>&1; then
    echo "ulmt-ckpt create failed:"
    cat "$dir/stdout"
    failed=1
fi
for jobs in 1 4; do
    ULMT_BENCH_DIR=$dir "$bench/fig7_exec_time" 0.01 --apps=MST \
        --restore-from="$dir/tc.ulmtckp" --jobs=$jobs \
        >"$dir/stdout" 2>"$dir/stderr"
    status=$?
    if [ "$status" -ne 1 ] ||
        ! grep -q '^fatal: --restore-from: ' "$dir/stderr"; then
        echo "fig7 --restore-from mismatch --jobs=$jobs: status $status:"
        cat "$dir/stderr"
        failed=1
    fi
    if [ -n "$(find "$dir" -name 'BENCH_*.json')" ]; then
        echo "fig7 --restore-from mismatch --jobs=$jobs wrote a BENCH file"
        rm -f "$dir"/BENCH_*.json
        failed=1
    fi
done
exit $failed
