#!/usr/bin/env sh
# nord-campaign must refuse bad numeric flags with exit 11
# (kExitBadConfig) before it creates any directory: a value that
# silently parsed as 0 would hang-kill or quarantine a whole grid.
#
# Usage: tests/campaign_bad_flags.sh NORD_CAMPAIGN SCRATCH_DIR
set -u
CAMPAIGN="$1"
OUT="$2/campaign_bad_flags"
rm -rf "$OUT"

expect_11() {
    "$CAMPAIGN" --out "$OUT" "$@" >/dev/null 2>&1
    rc=$?
    if [ "$rc" -ne 11 ]; then
        echo "FAIL: nord-campaign $*: exit $rc, want 11" >&2
        exit 1
    fi
    if [ -e "$OUT" ]; then
        echo "FAIL: nord-campaign $* created $OUT" >&2
        exit 1
    fi
}

expect_11 --hang-timeout x      # malformed
expect_11 --checkpoint-every 5x # trailing garbage
expect_11 --seeds 1,-2          # signed value in an unsigned list
expect_11 --workers 0           # out of range
expect_11 --lease-grace -1      # out of range
echo "PASS: bad numeric flags exit 11 before touching the filesystem"
