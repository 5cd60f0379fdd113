#!/bin/sh
# Stand-in for the `memgaze` binary in fan-out failure tests. The
# directory it is invoked from holds `real` (a link to the real binary)
# and `mode`. The first spawn to claim the directory reads its first
# range request and then misbehaves as `mode` says; every other spawn is
# the real worker.
dir=$(dirname "$0")
if mkdir "$dir/claimed" 2>/dev/null; then
    head -c 24 >/dev/null
    case $(cat "$dir/mode") in
    crash)
        printf 'garbage, not a partial report'
        exit 3
        ;;
    hang)
        # exec, so the coordinator's kill reaches the process holding the pipes.
        exec sleep 600
        ;;
    short-write)
        # Magic, a length of 4096, a fragment, and a clean exit.
        printf 'MGZW\000\020\000\000\000\000\000\000truncated'
        exit 0
        ;;
    stderr-flood)
        head -c 4194304 /dev/zero | tr '\000' e >&2
        exit 4
        ;;
    esac
fi
exec "$dir/real" "$@"
