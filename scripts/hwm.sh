#!/usr/bin/env bash
# hwm.sh CMD [ARGS...] runs CMD and prints its peak resident set (VmHWM, in
# MB of 10^6 bytes) and its wall time to stderr as one line:
#
#   hwm: peak 61.4 MB, wall 1.93 s, exit 0: flowquery -in paths.fdb -save c.fcb
#
# It polls /proc/<pid>/status every 10 ms while CMD runs; VmHWM only grows,
# so the last reading before CMD exits is its peak, short of whatever CMD
# allocates in its last 10 ms. CMD's own output is passed through, and the
# script exits with CMD's status. Linux only; needs no /usr/bin/time.
set -uo pipefail
if [ $# -eq 0 ]; then
  echo "usage: $0 CMD [ARGS...]" >&2
  exit 2
fi

start=$(date +%s%N)
"$@" &
pid=$!
hwm_kb=0
while kill -0 "$pid" 2>/dev/null; do
  kb=$(awk '/^VmHWM:/ {print $2}' "/proc/$pid/status" 2>/dev/null)
  if [ -n "${kb:-}" ] && [ "$kb" -gt "$hwm_kb" ]; then
    hwm_kb=$kb
  fi
  sleep 0.01
done
wait "$pid"
status=$?
end=$(date +%s%N)
awk -v kb="$hwm_kb" -v ns="$((end - start))" -v st="$status" -v cmd="$*" 'BEGIN {
  printf "hwm: peak %.1f MB, wall %.2f s, exit %d: %s\n", kb * 1024 / 1e6, ns / 1e9, st, cmd
}' >&2
exit "$status"
