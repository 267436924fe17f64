#!/bin/sh
# Counting C compiler wrapper used by the traced benchmark run (SLINGEN_CC
# points here). Forwards every argument to `cc` and appends one line per
# invocation to $PERFBENCH_CC_LOG:
#
#   <start_ns> <end_ns> <translation-unit bytes> <exit status>
#
# The translation-unit size is that of the `.c` argument (0 for probes such
# as `--version`).
start=$(date +%s%N)
bytes=0
for arg in "$@"; do
  case "$arg" in
  *.c) bytes=$(wc -c < "$arg") ;;
  esac
done
cc "$@"
status=$?
end=$(date +%s%N)
if [ -n "$PERFBENCH_CC_LOG" ]; then
  echo "$start $end $bytes $status" >> "$PERFBENCH_CC_LOG"
fi
exit $status
