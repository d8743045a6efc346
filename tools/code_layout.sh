#!/usr/bin/env bash
# Where the repository's modules land in a native executable.
#
#   tools/code_layout.sh BIN [PARENT_BIN]
#
# Prints one line per Repro_* compilation unit, in link order: the
# address of its code_begin symbol mod 64 (one cache line) and, when
# PARENT_BIN is given, how far the unit moved against the same unit in
# PARENT_BIN, in bytes and mod 64.  Units a change did not touch still
# move when a unit linked before them changes size, and a hot loop that
# moves by a non-multiple of 64 bytes can run at a different speed with
# no change to its code (EXPERIMENTS.md, "The socketpair coordinator
# polled").  Example, from the root of a checkout:
#
#   dune build ./perfbench/suite.exe
#   tools/code_layout.sh _build/default/perfbench/suite.exe base/suite.exe

set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BIN [PARENT_BIN]" >&2
  exit 2
fi
for f in "$@"; do
  [ -r "$f" ] || { echo "$0: cannot read $f" >&2; exit 2; }
done

# "Repro_lib.Module address" per unit, in address order
units() {
  nm -n "$1" | while read -r addr _ sym; do
    case $sym in
      camlRepro_*__*.code_begin)
        name=${sym#caml}
        name=${name%.code_begin}
        echo "${name/__/.} $((16#$addr))"
        ;;
    esac
  done
}

declare -A parent
if [ $# -eq 2 ]; then
  while read -r name addr; do
    parent[$name]=$addr
  done < <(units "$2")
  printf '%-30s %6s %8s %10s\n' module mod64 shift shift_mod64
else
  printf '%-30s %6s\n' module mod64
fi

units "$1" | while read -r name addr; do
  if [ $# -eq 1 ]; then
    printf '%-30s %6d\n' "$name" $((addr % 64))
  elif [ -n "${parent[$name]:-}" ]; then
    shift_b=$((addr - parent[$name]))
    printf '%-30s %6d %+8d %10d\n' "$name" $((addr % 64)) "$shift_b" \
      $(((shift_b % 64 + 64) % 64))
  else
    printf '%-30s %6d %8s %10s\n' "$name" $((addr % 64)) new -
  fi
done
