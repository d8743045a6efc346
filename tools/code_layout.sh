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
# polled").
#
# A second table follows for a fixed set of hot functions: each one's
# address mod 64, its size, how many 64-byte lines it spans and its
# shift against PARENT_BIN.  A "!" marks a function that spans more
# lines than in PARENT_BIN: nfib runs about 30% slower at 48 mod 64,
# where its body spans three lines instead of two (EXPERIMENTS.md,
# "Where nfib lands").  Example, from the root of a checkout:
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

# "Repro_lib.Module.function" as the symbol caml<unit>.<function>_<stamp>
hot=(Repro_dist.Workload.nfib Repro_exec.Workload.nfib
  Repro_workloads.Euler.phi_fast Repro_workloads.Matrix.mul_row
  Repro_workloads.Mandelbrot.compute_row Repro_exec.Workload.pivot_step
  Repro_dist.Workload.update_block)

# "Repro_lib.Module.function address size" for each hot function in BIN
functions() {
  nm -S "$1" | grep ' [tT] camlRepro_' | while read -r addr size _ sym; do
    name=${sym#caml}
    name=${name%_*}
    name=${name/__/.}
    for f in "${hot[@]}"; do
      if [ "$name" = "$f" ]; then echo "$f $((16#$addr)) $((16#$size))"; fi
    done
  done
}

lines() { echo $((($1 + $2 - 1) / 64 - $1 / 64 + 1)); }

declare -A parent_fn
if [ $# -eq 2 ]; then
  while read -r name addr size; do
    parent_fn[$name]="$addr $size"
  done < <(functions "$2")
fi

declare -A fn
while read -r name addr size; do
  fn[$name]="$addr $size"
done < <(functions "$1")

echo
if [ $# -eq 2 ]; then
  printf '%-40s %6s %5s %6s %8s %10s\n' function mod64 size lines shift shift_mod64
else
  printf '%-40s %6s %5s %6s\n' function mod64 size lines
fi
for name in "${hot[@]}"; do
  [ -n "${fn[$name]:-}" ] || continue
  read -r addr size <<<"${fn[$name]}"
  n=$(lines "$addr" "$size")
  if [ $# -eq 1 ]; then
    printf '%-40s %6d %5d %6d\n' "$name" $((addr % 64)) "$size" "$n"
  elif [ -n "${parent_fn[$name]:-}" ]; then
    read -r paddr psize <<<"${parent_fn[$name]}"
    mark=""
    if [ "$n" -gt "$(lines "$paddr" "$psize")" ]; then mark="!"; fi
    shift_b=$((addr - paddr))
    printf '%-40s %6d %5d %6s %+8d %10d\n' "$name" $((addr % 64)) "$size" \
      "$n$mark" "$shift_b" $(((shift_b % 64 + 64) % 64))
  else
    printf '%-40s %6d %5d %6d %8s %10s\n' "$name" $((addr % 64)) "$size" "$n" \
      new -
  fi
done
