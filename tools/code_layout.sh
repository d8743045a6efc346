#!/usr/bin/env bash
# Check that the hot functions start on a 64-byte line in a native
# executable.
#
#   tools/code_layout.sh BIN
#
# Every OCaml function is compiled into a section of its own
# (-function-sections, root dune and dune-workspace) and linked
# 64-byte aligned (caml_text.ld), so a change to one library cannot
# move another library's hot loop across a cache line.  Before that,
# nfib ran 30-44% slower at 48 mod 64, where its body spans three
# lines instead of two (EXPERIMENTS.md, "Where nfib lands").
#
# Prints each hot function's address mod 64, its size and how many
# 64-byte lines it spans.  Exits 1 when a hot function is missing from
# BIN (a rename must update the list below) or does not start at
# 0 mod 64.  Example, from the root of a checkout:
#
#   dune build ./perfbench/suite.exe
#   tools/code_layout.sh _build/default/perfbench/suite.exe

set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BIN" >&2
  exit 2
fi
[ -r "$1" ] || { echo "$0: cannot read $1" >&2; exit 2; }

# "Repro_lib.Module.function" as the symbol caml<unit>.<function>_<stamp>
hot=(Repro_exec.Workload.nfib Repro_workloads.Apsp.relax
  Repro_workloads.Euler.phi_fast Repro_workloads.Euler.sum_phi
  Repro_workloads.Matrix.mul_rows Repro_workloads.Mandelbrot.compute_row
  Repro_workloads.Mandelbrot.escape4 Repro_sim.Engine.dispatch
  Repro_sim.Engine.sift_down Repro_parrts.Rts.begin_charge
  Repro_parrts.Rts.charge_segment_done Repro_parrts.Rts.next_segment)

declare -A fn
while read -r addr size _ sym; do
  name=${sym#caml}
  name=${name%_*}
  name=${name/__/.}
  fn[$name]="$((16#$addr)) $((16#$size))"
done < <(nm -S "$1" | awk 'NF == 4 && $3 ~ /^[tT]$/ && $4 ~ /^camlRepro_/')

status=0
printf '%-40s %6s %5s %6s\n' function mod64 size lines
for name in "${hot[@]}"; do
  if [ -z "${fn[$name]:-}" ]; then
    printf '%-40s %s\n' "$name" missing
    status=1
    continue
  fi
  read -r addr size <<<"${fn[$name]}"
  lines=$(((addr + size - 1) / 64 - addr / 64 + 1))
  printf '%-40s %6d %5d %6d\n' "$name" $((addr % 64)) "$size" "$lines"
  if [ $((addr % 64)) -ne 0 ]; then status=1; fi
done
if [ $status -ne 0 ]; then
  echo "$0: a hot function is missing or not 64-byte aligned in $1" >&2
fi
exit $status
