#!/usr/bin/env bash
# List the values and modules exported from lib/**/*.mli that no other
# file names.
#
#   tools/unused_exports.sh
#
# For each `val NAME`, `module NAME` and `module type NAME` in a
# library interface, searches every other tracked .ml/.mli (its own
# implementation excepted) for NAME as a word: lib/ and bin/, but also
# test/, bench/, perfbench/ and examples/, so a name that only tests or
# the benchmark use counts as used.  Prints "INTERFACE NAME" per hit
# and exits 1 if there is any; an unused export should be unexported,
# or deleted if nothing in its own module uses it either.  The search
# is by name only, so it can miss an unused export whose name is
# common, never the reverse.  A module whose name another module or a
# constructor also has (a `Sock` module beside a `Sock` constructor,
# a `Transport` module beside `Repro_mp.Transport`) is missed.

set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

mapfile -t sources < <(git ls-files '*.ml' '*.mli')
status=0
while read -r mli; do
  others=()
  for f in "${sources[@]}"; do
    [ "$f" = "$mli" ] || [ "$f" = "${mli%i}" ] || others+=("$f")
  done
  while read -r name; do
    if ! grep -qw -e "$name" "${others[@]}"; then
      echo "$mli $name"
      status=1
    fi
  done < <(sed -nE -e "s/^ *val +([a-z_][A-Za-z0-9_']*).*/\1/p" \
    -e "s/^ *module +(type +)?([A-Z][A-Za-z0-9_']*).*/\2/p" "$mli" | sort -u)
done < <(git ls-files 'lib/*.mli')
exit $status
