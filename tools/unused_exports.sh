#!/usr/bin/env bash
# List the values and modules exported from lib/**/*.mli that no other
# file uses.
#
#   tools/unused_exports.sh
#
# For each `val NAME`, `module NAME` and `module type NAME` in a
# library interface, searches every other tracked .ml/.mli (its own
# implementation excepted) for NAME as a word: lib/ and bin/, but also
# test/, bench/, perfbench/ and examples/, so a name that only tests or
# the benchmark use counts as used.  Only a file that also names the
# interface's module (qualified, aliased or opened, all of which spell
# the module's name) can use it, so a common name such as `seq` or
# `print` is not taken as used because some unrelated module has one.
# Prints "INTERFACE NAME" per hit and exits 1 if there is any; an
# unused export should be unexported, or deleted if nothing in its own
# module uses it either.  The search is by name, so it can miss an
# unused export whose name a file naming its module also uses for
# something else, never the reverse.

set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

mapfile -t sources < <(git ls-files '*.ml' '*.mli')
status=0
while read -r mli; do
  base=$(basename "$mli" .mli)
  module="${base^}"
  others=()
  for f in "${sources[@]}"; do
    [ "$f" = "$mli" ] || [ "$f" = "${mli%i}" ] || others+=("$f")
  done
  mapfile -t users < <(grep -lw -e "$module" "${others[@]}" || true)
  while read -r name; do
    if [ ${#users[@]} -eq 0 ] || ! grep -qw -e "$name" "${users[@]}"; then
      echo "$mli $name"
      status=1
    fi
  done < <(sed -nE -e "s/^ *val +([a-z_][A-Za-z0-9_']*).*/\1/p" \
    -e "s/^ *module +(type +)?([A-Z][A-Za-z0-9_']*).*/\2/p" "$mli" | sort -u)
done < <(git ls-files 'lib/*.mli')
exit $status
