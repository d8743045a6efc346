#!/usr/bin/env bash
# List the values and modules exported from lib/**/*.mli that no other
# file uses.
#
#   tools/unused_exports.sh
#
# For each `val NAME`, `module NAME` and `module type NAME` in a
# library interface, searches every other tracked .ml/.mli (its own
# implementation excepted): lib/ and bin/, but also test/, perfbench/
# and examples/, so a name that only tests or the benchmark use counts
# as used.  Comments and string literals are skipped.  A
# use counts only when
#   - the name is qualified by its module, or by an alias of it
#     (`Rng.bool`, or `R.bool` after `module R = Repro_util.Rng`), or
#   - the name stands unqualified in a file that opens or includes the
#     module (`open`, `let open`, `M.( ... )`, `include`).
# A value declared inside `module N : sig ... end` is qualified by N.
# Members of a `module type` are exempt (they are reached through
# whatever module has that type), and so is a module or module type
# the interface itself names again.  Prints "INTERFACE NAME" per hit
# and exits 1 if there is any; an unused export should be unexported,
# or deleted if nothing in its own module uses it either.  The search
# is by name, so it can miss an unused export that a file opening its
# module uses as a name of its own, never the reverse.

set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

exec python3 - <<'EOF'
import re, subprocess, sys

def tracked(*globs):
    out = subprocess.run(["git", "ls-files", *globs], check=True,
                         capture_output=True, text=True).stdout
    return out.split()

# Blank out comments (they nest, and lex their strings) and the
# contents of string and character literals.
CHAR = re.compile(r"'(?:\\(?:[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}|.)|[^\\'\n])'")
QUOTED = re.compile(r"\{([a-z_]*)\|")

def strip(text):
    out, i, depth, n = [], 0, 0, len(text)
    while i < n:
        if text.startswith("(*", i):
            depth += 1; i += 2; continue
        if depth and text.startswith("*)", i):
            depth -= 1; i += 2; out.append(" "); continue
        c = text[i]
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            if not depth:
                out.append('""')
            i = j + 1; continue
        q = QUOTED.match(text, i)
        if q:
            end = text.find("|" + q.group(1) + "}", q.end())
            end = n if end < 0 else end + len(q.group(1)) + 2
            if not depth:
                out.append('""')
            i = end; continue
        if c == "'" and not (i and (text[i - 1].isalnum() or text[i - 1] == "_")):
            m = CHAR.match(text, i)
            if m:
                if not depth:
                    out.append("' '")
                i = m.end(); continue
        if not depth:
            out.append(c)
        i += 1
    return "".join(out)

TOKEN = re.compile(r"\b(module\s+type\s+[A-Z]\w*|module\s+[A-Z]\w*|val\s+[a-z_][\w']*"
                   r"|sig|end|object|type|include|external|exception)\b")

# (name, qualifier or None for a module's own member, exempt?) for
# every export of one stripped interface.
def exports(module, text):
    found, stack, pending = [], [], None
    for m in TOKEN.finditer(text):
        tok = m.group(1).split()
        in_mt = any(kind == "mt" for kind, _ in stack)
        qual = next((name for kind, name in reversed(stack) if kind == "m"), module)
        if tok[0] == "sig":
            stack.append(pending or ("anon", None)); pending = None
        elif tok[0] in ("object",):
            stack.append(("anon", None)); pending = None
        elif tok[0] == "end":
            if stack:
                stack.pop()
            pending = None
        elif tok[0] == "module":
            name = tok[-1]
            kind = "mt" if tok[1] == "type" else "m"
            pending = (kind, name)
            if not in_mt:
                itself = len(re.findall(r"\b%s\b" % name, text)) > 1
                found.append((name, qual, itself))
        elif tok[0] == "val":
            pending = None
            if not in_mt:
                found.append((tok[1], qual, False))
        else:
            pending = None
    return found

PATH = r"(?:[A-Z]\w*\s*\.\s*)*"

def used(name, qual, sources):
    for text in sources:
        if not re.search(r"\b%s\b" % re.escape(name), text):
            continue
        quals = {qual} | set(re.findall(
            r"\bmodule\s+([A-Z]\w*)\s*=\s*%s%s\b(?!\s*[.(])" % (PATH, qual), text))
        q = "|".join(map(re.escape, sorted(quals)))
        if re.search(r"\b(?:%s)\s*\.\s*%s\b" % (q, re.escape(name)), text):
            return True
        opens = (r"\b(?:open!?|include)\s+%s(?:%s)\b(?!\s*[.(])" % (PATH, q)
                 + r"|\b(?:%s)\s*\.\s*\(" % q)
        if re.search(opens, text) and re.search(
                r"(?<![\w.~?`#'])%s\b" % re.escape(name), text):
            return True
    return False

sources = {f: strip(open(f).read()) for f in tracked("*.ml", "*.mli")}
status = 0
for mli in tracked("lib/*.mli"):
    base = mli.rsplit("/", 1)[-1][:-4]
    module = base[0].upper() + base[1:]
    others = [t for f, t in sources.items() if f not in (mli, mli[:-1])]
    seen = set()
    for name, qual, itself in exports(module, sources[mli]):
        if (name, qual) in seen or itself:
            continue
        seen.add((name, qual))
        if not used(name, qual, others):
            print(mli, name if qual == module else qual + "." + name)
            status = 1
sys.exit(status)
EOF
