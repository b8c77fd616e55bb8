#!/usr/bin/env python3
"""List every exported value of the library that no other file names.

For each `val x` in `lib/**/*.mli` (module M, from the file name, or a
nested `module N : sig ... end` inside it), search every `.ml` under
lib/, bin/, bench/, examples/, perfbench/ and test/ except M's own
implementation. A file names the value when it contains `M.x` (also
through a submodule path such as `Stallhide_isa.M.x` or `M.N.x`), or
when it opens or aliases M (`open M`, `let open M in`, `M.( ... )`,
`module A = ...M`) and contains `x` as a word. Opening a library
(`open Stallhide_isa`) does not open its modules' values, so it does
not count.

Usage: python3 tools/dead_exports.py   (from the repository root)
Prints one `path: M.x` line per dead export and exits 1 if it printed
any, 0 otherwise.
"""

import os
import re
import sys

SEARCH_DIRS = ["lib", "bin", "bench", "examples", "perfbench", "test"]
SKIP_DIRS = {"_build", "_build_perfbench", "out", "__pycache__"}

VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.M)
NESTED = re.compile(r"^\s*module\s+([A-Z]\w*)\s*:\s*sig\b", re.M)
MPATH = r"[A-Z]\w*(?:\.[A-Z]\w*)*"
QUALIFIED = re.compile(r"\b(%s)\.([a-z_][\w']*)" % MPATH)
OPENS = [
    re.compile(r"\bopen!?\s+(%s)" % MPATH),
    re.compile(r"\b(%s)\.[(\[{]" % MPATH),
    re.compile(r"\bmodule\s+[A-Z]\w*\s*=\s*(%s)" % MPATH),
]
WORD = re.compile(r"(?<![\w'])[a-z_][\w']*")


def strip_comments(text):
    # OCaml comments nest; peel innermost ones until none is left.
    prev = None
    while prev != text:
        prev = text
        text = re.sub(r"\(\*(?:(?!\(\*).)*?\*\)", " ", text, flags=re.S)
    return text


def exported_values(path):
    """(module path, value) pairs declared by one .mli."""
    module = os.path.basename(path)[:-4].capitalize()
    text = strip_comments(open(path).read())
    # A nested signature runs from `module N : sig` to its matching `end`.
    spans = []
    for m in NESTED.finditer(text):
        depth, stop = 1, len(text)
        for tok in re.finditer(r"\b(sig|struct|end)\b", text[m.end():]):
            depth += -1 if tok.group(1) == "end" else 1
            if depth == 0:
                stop = m.end() + tok.end()
                break
        spans.append((m.start(), stop, m.group(1)))
    return [
        ([module] + [n for (a, b, n) in spans if a <= m.start() < b], m.group(1))
        for m in VAL.finditer(text)
    ]


def index(text):
    """What one file names: (module, value) pairs, opened modules, words."""
    qualified = set()
    for path, value in QUALIFIED.findall(text):
        for mod in path.split("."):
            qualified.add((mod, value))
    opened = set()
    for pat in OPENS:
        for path in pat.findall(text):
            opened.update(path.split("."))
    return qualified, opened, set(WORD.findall(text))


def sources():
    for root_dir in SEARCH_DIRS:
        for root, dirs, files in os.walk(root_dir):
            dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
            for f in files:
                if f.endswith(".ml"):
                    p = os.path.join(root, f)
                    yield p, index(strip_comments(open(p).read()))


def names(idx, modules, value):
    qualified, opened, words = idx
    return any(
        (mod, value) in qualified or (mod in opened and value in words)
        for mod in modules
    )


def main():
    files = list(sources())
    dead = []
    for root, _, fs in sorted(os.walk("lib")):
        for f in sorted(fs):
            if not f.endswith(".mli"):
                continue
            mli = os.path.join(root, f)
            own = mli[:-1]
            for path, value in exported_values(mli):
                if not any(p != own and names(i, path, value) for p, i in files):
                    dead.append("%s: %s.%s" % (mli, ".".join(path), value))
    for line in dead:
        print(line)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
