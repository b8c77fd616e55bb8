#!/usr/bin/env python3
"""List every exported value of the library that no other file names,
every test-only export whose marker is missing or wrong, and every
library dependency a `lib/*/dune` lists but no source of its directory
names.

For each `val x` in `lib/**/*.mli` (module M, from the file name, or a
nested `module N : sig ... end` inside it), search every `.ml` under
lib/, bin/, bench/, examples/, perfbench/ and test/ except M's own
implementation. A file names the value when it contains `M.x` (also
through a submodule path such as `Stallhide_isa.M.x` or `M.N.x`), or
when it opens or aliases M (`open M`, `let open M in`, `M.( ... )`,
`module A = ...M`) and contains `x` as a word. Opening a library
(`open Stallhide_isa`) does not open its modules' values, so it does
not count.

A file under test/ counts for its own suite (`test_x.ml`), or, when it
is a helper module every suite links (like `golden.ml`), for each
suite that names the helper.

Four rules, one line each per export or dependency that breaks one:
- dead: no other file names the value;
- unmarked: only files under test/ name it, and its doc comment lacks
  an `Exported for [test_a], [test_b] only.` line naming exactly those
  suites;
- marked but used: its doc comment carries that line, yet a file
  outside test/ names it as `M.x`. Only qualified names count here:
  the open/alias heuristic over-counts;
- unused dependency: a `stallhide_x` entry in the `libraries` of a
  `lib/*/dune` whose module (`Stallhide_x`, or `Stallhide` for
  `stallhide`) no `.ml` or `.mli` of that directory names, comments
  masked.

Usage: python3 tools/dead_exports.py   (from the repository root)
Prints one `path: ...` line per broken rule and exits 1 if it printed
any, 0 otherwise.
"""

import os
import re
import sys

SEARCH_DIRS = ["lib", "bin", "bench", "examples", "perfbench", "test"]
SKIP_DIRS = {"_build", "_build_perfbench", "out", "__pycache__"}

VAL = re.compile(r"^[ \t]*val\s+([a-z_][A-Za-z0-9_']*)", re.M)
NESTED = re.compile(r"^\s*module\s+([A-Z]\w*)\s*:\s*sig\b", re.M)
MPATH = r"[A-Z]\w*(?:\.[A-Z]\w*)*"
QUALIFIED = re.compile(r"\b(%s)\.([a-z_][\w']*)" % MPATH)
OPENS = [
    re.compile(r"\bopen!?\s+(%s)" % MPATH),
    re.compile(r"\b(%s)\.[(\[{]" % MPATH),
    re.compile(r"\bmodule\s+[A-Z]\w*\s*=\s*(%s)" % MPATH),
]
WORD = re.compile(r"(?<![\w'])[a-z_][\w']*")
MARKER = re.compile(r"Exported for ((?:\[test_\w+\](?:,\s*)?)+) only\b")


def mask_comments(text):
    """Blank out (nested) OCaml comments, keeping every offset and
    newline, so positions in the result are positions in [text]."""
    out = list(text)
    depth, i = 0, 0
    while i < len(text):
        if text.startswith("(*", i):
            depth += 1
            out[i] = out[i + 1] = " "
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            out[i] = out[i + 1] = " "
            i += 2
        else:
            if depth and text[i] != "\n":
                out[i] = " "
            i += 1
    return "".join(out)


def doc_before(text, pos):
    """The comment that ends right before [pos] (whitespace apart), or ''."""
    end = len(text[:pos].rstrip())
    if not text.startswith("*)", end - 2):
        return ""
    depth, i = 0, end - 2
    while i >= 0:
        if text.startswith("*)", i):
            depth += 1
        elif text.startswith("(*", i):
            depth -= 1
            if depth == 0:
                return text[i:end]
        i -= 1
    return ""


def exported_values(path):
    """(module path, value, suites its marker names or None) triples
    declared by one .mli."""
    module = os.path.basename(path)[:-4].capitalize()
    raw = open(path).read()
    text = mask_comments(raw)
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
    values = []
    for m in VAL.finditer(text):
        marker = MARKER.search(re.sub(r"\s+", " ", doc_before(raw, m.start())))
        suites = set(re.findall(r"\[(test_\w+)\]", marker.group(1))) if marker else None
        path_ = [module] + [n for (a, b, n) in spans if a <= m.start() < b]
        values.append((path_, m.group(1), suites))
    return values


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
                    yield p, index(mask_comments(open(p).read()))


def names(idx, modules, value):
    qualified, opened, words = idx
    return any(
        (mod, value) in qualified or (mod in opened and value in words)
        for mod in modules
    )


def is_test(path):
    return path.split(os.sep)[0] == "test"


def suites(path, files):
    """The suites a file under test/ counts for: its own, or, for a
    helper module, every suite that names it."""
    name = os.path.basename(path)[:-3]
    if name.startswith("test_"):
        return {name}
    module = name.capitalize()
    return {
        os.path.basename(p)[:-3]
        for p, (qualified, opened, _) in files
        if is_test(p)
        and os.path.basename(p).startswith("test_")
        and (module in opened or any(mod == module for mod, _ in qualified))
    }


LIBRARIES = re.compile(r"\(libraries\b([^()]*)\)")


def unused_dependencies():
    """`path: lib` lines for each stallhide library a `lib/*/dune` lists
    that no source of its directory names."""
    broken = []
    for d in sorted(os.listdir("lib")):
        dune = os.path.join("lib", d, "dune")
        if not os.path.isfile(dune):
            continue
        text = "".join(
            mask_comments(open(os.path.join("lib", d, f)).read())
            for f in sorted(os.listdir(os.path.join("lib", d)))
            if f.endswith((".ml", ".mli"))
        )
        for m in LIBRARIES.finditer(open(dune).read()):
            for lib in m.group(1).split():
                if re.fullmatch(r"stallhide(_\w+)?", lib):
                    module = lib.capitalize()
                    if not re.search(r"\b%s\b" % module, text):
                        broken.append("%s: %s (no source names %s)" % (dune, lib, module))
    return broken


def listing(names):
    return ", ".join("[%s]" % s for s in sorted(names))


def main():
    files = list(sources())
    broken = []
    for root, _, fs in sorted(os.walk("lib")):
        for f in sorted(fs):
            if not f.endswith(".mli"):
                continue
            mli = os.path.join(root, f)
            own = mli[:-1]
            for path, value, marked in exported_values(mli):
                name = "%s: %s.%s" % (mli, ".".join(path), value)
                users = [p for p, i in files if p != own and names(i, path, value)]
                if not users:
                    broken.append(name)
                elif all(is_test(p) for p in users):
                    named = set().union(*(suites(p, files) for p in users))
                    if marked != named:
                        broken.append(
                            "%s: only %s name it; its doc needs `Exported for %s only.`"
                            % (name, listing(named), listing(named))
                        )
                if marked is not None:
                    for p, (qualified, _, _) in files:
                        if p != own and not is_test(p) and any(
                            (mod, value) in qualified for mod in path
                        ):
                            broken.append("%s: marked test-only, but %s names it" % (name, p))
    broken += unused_dependencies()
    for line in broken:
        print(line)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
