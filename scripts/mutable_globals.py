#!/usr/bin/env python3
"""List the process-global mutable variables in C++ sources.

    scripts/mutable_globals.py DIR [ALLOWED_NAME ...]

Prints one `file:line: name` per variable under DIR (*.cc, *.hh) that
lives for the whole process and is not const: namespace-scope
variables, `static` variables (function or class scope) and
`thread_local` ones. Exits 1 when any of them is not named in
ALLOWED_NAME.

This is a tripwire for the source layout of this repository, not a
C++ parser: namespace members start in column 0 (namespaces are not
indented), and a declaration is a function when a `(` comes before
its `;`, `{` or `=`. So `static Foo foo(1);` passes unseen; spell a
global with braces or `=` and it is caught.
"""

import pathlib
import re
import sys

# A statement starting with one of these declares no mutable variable.
NOT_A_VARIABLE = {
    "namespace", "class", "struct", "union", "enum", "template",
    "using", "typedef", "friend", "static_assert", "extern", "const",
    "constexpr",
}
SPECIFIERS = {"static", "inline", "thread_local", "constinit", "volatile"}


def strip_comments_and_literals(text):
    """Blank comments, string/char literals and preprocessor lines,
    keeping every newline so line numbers still match."""
    pattern = re.compile(
        r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'',
        re.S)
    text = pattern.sub(
        lambda m: "".join(c if c == "\n" else " " for c in m.group()),
        text)
    out = []
    continued = False
    for line in text.split("\n"):
        directive = continued or line.lstrip().startswith("#")
        continued = directive and line.rstrip().endswith("\\")
        out.append("" if directive else line)
    return out


def declared_variable(lines, i):
    """The name of the process-global mutable variable the statement
    at lines[i] declares, or None."""
    line = lines[i]
    body = line.lstrip()
    indented = body != line
    if indented and not re.match(r"(static|thread_local)\b", body):
        return None
    if not indented and not re.match(r"[A-Za-z_\[]", body):
        return None
    # The head: up to the first ';', '{' or '=' (several lines at most).
    head = " ".join(lines[i:i + 6])
    head = re.split(r"[;{=]", head, maxsplit=1)[0]
    head = re.sub(r"\[\[.*?\]\]", " ", head)
    if "(" in head:
        return None  # a function (or a call-style initialiser)
    words = re.findall(r"[A-Za-z_]\w*", head)
    while words and words[0] in SPECIFIERS:
        words.pop(0)
    if len(words) < 2 or words[0] in NOT_A_VARIABLE or "operator" in words:
        return None
    return re.findall(r"[A-Za-z_]\w*", re.sub(r"\[.*?\]", "", head))[-1]


def main(argv):
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    root = pathlib.Path(argv[1])
    allowed = set(argv[2:])
    bad = 0
    sources = sorted(p for p in root.rglob("*")
                     if p.suffix in (".cc", ".hh"))
    for path in sources:
        lines = strip_comments_and_literals(path.read_text())
        for i in range(len(lines)):
            name = declared_variable(lines, i)
            if name and name not in allowed:
                print(f"{path}:{i + 1}: {name}")
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
