#!/usr/bin/env python3
"""Counts the non-test lines of Rust source.

Run from the repository root:

    python3 scripts/loc.py crates/serve/src crates/audit/src

For each path argument (a `.rs` file, or a directory searched recursively
for them) it prints the non-blank lines, split into `//` comment lines
(doc comments included) and code lines, then a total over all arguments.
Test code is left out: every item marked `#[cfg(test)]`, up to its
matching closing brace (or its `;`), and every file under a `tests/`
directory.  Braces inside comments, strings and character literals do
not count towards the match.
"""

import os
import re
import sys

RAW_STRING = re.compile(r'b?r(#*)"')
CHAR_LITERAL = re.compile(r"'(\\.[^']*|[^\\'])'")


class Scanner:
    """Returns the parts of each line that lie outside comments, string
    literals and character literals, carrying block comments and strings
    over line ends."""

    def __init__(self):
        self.block = 0  # nesting depth of `/* */` comments
        self.close = None  # what ends the open string literal, if any
        self.raw = False  # whether that literal is a raw string

    def code(self, line):
        out = []
        i = 0
        while i < len(line):
            if self.block:
                if line.startswith("*/", i):
                    self.block -= 1
                    i += 2
                elif line.startswith("/*", i):
                    self.block += 1
                    i += 2
                else:
                    i += 1
            elif self.close:
                if not self.raw and line[i] == "\\":
                    i += 2
                elif line.startswith(self.close, i):
                    i += len(self.close)
                    self.close = None
                else:
                    i += 1
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                self.block = 1
                i += 2
            elif line[i] == '"':
                self.close, self.raw = '"', False
                i += 1
            elif (raw := RAW_STRING.match(line, i)) and not (
                i and (line[i - 1].isalnum() or line[i - 1] == "_")
            ):
                self.close, self.raw = '"' + raw.group(1), True
                i = raw.end()
            elif char := CHAR_LITERAL.match(line, i):
                i = char.end()
            else:
                out.append(line[i])
                i += 1
        return "".join(out)


def count_file(path):
    """(code, comment) non-blank line counts of one file, test items
    left out."""
    code = comment = 0
    scanner = Scanner()
    skipping = False
    depth = 0
    opened = False
    with open(path, encoding="utf-8") as source:
        for line in source:
            text = line.strip()
            chars = scanner.code(line)
            if not skipping and text.startswith("#[cfg(test)]"):
                skipping, depth, opened = True, 0, False
            if skipping:
                depth += chars.count("{") - chars.count("}")
                opened = opened or "{" in chars
                if (opened and depth <= 0) or (not opened and ";" in chars):
                    skipping = False
            elif text.startswith("//"):
                comment += 1
            elif text:
                code += 1
    return code, comment


def rust_files(path):
    if os.path.isfile(path):
        found = [path]
    else:
        found = []
        for root, dirs, files in os.walk(path):
            dirs.sort()
            found += [os.path.join(root, f) for f in sorted(files) if f.endswith(".rs")]
    return [f for f in found if "tests" not in os.path.normpath(f).split(os.sep)]


def main(paths):
    if not paths:
        sys.exit("usage: loc.py PATH...")
    rows = []
    for path in paths:
        if not os.path.exists(path):
            sys.exit(f"loc.py: no such path: {path}")
        counts = [count_file(f) for f in rust_files(path)]
        rows.append((path, sum(c for c, _ in counts), sum(m for _, m in counts)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'path':<{width}}  {'code':>7}  {'comment':>7}  {'lines':>7}")
    for path, code, comment in rows:
        print(f"{path:<{width}}  {code:>7}  {comment:>7}  {code + comment:>7}")


if __name__ == "__main__":
    main(sys.argv[1:])
