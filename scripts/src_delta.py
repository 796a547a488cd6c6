#!/usr/bin/env python3
"""Count the src/ lines a change adds and removes, per module.

Usage (from anywhere inside the repository):

    python3 scripts/src_delta.py BASE [HEAD]

BASE and HEAD are git revisions. Without HEAD the working tree (tracked and
staged files) is compared against BASE, so a change can be sized before it
is committed. Files are attributed to their module, the directory right
under src/ (src/core/app_host.cpp belongs to `core`); renames count as a
removal plus an addition.

Each changed line is classed by what it holds, read in its whole file so a
line inside a /* */ block that the diff shows alone is still a comment:
  comment  only comment text (// comments, /* */ blocks and their bodies),
  blank    nothing but whitespace,
  code     any character outside a comment, so `*p = 0;` and
           `f(/*flag=*/true);` are code, as is code with a trailing comment.
String and character literals are skipped, so a "//" inside one opens no
comment. "Net code" (code added minus code removed) is the figure a change
reports as its src/ delta; comment lines are counted apart so a change that
only adds documentation does not read as growth.

Exit code: 0 on success, 2 on a git error (bad revision, not a repository).
"""
import os
import re
import subprocess
import sys
from collections import defaultdict

KINDS = ("code", "comment", "blank")


def classify_lines(text: str) -> list[str]:
    """The kind of each line of one C++ source file, in order."""
    kinds = []
    in_block = False  # inside a /* */ comment carried over from a prior line
    for line in text.splitlines():
        code = comment = False
        i, n = 0, len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                comment = True
                if end < 0:
                    break
                in_block, i = False, end + 2
            elif line.startswith("//", i):
                comment = True
                break
            elif line.startswith("/*", i):
                in_block, i = True, i + 2
            elif line[i].isspace():
                i += 1
            else:
                code = True
                if line[i] in "\"'" and not digit_separator(line, i):
                    # Skip the literal, escapes included, to its closing quote.
                    quote, i = line[i], i + 1
                    while i < n and line[i] != quote:
                        i += 2 if line[i] == "\\" else 1
                i += 1
        kinds.append("code" if code else "comment" if comment else "blank")
    return kinds


def digit_separator(line: str, i: int) -> bool:
    """True when the quote at line[i] separates digits (1'000, 0xFF'FF)
    rather than opening a literal (L'a', u8'a', "a")."""
    j = i
    while j > 0 and (line[j - 1].isalnum() or line[j - 1] in "_."):
        j -= 1
    return j < i and line[j].isdigit()


def file_text(rev: str | None, path: str) -> str:
    """`path` at git revision `rev`, or in the working tree when rev is None;
    empty when it does not exist there."""
    if rev is None:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                return f.read()
        except FileNotFoundError:
            return ""
    out = subprocess.run(["git", "show", f"{rev}:{path}"], capture_output=True,
                         text=True, errors="replace")
    return out.stdout if out.returncode == 0 else ""


def module_of(path: str) -> str:
    parts = path.split("/")
    # src/<module>/<file>; a file directly under src/ is its own bucket.
    return parts[1] if len(parts) > 2 else "(src)"


HUNK = re.compile(r"^@@ -(\d+)(?:,\d+)? \+(\d+)(?:,\d+)? @@")


def diff_lines(base: str, head: str | None):
    """Yield (path, sign, kind) for every src/ line added (+) or removed (-)."""
    cmd = ["git", "diff", "--no-color", "--no-renames", "-U0", base]
    if head is not None:
        cmd.append(head)
    cmd += ["--", "src"]
    out = subprocess.run(cmd, capture_output=True, text=True, errors="replace")
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(2)
    path = None
    in_header = False  # between "diff --git" and the file's first hunk
    kinds = {}         # sign -> line kinds of that side's whole file
    line_no = {}       # sign -> 1-based number of that side's next line
    for line in out.stdout.splitlines():
        if line.startswith("diff --git "):
            path, in_header = None, True
        elif line.startswith("@@"):
            if in_header and path is not None:
                kinds = {"-": classify_lines(file_text(base, path)),
                         "+": classify_lines(file_text(head, path))}
            in_header = False
            m = HUNK.match(line)
            line_no = {"-": int(m.group(1)), "+": int(m.group(2))}
        elif in_header:
            # "--- a/<path>" then "+++ b/<path>"; /dev/null on the side
            # that does not exist, so the last real name wins.
            if line.startswith(("--- a/", "+++ b/")):
                path = line[6:]
        elif path is not None and line[:1] in ("+", "-"):
            sign = line[0]
            side = kinds[sign]
            n = line_no[sign]
            line_no[sign] = n + 1
            yield path, sign, side[n - 1] if n <= len(side) else "code"


def git_root() -> str:
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(2)
    return out.stdout.strip()


def main() -> int:
    if len(sys.argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    base = sys.argv[1]
    head = sys.argv[2] if len(sys.argv) == 3 else None
    # Diff paths, the "src" pathspec and working-tree reads are all
    # relative to the top of the repository.
    os.chdir(git_root())
    # counts[module][(sign, kind)] -> lines
    counts = defaultdict(lambda: defaultdict(int))
    for path, sign, kind in diff_lines(base, head):
        counts[module_of(path)][(sign, kind)] += 1
        counts["total"][(sign, kind)] += 1

    header = f"{'module':<12}" + "".join(
        f"{k + ' +':>11}{k + ' -':>11}{k + ' net':>13}" for k in KINDS)
    print(f"src/ delta {base}..{head or 'working tree'}")
    print(header)
    modules = sorted(m for m in counts if m != "total") + ["total"]
    for m in modules:
        if m == "total" and not counts[m]:
            continue
        row = f"{m:<12}"
        for k in KINDS:
            add = counts[m][("+", k)]
            rem = counts[m][("-", k)]
            row += f"{add:>11}{rem:>11}{add - rem:>+13}"
        print(row)
    total = counts["total"]
    net_code = total[("+", "code")] - total[("-", "code")]
    net_comment = total[("+", "comment")] - total[("-", "comment")]
    print(f"net code {net_code:+d}, net comment {net_comment:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
