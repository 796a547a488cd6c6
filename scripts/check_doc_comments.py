#!/usr/bin/env python3
"""Enforce one-line doc comments on public headers.

Every public type (struct / class / enum at namespace scope) and every
public member function declared in the checked headers must be preceded
by a comment line (/// preferred, // accepted). This is a deliberately
simple line-based heuristic, not a C++ parser: it tracks brace depth and
access specifiers, and flags declarations whose preceding non-blank line
is neither a comment nor part of the same declaration.

Runs with plain python3, no dependencies; CI pairs it with a Doxygen
warnings-as-errors build for the cases a heuristic cannot judge.
"""
import re
import sys
from pathlib import Path

CHECKED_DIRS = ["src/capture", "src/chaos", "src/core", "src/image", "src/net",
                "src/rate", "src/relay", "src/snapshot", "src/transcode"]

TYPE_RE = re.compile(r"^(template\s*<[^>]*>\s*)?(struct|class|enum(\s+class)?)\s+(\w+)")
# A function-ish member: optionally-qualified return type, name, open paren.
FUNC_RE = re.compile(
    r"^(?:template\s*<[^>]*>\s*)?"
    r"(?:(?:virtual|static|constexpr|explicit|inline|friend|\[\[nodiscard\]\])\s+)*"
    r"[\w:<>,&*\s~]+?\b([A-Za-z_]\w*)\s*\("
)
ACCESS_RE = re.compile(r"^\s*(public|protected|private)\s*:")

def is_comment(line: str) -> bool:
    s = line.strip()
    return s.startswith("//") or s.startswith("*") or s.startswith("/*")

def check_header(path: Path, repo: Path):
    errors = []
    lines = path.read_text(encoding="utf-8").splitlines()
    depth = 0                # brace depth
    class_depth = []         # depths at which a class/struct body opened
    access = []              # current access per open class body
    prev_code = ""           # last non-blank non-comment line (continuations)
    prev_line = ""           # last non-blank line of any kind (doc check)
    for idx, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        in_class = bool(class_depth) and depth == class_depth[-1]
        at_namespace_scope = not class_depth and depth <= 1

        m = ACCESS_RE.match(line)
        if m and in_class:
            access[-1] = m.group(1)

        documented = is_comment(prev_line) or "///<" in raw
        # Continuation of a multi-line declaration: the previous code line
        # did not finish (no ; { or }) — never flag these.
        continuation = prev_code and not prev_code.rstrip().endswith((";", "{", "}", ">", ":"))

        tm = TYPE_RE.match(line)
        if tm and (at_namespace_scope or (in_class and access[-1] == "public")):
            if not documented and not continuation:
                errors.append(f"{path.relative_to(repo)}:{idx + 1}: "
                              f"undocumented type '{tm.group(4)}'")
        elif in_class and access[-1] == "public" and not continuation \
                and not line.startswith("~"):
            fm = FUNC_RE.match(line)
            if fm and not documented:
                name = fm.group(1)
                # Skip obvious non-declarations and trivial boilerplate.
                if name not in {"if", "for", "while", "switch", "return",
                                "sizeof", "static_assert", "assert", "defined"}:
                    errors.append(f"{path.relative_to(repo)}:{idx + 1}: "
                                  f"undocumented public function '{name}'")

        # Update brace depth / class tracking after inspecting the line.
        opens = line.count("{") - line.count("}")
        if TYPE_RE.match(line) and line.endswith("{") and "enum" not in line:
            class_depth.append(depth + 1)
            access.append("public" if line.startswith("struct") else "private")
        depth += opens
        while class_depth and depth < class_depth[-1]:
            class_depth.pop()
            access.pop()
        if not is_comment(line):
            prev_code = line
        prev_line = line
    return errors

def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    headers = []
    for d in CHECKED_DIRS:
        headers.extend(sorted((repo / d).glob("*.hpp")))
    all_errors = []
    for h in headers:
        all_errors.extend(check_header(h, repo))
    for err in all_errors:
        print(err)
    if all_errors:
        print(f"FAIL: {len(all_errors)} undocumented declaration(s) "
              f"in {len(headers)} header(s)")
        return 1
    print(f"OK: {len(headers)} header(s) documented")
    return 0

if __name__ == "__main__":
    sys.exit(main())
