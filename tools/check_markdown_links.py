#!/usr/bin/env python3
"""Fail on broken intra-repo markdown links and on doc paths cited in code.

Scans every tracked *.md file for inline links/images `[text](target)` and
reference definitions `[label]: target`, resolves relative targets against
the containing file, and reports targets that do not exist. External schemes
(http/https/mailto) and pure in-page anchors are skipped; a `#fragment` on a
relative target is stripped before the existence check. A tracked file that
is missing from the working tree (deleted locally) is reported and skipped.

Every `*.md` path cited in a tracked *.h or *.cpp file (in a comment or in a
printed note) must exist too. Such paths resolve from the repository root,
so a bare name means a file at the root.

Used by the CI docs job; run locally as `python3 tools/check_markdown_links.py`.
Exit code: 1 when any link or citation is broken (the count is printed), 0
otherwise.
"""

import os
import re
import subprocess
import sys

INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REFERENCE_DEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
EXTERNAL = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")  # http:, https:, mailto:, ...
CODE_DOC_PATH = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w.-]+\.md)(?![\w/-])")


def repo_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(here)


def tracked_files(root: str, suffixes: tuple[str, ...]) -> list[str]:
    try:
        out = subprocess.run(
            ["git", "ls-files", *(f"*{suffix}" for suffix in suffixes)],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout
        files = [line for line in out.splitlines() if line.strip()]
        if files:
            return files
    except (OSError, subprocess.CalledProcessError):
        pass
    # Fallback outside git: walk, skipping build trees.
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in {".git", ".bench_build", "build"}]
        for name in filenames:
            if name.endswith(suffixes):
                found.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(found)


def check_file(root: str, relpath: str) -> list[str]:
    path = os.path.join(root, relpath)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    targets = INLINE_LINK.findall(text) + REFERENCE_DEF.findall(text)
    broken = []
    for target in targets:
        if EXTERNAL.match(target) or target.startswith("#"):
            continue
        resolved = target.split("#", 1)[0]
        if not resolved:
            continue
        base = root if resolved.startswith("/") else os.path.dirname(path)
        candidate = os.path.normpath(os.path.join(base, resolved.lstrip("/")))
        if not os.path.exists(candidate):
            broken.append(f"{relpath}: broken link -> {target}")
    return broken


def check_code_file(root: str, relpath: str) -> list[str]:
    with open(os.path.join(root, relpath), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    broken = []
    for number, line in enumerate(lines, start=1):
        for cited in CODE_DOC_PATH.findall(line):
            if not os.path.exists(os.path.normpath(os.path.join(root, cited))):
                broken.append(f"{relpath}:{number}: cites missing doc -> {cited}")
    return broken


def present_files(root: str, files: list[str]) -> list[str]:
    present = [f for f in files if os.path.isfile(os.path.join(root, f))]
    for relpath in sorted(set(files) - set(present)):
        print(f"{relpath}: tracked but missing from the working tree, skipped",
              file=sys.stderr)
    return present


def main() -> int:
    root = repo_root()
    files = tracked_files(root, (".md",))
    if not files:
        print("no markdown files found", file=sys.stderr)
        return 1
    markdown = present_files(root, files)
    code = present_files(root, tracked_files(root, (".h", ".cpp")))
    broken = []
    for relpath in markdown:
        broken.extend(check_file(root, relpath))
    for relpath in code:
        broken.extend(check_code_file(root, relpath))
    for line in broken:
        print(line)
    print(f"checked {len(markdown)} markdown files and {len(code)} code files, "
          f"{len(broken)} broken links")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
