#!/usr/bin/env python3
"""Fail on broken intra-repo markdown links.

Scans every tracked *.md file for inline links/images `[text](target)` and
reference definitions `[label]: target`, resolves relative targets against
the containing file, and reports targets that do not exist. External schemes
(http/https/mailto) and pure in-page anchors are skipped; a `#fragment` on a
relative target is stripped before the existence check. A tracked file that
is missing from the working tree (deleted locally) is reported and skipped.

Used by the CI docs job; run locally as `python3 tools/check_markdown_links.py`.
Exit code: 1 when any link is broken (the count is printed), 0 otherwise.
"""

import os
import re
import subprocess
import sys

INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REFERENCE_DEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
EXTERNAL = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")  # http:, https:, mailto:, ...


def repo_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(here)


def markdown_files(root: str) -> list[str]:
    try:
        out = subprocess.run(
            ["git", "ls-files", "*.md", "**/*.md"],
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
        dirnames[:] = [d for d in dirnames if d not in {".git", "build"}]
        for name in filenames:
            if name.endswith(".md"):
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


def main() -> int:
    root = repo_root()
    files = markdown_files(root)
    if not files:
        print("no markdown files found", file=sys.stderr)
        return 1
    present = [f for f in files if os.path.isfile(os.path.join(root, f))]
    for relpath in sorted(set(files) - set(present)):
        print(f"{relpath}: tracked but missing from the working tree, skipped",
              file=sys.stderr)
    broken = []
    for relpath in present:
        broken.extend(check_file(root, relpath))
    for line in broken:
        print(line)
    print(f"checked {len(present)} markdown files, {len(broken)} broken links")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
