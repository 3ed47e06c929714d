#!/usr/bin/env python3
"""Fail on broken intra-repo markdown links, doc paths cited in code, and
code names in docs that the code no longer has.

Scans every tracked *.md file for inline links/images `[text](target)` and
reference definitions `[label]: target`, resolves relative targets against
the containing file, and reports targets that do not exist. External schemes
(http/https/mailto) and pure in-page anchors are skipped; a `#fragment` on a
relative target is stripped before the existence check. A tracked file that
is missing from the working tree (deleted locally) is reported and skipped.

Every `*.md` path cited in a tracked *.h or *.cpp file (in a comment or in a
printed note) must exist too. Such paths resolve from the repository root,
so a bare name means a file at the root.

Docs name code too, and a name outlives the code it names unless something
checks it. In README.md and every tracked *.md file below the root (the
other root-level files are notes: the change log, the roadmap, plans, and
papers and snippets of other code), each inline code span holding a qualified
name such as `Type::member` must name identifiers that all occur in the code
(comments stripped) of src/, bench/, examples/ or perfbench/. And under a
heading that names a struct of that code (such as `OefOptions`), each row
of a table must name one of the struct's fields in its first cell.

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
CODE_DIRS = ("src/", "bench/", "examples/", "perfbench/")
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
CODE_SPAN = re.compile(r"`([^`\n]+)`")
QUALIFIED = re.compile(r"\b[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)+")
COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
STRUCT = re.compile(r"\bstruct\s+([A-Za-z_]\w*)\s*\{")
HEADING = re.compile(r"^#+\s")


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


def code_text(root: str, code: list[str]) -> str:
    """The source of src/, bench/, examples/ and perfbench/, comments stripped."""
    texts = []
    for relpath in code:
        if relpath.startswith(CODE_DIRS):
            with open(os.path.join(root, relpath), encoding="utf-8") as handle:
                texts.append(COMMENT.sub(" ", handle.read()))
    return "\n".join(texts)


def struct_fields(code: str) -> dict[str, set[str]]:
    """Data members of each struct: declarations at the struct's own brace
    depth with no parameter list before their initialiser."""
    fields: dict[str, set[str]] = {}
    for match in STRUCT.finditer(code):
        members = fields.setdefault(match.group(1), set())
        depth, statement = 1, ""
        for char in code[match.end():]:
            if char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
                if depth == 0:
                    break
                if depth == 1 and "(" in statement:
                    statement = ""  # a member function's body ended
            elif depth == 1 and char == ";":
                declarator = statement.split("=", 1)[0]
                names = IDENTIFIER.findall(declarator)
                if names and "(" not in declarator:
                    members.add(names[-1])
                statement = ""
            elif depth == 1:
                statement += char
    return fields


def check_code_names(relpath: str, text: str, identifiers: set[str],
                     fields: dict[str, set[str]]) -> list[str]:
    """Qualified names in inline code spans, and table rows under a heading
    that names a struct. Fenced blocks are blanked, keeping line numbers."""
    broken = []
    prose = FENCE.sub(lambda block: "\n" * block.group(0).count("\n"), text)
    for span in CODE_SPAN.findall(prose):
        for name in QUALIFIED.findall(span):
            if not all(part.lstrip("~") in identifiers for part in name.split("::")):
                broken.append(f"{relpath}: names code that does not exist -> {name}")
    struct, in_table = None, False
    for number, line in enumerate(prose.splitlines(), start=1):
        if HEADING.match(line):
            named = [span for span in CODE_SPAN.findall(line) if span in fields]
            struct, in_table = (named[0] if named else None), False
            continue
        is_row = line.startswith("|")
        header, in_table = is_row and not in_table, is_row
        if struct is None or not is_row or header:
            continue
        first = line.strip().strip("|").split("|")[0].strip()
        if set(first) <= set("-: "):
            continue  # the separator row
        named = CODE_SPAN.findall(first)
        if not named or named[0] not in fields[struct]:
            broken.append(f"{relpath}:{number}: {first} is not a field of {struct}")
    return broken


def is_root_note(relpath: str) -> bool:
    """A root-level doc other than README.md: a note whose names go unchecked."""
    return "/" not in relpath and relpath != "README.md"


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
    source = code_text(root, code)
    identifiers = set(IDENTIFIER.findall(source))
    fields = struct_fields(source)
    for relpath in markdown:
        if is_root_note(relpath):
            continue
        with open(os.path.join(root, relpath), encoding="utf-8") as handle:
            broken.extend(check_code_names(relpath, handle.read(), identifiers, fields))
    for line in broken:
        print(line)
    print(f"checked {len(markdown)} markdown files and {len(code)} code files, "
          f"{len(broken)} broken links or names")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
