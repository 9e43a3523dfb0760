#!/usr/bin/env python3
"""Documentation lint: keep docs/ and the public headers honest.

Checks, in order:
  1. the documentation tree exists and is non-trivial
     (docs/architecture.md, docs/spec-reference.md, docs/verilog-frontend.md);
  2. every public header under include/retscan/ opens with a Doxygen-style
     file-level doc comment (`///`) near the top — the public surface is
     self-describing;
  3. docs/spec-reference.md documents every spec key the parser accepts
     (extracted from src/api/campaign.cpp), and every key row in its tables
     (`| `key` |`) is one the parser accepts, so a removed key cannot leave
     a stale row and the reference cannot rot;
  4. every relative markdown link in README.md and docs/*.md resolves to a
     real file.

Usage:  python3 ci/check_docs.py [repo_root]
"""

import pathlib
import re
import sys

REQUIRED_DOCS = {
    "docs/architecture.md": 2000,
    "docs/spec-reference.md": 2000,
    "docs/verilog-frontend.md": 2000,
    "docs/serve.md": 2000,
}

SPEC_KEY_RE = re.compile(r'key == "([a-z0-9_.+]+)"')
# A spec-key table row: lowercase key in the first cell (environment
# variables are upper case and CLI flags start with '-').
SPEC_ROW_RE = re.compile(r"^\| `([a-z][a-z0-9_.+]*)` \|", re.MULTILINE)
MD_LINK_RE = re.compile(r"\]\(([^)#]+?)(?:#[^)]*)?\)")
DOC_COMMENT_WINDOW = 12  # lines to search for the file-level /// block


def check_docs_exist(root):
    for rel, min_bytes in REQUIRED_DOCS.items():
        path = root / rel
        if not path.is_file():
            yield f"{rel}: missing"
        elif path.stat().st_size < min_bytes:
            yield f"{rel}: suspiciously small ({path.stat().st_size} bytes)"


def check_header_comments(root):
    headers = sorted((root / "include" / "retscan").glob("*.hpp"))
    if not headers:
        yield "include/retscan/: no public headers found"
    for path in headers:
        head = path.read_text().splitlines()[:DOC_COMMENT_WINDOW]
        if not any(line.lstrip().startswith("///") for line in head):
            yield (f"{path.relative_to(root)}: no file-level /// doc comment in the "
                   f"first {DOC_COMMENT_WINDOW} lines")


def check_spec_keys(root):
    source = (root / "src" / "api" / "campaign.cpp").read_text()
    keys = sorted(set(SPEC_KEY_RE.findall(source)))
    if not keys:
        yield "src/api/campaign.cpp: no spec keys found (extractor broken?)"
    reference = (root / "docs" / "spec-reference.md").read_text()
    for key in keys:
        if f"`{key}`" not in reference and key not in reference:
            yield f"docs/spec-reference.md: spec key '{key}' is undocumented"
    for key in sorted(set(SPEC_ROW_RE.findall(reference)) - set(keys)):
        yield (f"docs/spec-reference.md: row for '{key}', which the spec parser "
               f"does not accept")


def check_markdown_links(root):
    pages = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    for page in pages:
        for target in MD_LINK_RE.findall(page.read_text()):
            if "://" in target or target.startswith("mailto:"):
                continue
            resolved = (page.parent / target).resolve()
            if not resolved.exists():
                yield f"{page.relative_to(root)}: broken link '{target}'"


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    problems = []
    for check in (check_docs_exist, check_header_comments, check_spec_keys,
                  check_markdown_links):
        problems.extend(check(root))
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        print(f"\n{len(problems)} documentation problem(s)")
        return 1
    headers = len(list((root / "include" / "retscan").glob("*.hpp")))
    print(f"docs lint: {len(REQUIRED_DOCS)} guides present, {headers} public "
          f"headers documented, spec keys covered, links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
