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
     real file;
  5. every backticked repository path in README.md and docs/*.md — one
     starting src/, include/, tools/, tests/, bench/, examples/ or ci/,
     globs allowed (`src/util/thread_pool.*`) — matches at least one file,
     so a deleted or renamed file cannot leave a stale pointer behind;
  6. the environment and the CLI overrides, both ways: every
     `getenv("RETSCAN_...")` in src/ and tools/ has a row in
     docs/spec-reference.md's environment table, and every row names a
     variable some source file reads; every flag `parse_overrides`
     (tools/retscan_main.cpp) accepts is documented in the "CLI usage"
     synopsis or its "Overrides applied" paragraph, and every flag in that
     paragraph is accepted;
  7. every `-D<NAME>` in README.md and docs/*.md names an `option()` or a
     `CACHE` variable of the top-level CMakeLists.txt, or a standard
     `CMAKE_*` variable, so a deleted build option cannot stay documented.

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
REPO_PATH_RE = re.compile(r"`((?:src|include|tools|tests|bench|examples|ci)/[^`\s]*)`")
DOC_COMMENT_WINDOW = 12  # lines to search for the file-level /// block
GETENV_RE = re.compile(r'getenv\("(RETSCAN_[A-Z0-9_]+)"\)')
ENV_ROW_RE = re.compile(r"^\| `(RETSCAN_[A-Z0-9_]+)` \|", re.MULTILINE)
FLAG_RE = re.compile(r"--[a-z][a-z-]*")
ACCEPTED_FLAG_RE = re.compile(r'flag == "(--[a-z][a-z-]*)"')
# A -D<NAME> definition, not the "-DED" of SEC-DED.
DEFINE_RE = re.compile(r"(?<![\w-])-D([A-Za-z_][A-Za-z0-9_]*)")
CMAKE_CACHE_RE = re.compile(r"^\s*(?:option\((\w+)|set\((\w+)\s[^)]*\bCACHE\b)",
                            re.MULTILINE)


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


def check_repo_paths(root):
    pages = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    for page in pages:
        text = page.read_text()
        for match in REPO_PATH_RE.finditer(text):
            path = match.group(1)
            if not any(root.glob(path.rstrip("/"))):
                line = text.count("\n", 0, match.start()) + 1
                yield f"{page.relative_to(root)}:{line}: `{path}` matches no file"


def read_sources(root, dirs):
    for top in dirs:
        for path in sorted((root / top).rglob("*")):
            if path.suffix in (".cpp", ".hpp"):
                yield path.read_text()


def section(text, heading):
    """The body of a `## heading` section, up to the next `## `."""
    start = text.index(f"## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end == -1 else text[start:end]


def check_env_and_overrides(root):
    reference = (root / "docs" / "spec-reference.md").read_text()
    read_here = set()
    for text in read_sources(root, ("src", "tools")):
        read_here.update(GETENV_RE.findall(text))
    read_anywhere = set(read_here)
    for text in read_sources(root, ("bench", "examples", "tests")):
        read_anywhere.update(GETENV_RE.findall(text))
    rows = set(ENV_ROW_RE.findall(section(reference, "Environment knobs")))
    for var in sorted(read_here - rows):
        yield f"docs/spec-reference.md: environment variable {var} is read but has no row"
    for var in sorted(rows - read_anywhere):
        yield f"docs/spec-reference.md: row for {var}, which nothing reads"

    main = (root / "tools" / "retscan_main.cpp").read_text()
    start = main.index("int parse_overrides(")
    body = main[start:main.index("\n}\n", start)]
    accepted = set(ACCEPTED_FLAG_RE.findall(body))
    if not accepted:
        yield "tools/retscan_main.cpp: no parse_overrides flags found (extractor broken?)"
    usage = section(reference, "CLI usage")
    synopsis = usage[usage.index("```"):usage.index("```", usage.index("```") + 3)]
    paragraph = usage[usage.index("Overrides applied"):]
    paragraph = paragraph[:paragraph.find("\n\n")]
    documented = set(FLAG_RE.findall(synopsis)) | set(FLAG_RE.findall(paragraph))
    for flag in sorted(accepted - documented):
        yield f"docs/spec-reference.md: override flag {flag} is undocumented"
    for flag in sorted(set(FLAG_RE.findall(paragraph)) - accepted):
        yield (f"docs/spec-reference.md: override flag {flag} is documented but "
               f"parse_overrides does not accept it")


def check_cmake_defines(root):
    cmake = (root / "CMakeLists.txt").read_text()
    known = {option or cache for option, cache in CMAKE_CACHE_RE.findall(cmake)}
    pages = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    for page in pages:
        text = page.read_text()
        for match in DEFINE_RE.finditer(text):
            name = match.group(1)
            if name.startswith("CMAKE_") or name in known:
                continue
            line = text.count("\n", 0, match.start()) + 1
            yield (f"{page.relative_to(root)}:{line}: -D{name} is not an option or "
                   f"cache variable of CMakeLists.txt")


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    problems = []
    for check in (check_docs_exist, check_header_comments, check_spec_keys,
                  check_markdown_links, check_repo_paths, check_env_and_overrides,
                  check_cmake_defines):
        problems.extend(check(root))
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        print(f"\n{len(problems)} documentation problem(s)")
        return 1
    headers = len(list((root / "include" / "retscan").glob("*.hpp")))
    print(f"docs lint: {len(REQUIRED_DOCS)} guides present, {headers} public "
          f"headers documented, spec keys covered, links and paths resolve, "
          f"environment and override flags documented both ways, -D options exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
