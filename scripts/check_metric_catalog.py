#!/usr/bin/env python3
"""Checks that docs/OBSERVABILITY.md's metric catalog matches src/.

Every "sam.<...>" string literal in src/ names a registered metric (the
metrics registry is the only user of that namespace). A literal ending in
"." is a dynamic prefix ("sam.generate.rows." + relation); the catalog
documents it with a placeholder, `sam.generate.rows.<rel>`.

The check fails (exit 1) when a registered name is missing from the
document, or when the document names a `sam.<...>` metric that nothing in
src/ registers any more. Standard library only.

Usage: python3 scripts/check_metric_catalog.py
"""

import pathlib
import re
import sys

REGISTERED = re.compile(r'"(sam\.[A-Za-z0-9_.]*)"')
DOCUMENTED = re.compile(r'`(sam\.[A-Za-z0-9_.]*[A-Za-z0-9_])(\.<[^>`]+>)?`')


def registered_names(src):
    """Returns {name} for literal names and {prefix.} for dynamic ones."""
    names = set()
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        names.update(REGISTERED.findall(path.read_text(encoding="utf-8")))
    return names


def documented_names(doc):
    """Same shape as registered_names: `a.b.<x>` documents prefix 'a.b.'."""
    return {m.group(1) + ("." if m.group(2) else "")
            for m in DOCUMENTED.finditer(doc.read_text(encoding="utf-8"))}


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    doc = root / "docs" / "OBSERVABILITY.md"
    registered = registered_names(root / "src")
    documented = documented_names(doc)

    def show(name):
        return name + "<...>" if name.endswith(".") else name

    failed = False
    for name in sorted(registered - documented):
        print(f"undocumented metric: {show(name)} (add it to {doc})")
        failed = True
    for name in sorted(documented - registered):
        print(f"documented metric not registered in src/: {show(name)}")
        failed = True
    if failed:
        return 1
    print(f"metric catalog OK: {len(registered)} names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
