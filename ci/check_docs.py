#!/usr/bin/env python3
"""Fails when README.md stops naming a bench binary or a smoke ctest entry.

Every executable declared in bench/CMakeLists.txt and every `smoke.*` or
`bench_smoke.*` test declared in tests/CMakeLists.txt must appear in
README.md. Usage: ci/check_docs.py [repo-root]  (default: this file's
parent's parent). Exits 1 and lists the missing names on drift.
"""
import pathlib
import re
import sys


def declared_names(root: pathlib.Path) -> list[str]:
    bench = (root / "bench" / "CMakeLists.txt").read_text()
    tests = (root / "tests" / "CMakeLists.txt").read_text()
    names = re.findall(r"^\s*(?:hammer_bench|add_executable)\(\s*([\w.]+)", bench, re.M)
    names += re.findall(r"add_test\(\s*NAME\s+((?:smoke|bench_smoke)\.[\w.]+)", tests)
    return names


def main() -> int:
    if len(sys.argv) > 1:
        root = pathlib.Path(sys.argv[1])
    else:
        root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    names = declared_names(root)
    if not names:
        print("check_docs: found no bench binaries or smoke tests to check", file=sys.stderr)
        return 1
    missing = [n for n in names
               if not re.search(r"(?<![\w.])" + re.escape(n) + r"(?![\w.])", readme)]
    for name in missing:
        print(f"check_docs: README.md does not mention {name}", file=sys.stderr)
    if missing:
        return 1
    print(f"check_docs: README.md names all {len(names)} bench binaries and smoke tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
