#!/usr/bin/env python3
"""Fail when an exported sesame:: function reaches no shipped binary.

A function that only tests call is production code nothing ships. This
tool builds every shipped binary -- each example, each bench and the
e2ebench driver -- without inlining and with unreferenced sections
garbage-collected, then compares:

  exported  the `T` symbols in namespace sesame:: of the libsesame_*.a
            static libraries (`nm -C --defined-only`), and
  reached   the same symbols as they appear in the linked binaries.

Signatures are compared in full, so an unreached overload is reported
even when its siblings are reached. The tool exits 1 when

  * an exported function is unreached and not on the allowlist, or
  * an allowlist entry is stale: its function is reached or gone.

The allowlist (tools/reachability_allowlist.txt) holds one demangled
signature per line followed by `  # <reason>`; a line without a reason
is an error. Blank lines and lines starting with `#` are comments.

Usage (from anywhere; the build tree is <repo>/.reach_build):

  python3 tools/reachability.py

The e2ebench/ CMake project adds the whole repository as a subdirectory,
so one configure of it covers every root. The -O0 build of all roots
takes about 3 minutes on 4 cores; later runs rebuild incrementally.
"""

import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(REPO, ".reach_build")
ALLOWLIST = os.path.join(REPO, "tools", "reachability_allowlist.txt")

# No inlining, one section per function, and a linker that drops every
# section no root references: what is left in a binary is what it calls.
CONFIGURE_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]

_NM_LINE = re.compile(r"^[0-9a-fA-F]+ T (sesame::.*)$")


def exported_functions(nm_text):
    """Global text symbols in namespace sesame:: from `nm -C` output."""
    out = set()
    for line in nm_text.splitlines():
        m = _NM_LINE.match(line.strip())
        if m:
            out.add(m.group(1))
    return out


def parse_allowlist(text):
    """Returns {signature: reason}; raises ValueError on a bad line."""
    entries = {}
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        sig, sep, reason = line.partition("  # ")
        sig, reason = sig.strip(), reason.strip()
        if not sep or not reason:
            raise ValueError(f"allowlist line {n} has no '  # <reason>': {line}")
        if sig in entries:
            raise ValueError(f"allowlist line {n} repeats {sig}")
        entries[sig] = reason
    return entries


def check(exported, reached, allowlist):
    """Returns (unlisted, stale), both sorted.

    unlisted: exported, reached by no root, and not allowlisted.
    stale:    allowlisted, but reached or no longer exported.
    """
    unreached = exported - reached
    unlisted = sorted(unreached - allowlist.keys())
    stale = sorted(sig for sig in allowlist if sig not in unreached)
    return unlisted, stale


def analyse(library_nm_texts, root_nm_texts, allowlist):
    """Returns (exported, reached, unlisted, stale) from `nm -C` texts."""
    exported = set().union(*(exported_functions(t) for t in library_nm_texts))
    reached = set().union(*(exported_functions(t) for t in root_nm_texts))
    return (exported, reached) + check(exported, reached, allowlist)


def declared_targets(cmake_file, function):
    """Target names declared by `function(<name> ...)` in a CMakeLists."""
    with open(cmake_file) as f:
        return re.findall(r"^\s*" + function + r"\(\s*(\w+)", f.read(), re.M)


def roots():
    """(target, binary path) of every shipped binary in BUILD."""
    out = []
    for sub, fn in (("examples", "sesame_add_example"),
                    ("bench", "sesame_add_bench")):
        for name in declared_targets(os.path.join(REPO, sub, "CMakeLists.txt"), fn):
            out.append((name, os.path.join(BUILD, "sesame", sub, name)))
    # The benchmark driver is the only caller of some service accounting.
    out.append(("e2ebench", os.path.join(BUILD, "e2ebench")))
    return out


def nm(path):
    return subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                          capture_output=True, text=True).stdout


def build(targets):
    jobs = str(os.cpu_count() or 2)
    subprocess.run(["cmake", "-S", os.path.join(REPO, "e2ebench"), "-B", BUILD,
                    *CONFIGURE_FLAGS], check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets],
                   check=True, stdout=subprocess.DEVNULL)


def main():
    with open(ALLOWLIST) as f:
        try:
            allowlist = parse_allowlist(f.read())
        except ValueError as e:
            sys.exit(f"reachability: {ALLOWLIST}: {e}")
    targets = roots()
    build([t for t, _ in targets])

    libdir = os.path.join(BUILD, "sesame", "src")
    libs = sorted(os.path.join(libdir, f) for f in os.listdir(libdir)
                  if f.startswith("libsesame_") and f.endswith(".a"))
    exported, reached, unlisted, stale = analyse(
        [nm(lib) for lib in libs], [nm(path) for _, path in targets], allowlist)

    print(f"reachability: {len(exported)} exported sesame:: functions, "
          f"{len(exported - reached)} unreached from {len(targets)} roots, "
          f"{len(allowlist)} allowlisted")
    for sig in unlisted:
        print(f"  UNREACHED  {sig}")
    for sig in stale:
        state = "reached" if sig in exported else "gone"
        print(f"  STALE ({state})  {sig}")
    if unlisted:
        print("Give each UNREACHED function a shipped caller, delete it with "
              "its tests, or allowlist it with a reason.")
    if stale:
        print("Remove each STALE line from " + os.path.relpath(ALLOWLIST, REPO) + ".")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
