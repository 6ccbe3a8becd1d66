#!/usr/bin/env python3
"""Repo-specific lint rules the generic toolchain can't express.

Six rules, each encoding a decision documented in DESIGN.md /
docs/STATIC_ANALYSIS.md:

  raw-bucket-mod      src/core must reduce hashes to bucket indexes with
                      FastReduce (common/hash.h), never raw `%`: the
                      division stalls the probe hot path and the repo's
                      widths are not powers of two.
  store-mutation      Copy-on-write storage may only be mutated through
                      Mut() (which clones when a snapshot still shares the
                      buffers) or inside CloneStore()/constructors. A raw
                      `store_->` write anywhere else silently corrupts
                      published snapshots.
  raw-thread          All threads come from the persistent WorkerPool
                      (src/common/worker_pool.cc). Ad-hoc std::thread
                      construction reintroduces the per-query spawn cost
                      the pool exists to amortize, and escapes the pool's
                      TSA-annotated shutdown protocol.
  unseeded-random     Tests derive randomness from tests/test_seed.h so
                      failures reproduce. An argless std::random_device
                      gives every run different entropy.
  geometry-field-read Geometry is dynamic (DESIGN.md §12): a Resize can
                      change fp_buckets/fp_slots/ef_bytes/ef_level_bits/
                      ifp_rows/ifp_buckets_per_row at any epoch seal, so
                      src/ code that reads those DaVinciConfig fields
                      directly (outside src/core/config.{h,cc} and
                      constructors) risks caching a stale shape. Go
                      through the config accessors (FpBytes, TotalBytes,
                      GeometryEquals, GeometryCompatible, EfCarriesOver)
                      or the owning part's shape accessors
                      (fp_.num_buckets() etc), which always reflect the
                      live geometry.
  hand-opcode         Every wire op's request and reply are defined once,
                      in the opcode table src/server/ops.h, and encoded
                      from it. An opcode byte written by hand anywhere
                      else in src/ (`static_cast<uint8_t>(Op::...)`,
                      `U8(... Op::k...)`) is a hand-mirrored codec that
                      can drift from the table. tests/, bench/ and
                      perfbench/ may hand-craft bytes.

Suppressions: inline `// davinci-lint: allow(<rule>)` on the offending
line, or an entry in scripts/lint_suppressions.txt (see its header).

Usage:
  lint_project.py [--root DIR]     lint the repo, exit 1 on findings
  lint_project.py --self-test      prove each rule still fires on a
                                   seeded violation (CI runs this first)
"""

from __future__ import annotations

import argparse
import fnmatch
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Rules. Each: (name, file predicate, line regex, extra predicate, message).

BUCKET_MOD_RE = re.compile(
    r"%\s*(?:\w*(?:width|bucket)\w*|\w+(?:\.|->)size\(\))")
STORE_MUT_RE = re.compile(
    r"(?:\+\+|--)\s*store_->"
    r"|store_->\s*\w+\s*(?:\[[^\]]*\]\s*)?(?:=[^=]|\+=|-=|\*=|/=|\|=|&=|\^=)"
    r"|store_->\s*\w+\s*\.\s*"
    r"(?:assign|resize|clear|push_back|emplace_back|insert|erase|swap)\s*\(")
RAW_THREAD_RE = re.compile(r"std::thread\s*(?:\w+\s*)?[({]|std::jthread")
RANDOM_DEVICE_RE = re.compile(r"std::random_device\s*(?:\w+\s*)?[;({]")
HAND_OPCODE_RE = re.compile(
    r"static_cast\s*<\s*uint8_t\s*>\s*\(\s*Op::|\bU8\s*\([^;]*\bOp::k")
GEOMETRY_FIELD_RE = re.compile(
    r"(?:\.|->)\s*(?:fp_buckets|fp_slots|ef_bytes|ef_level_bits"
    r"|ifp_rows|ifp_buckets_per_row)\b")

# Functions allowed to touch store_-> directly: the CoW choke points plus
# constructors (storage is unshared until the first Snapshot).
STORE_MUT_ALLOWED_FUNCS = {"Mut", "CloneStore", "__ctor__"}

FUNC_DEF_RE = re.compile(r"^[\w:&<>*\s]*?(\w+)::(~?\w+)\s*\(")


def _in_core(path: str) -> bool:
    return path.startswith("src/core/")


def _in_cow_sources(path: str) -> bool:
    return (path.startswith(("src/core/", "src/baselines/"))
            and path.endswith((".cc", ".h")))


def _in_src(path: str) -> bool:
    return path.startswith("src/") and path != "src/common/worker_pool.cc"


def _in_tests(path: str) -> bool:
    return path.startswith("tests/")


def _in_opcode_writers(path: str) -> bool:
    """src/ minus the opcode table itself."""
    return path.startswith("src/") and path != "src/server/ops.h"


def _in_geometry_consumers(path: str) -> bool:
    """src/ minus the accessors' own home (tests fabricate geometries)."""
    return (path.startswith("src/")
            and path not in ("src/core/config.h", "src/core/config.cc"))


def strip_noncode(line: str) -> str:
    """Drop // comments and string-literal contents (keeps the quotes)."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return line.split("//")[0]


def enclosing_functions(lines: list[str]) -> list[str]:
    """Per-line name of the enclosing out-of-line member function.

    Heuristic (brace-free): a line matching `Class::Func(` starts function
    `Func` (or `__ctor__` when Func == Class / ~Class); the name sticks
    until the next definition. Good enough for the .cc layout this repo
    uses — one top-level definition at a time, no nested lambdas defining
    new members.
    """
    names = []
    current = ""
    for line in lines:
        match = FUNC_DEF_RE.match(line)
        if match:
            cls, func = match.group(1), match.group(2)
            current = "__ctor__" if func.lstrip("~") == cls else func
        names.append(current)
    return names


def check_file(path: str, text: str) -> list[tuple[str, int, str, str]]:
    """Returns (rule, line_number, line_text, message) findings."""
    findings = []
    lines = text.splitlines()
    funcs = enclosing_functions(lines)
    in_block_comment = False
    for i, raw in enumerate(lines, start=1):
        line = raw
        if in_block_comment:
            if "*/" in line:
                line = line.split("*/", 1)[1]
                in_block_comment = False
            else:
                continue
        if "/*" in line and "*/" not in line:
            in_block_comment = True
            line = line.split("/*")[0]
        code = strip_noncode(line)
        if not code.strip():
            continue
        if "davinci-lint: allow(" in raw:
            continue

        if _in_core(path) and BUCKET_MOD_RE.search(code):
            findings.append((
                "raw-bucket-mod", i, raw,
                "raw `%` bucket reduction in src/core — use FastReduce / "
                "BucketFastWithBase (common/hash.h)"))
        if _in_cow_sources(path) and STORE_MUT_RE.search(code):
            if funcs[i - 1] not in STORE_MUT_ALLOWED_FUNCS:
                findings.append((
                    "store-mutation", i, raw,
                    "direct store_-> mutation outside Mut()/CloneStore() "
                    "bypasses copy-on-write and corrupts live snapshots"))
        if _in_src(path) and RAW_THREAD_RE.search(code):
            findings.append((
                "raw-thread", i, raw,
                "std::thread construction outside common/worker_pool.cc — "
                "run work on the shared WorkerPool"))
        if _in_tests(path) and RANDOM_DEVICE_RE.search(code):
            findings.append((
                "unseeded-random", i, raw,
                "argless std::random_device in tests — derive the seed "
                "via tests/test_seed.h so failures reproduce"))
        if (_in_geometry_consumers(path) and GEOMETRY_FIELD_RE.search(code)
                and funcs[i - 1] != "__ctor__"):
            findings.append((
                "geometry-field-read", i, raw,
                "direct geometry-field read outside config/geometry "
                "accessors — geometry changes at runtime (DESIGN.md §12); "
                "use the DaVinciConfig accessors or the owning part's "
                "shape accessors"))
        if _in_opcode_writers(path) and HAND_OPCODE_RE.search(code):
            findings.append((
                "hand-opcode", i, raw,
                "opcode byte written by hand outside src/server/ops.h — "
                "add or change the op in the opcode table and encode from it"))
    return findings


# ---------------------------------------------------------------------------
# Suppression file: `<rule> <path-glob> <substring>` per line, # comments.

def load_suppressions(path: Path) -> list[tuple[str, str, str]]:
    entries = []
    if not path.exists():
        return entries
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            print(f"lint_suppressions.txt: malformed entry: {raw!r}",
                  file=sys.stderr)
            sys.exit(2)
        entries.append((parts[0], parts[1], parts[2]))
    return entries


def suppressed(entry_list, rule: str, path: str, line_text: str) -> bool:
    return any(
        rule == s_rule and fnmatch.fnmatch(path, s_glob)
        and s_sub in line_text
        for s_rule, s_glob, s_sub in entry_list)


# ---------------------------------------------------------------------------

def lint_tree(root: Path) -> int:
    suppressions = load_suppressions(root / "scripts" / "lint_suppressions.txt")
    count = 0
    for sub in ("src", "tests"):
        base = root / sub
        if not base.is_dir():
            continue
        for file in sorted(base.rglob("*")):
            if file.suffix not in (".cc", ".h", ".cpp", ".hpp"):
                continue
            rel = file.relative_to(root).as_posix()
            for rule, lineno, text, message in check_file(
                    rel, file.read_text(errors="replace")):
                if suppressed(suppressions, rule, rel, text):
                    continue
                print(f"{rel}:{lineno}: [{rule}] {message}\n    {text.strip()}")
                count += 1
    if count:
        print(f"\n{count} finding(s). Suppress intentional ones with "
              "`// davinci-lint: allow(<rule>)` or scripts/lint_suppressions.txt.")
    return 1 if count else 0


# ---------------------------------------------------------------------------
# Self-test: every rule must fire on a seeded violation and stay quiet on
# the idiomatic spelling. Run by ctest (lint_selftest) so a refactor of
# the regexes can't silently lobotomize the gate.

SELF_TEST_CASES = [
    # (rule, path, snippet, should_fire)
    ("raw-bucket-mod", "src/core/foo.cc",
     "size_t index = base_hash % fp_buckets_;", True),
    ("raw-bucket-mod", "src/core/foo.cc",
     "size_t index = hash % counters.size();", True),
    ("raw-bucket-mod", "src/core/foo.cc",
     "size_t index = FastReduce(base_hash, fp_buckets_);", False),
    ("raw-bucket-mod", "src/common/modular.h",
     "uint64_t r = value % kFermatPrime;", False),  # mod-p is not a bucket
    ("store-mutation", "src/core/foo.cc",
     "void Foo::Insert() {\n  store_->counts[i] += count;\n}", True),
    ("store-mutation", "src/core/foo.cc",
     "void Foo::Insert() {\n  store_->ids.assign(n, 0);\n}", True),
    ("store-mutation", "src/core/foo.cc",
     "Foo::Foo() {\n  store_->ids.assign(n, 0);\n}", False),  # ctor OK
    ("store-mutation", "src/core/foo.cc",
     "void Foo::Insert() {\n  Storage& st = Mut();\n  st.counts[i] = 1;\n}",
     False),
    ("store-mutation", "src/core/foo.cc",
     "int64_t Foo::Query() const {\n  return store_->counts[i] == 0;\n}",
     False),  # read, not write
    ("raw-thread", "src/core/foo.cc",
     "std::thread worker([] { Work(); });", True),
    ("raw-thread", "src/core/foo.cc",
     "size_t n = std::thread::hardware_concurrency();", False),
    ("raw-thread", "src/common/worker_pool.cc",
     "workers_.emplace_back(std::thread([] { Loop(); }));", False),
    ("unseeded-random", "tests/foo_test.cc",
     "std::random_device rd;", True),
    ("unseeded-random", "tests/foo_test.cc",
     "std::mt19937_64 rng(davinci::TestSeed());", False),
    ("unseeded-random", "src/core/foo.cc",
     "std::random_device rd;", False),  # rule scoped to tests/
    ("raw-bucket-mod", "src/core/foo.cc",
     "// a comment mentioning hash % buckets is fine", False),
    ("raw-bucket-mod", "src/core/foo.cc",
     "size_t i = h % width_;  // davinci-lint: allow(raw-bucket-mod)",
     False),
    ("geometry-field-read", "src/core/foo.cc",
     "void Foo::Rebuild() {\n  size_t n = config_.fp_buckets;\n}", True),
    ("geometry-field-read", "src/server/foo.cc",
     "void Foo::Plan() {\n  rows_ = config->ifp_rows;\n}", True),
    ("geometry-field-read", "src/core/foo.cc",
     "Foo::Foo(const DaVinciConfig& c)\n"
     "    : fp_(c.fp_buckets, c.fp_slots) {}", False),  # ctor builds parts
    ("geometry-field-read", "src/core/config.cc",
     "size_t DaVinciConfig::FpBytes() const {\n"
     "  return fp_buckets * BucketBytes();\n}", False),  # accessors' home
    ("geometry-field-read", "tests/foo_test.cc",
     "config.fp_buckets = 1024;", False),  # tests fabricate geometries
    ("geometry-field-read", "src/core/foo.cc",
     "size_t n = config_.FpBytes();", False),  # accessor, not a raw field
    ("hand-opcode", "src/server/client.cc",
     "writer.U8(static_cast<uint8_t>(Op::kQuery));", True),
    ("hand-opcode", "src/server/foo.cc",
     "const uint8_t op = static_cast< uint8_t >( Op::kPing);", True),
    ("hand-opcode", "src/server/foo.cc",
     "w.U8(OpByte(Op::kPing));", True),
    ("hand-opcode", "src/server/ops.h",
     "w.U8(static_cast<uint8_t>(E::kOp));", False),  # the table itself
    ("hand-opcode", "src/server/ops.h",
     "w.U8(static_cast<uint8_t>(Op::kPing));", False),
    ("hand-opcode", "src/server/dispatcher.cc",
     "handlers[static_cast<uint8_t>(E::kOp)] = &Run<E>;", False),
    ("hand-opcode", "src/server/foo.cc",
     "writer.U8(static_cast<uint8_t>(StatusCode::kOk));", False),
    ("hand-opcode", "tests/server_protocol_test.cc",
     "writer.U8(static_cast<uint8_t>(Op::kQuery));", False),  # tests may
]


def self_test() -> int:
    failures = 0
    for rule, path, snippet, should_fire in SELF_TEST_CASES:
        hits = [f for f in check_file(path, snippet) if f[0] == rule]
        fired = bool(hits)
        if fired != should_fire:
            failures += 1
            verb = "did not fire" if should_fire else "fired spuriously"
            print(f"SELF-TEST FAIL [{rule}] {verb} on:\n    {snippet}")
    if failures:
        print(f"\n{failures} self-test failure(s)")
        return 1
    print(f"self-test OK: {len(SELF_TEST_CASES)} cases")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule fires on a seeded violation")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    return lint_tree(root)


if __name__ == "__main__":
    sys.exit(main())
