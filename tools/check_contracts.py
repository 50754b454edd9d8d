#!/usr/bin/env python3
"""Invariant lint for the §11 concurrency contracts (DESIGN.md).

Three checks over src/sim plus the DESIGN.md death-contract registry:

  A. Atomic-member layout: every `std::atomic` member must either live in
     an `alignas`-grouped struct (ThreadState, RingHdr — the
     contended-line grouping is the layout) or carry a
     `// SHARED-LINE(<why>)` marker recording that sharing its cache line
     is a decision, not an accident.

  B. Wait phasing: every futex/atomic wait site must carry
     `// WD-PHASE(<name>)` (it parks inside the §9 watchdog-phased
     wrapper) or `// WD-EXEMPT: <why>` (it is deliberately outside the
     watchdog's reach — the dispatch park the caller always releases, the
     fired-sibling terminal park, the park primitive itself). A hang the
     watchdog cannot name is a hang the §9 dump cannot debug.

  C. Death-contract registry: the table under
     `<!-- DEATH-CONTRACT-REGISTRY -->` in DESIGN.md §11 must be live —
     each row's abort anchor still present at its named check site, each
     named death test still present (with an EXPECT_DEATH/ASSERT_DEATH
     body) in its named test file. Deleting a runtime check or its death
     test without updating the table fails this lint.

Anti-vacuous like the other §11 lints: finding zero atomic members, zero
wait sites, or fewer than --min-contracts registry rows is a failure —
a scanner regression must not pass by seeing nothing.

Usage:
    check_contracts.py [files...] [--design DESIGN.md] [--min-contracts N]
"""

import argparse
import glob
import os
import re
import sys

import lint_common

# Markers attach to the nearest declaration / wait site at-or-below them,
# within this many lines (same window as check_atomics.py).
ATTACH_WINDOW = 6

SHARED_LINE_RE = re.compile(r"SHARED-LINE\(([^)]*)")
WD_PHASE_RE = re.compile(r"WD-PHASE\(([A-Za-z0-9_.-]+)\)")
WD_EXEMPT_RE = re.compile(r"WD-EXEMPT:\s*(\S.*)")

# A wait site is a call to the futex primitive or an atomic wait method.
FUTEX_CALL_RE = re.compile(r"\bfutex_wait\s*\(")
FUTEX_DEF_RE = re.compile(r"\bvoid\s+futex_wait\s*\(")
ATOMIC_WAIT_RE = re.compile(r"(?:\.|->)\s*wait\s*\(")

MIN_ATOMIC_MEMBERS = 5
MIN_WAIT_SITES = 3

REGISTRY_MARK = "<!-- DEATH-CONTRACT-REGISTRY -->"
DEATH_RE = re.compile(r"\b(?:EXPECT|ASSERT)_DEATH\b")


# ---------------------------------------------------------------------------
# Check A: atomic-member layout
# ---------------------------------------------------------------------------

_SCOPE_HEAD_RE = re.compile(r"\b(struct|class)\b")


def atomic_member_decls(sf):
    """(name, lineno, in_alignas_scope) for every std::atomic member of a
    struct/class in `sf`.

    Walks the comment-free code classifying each brace scope by the text
    between the previous ';'/'{'/'}' and the '{': a `struct`/`class` head
    opens a member scope (alignas-grouped when the head says so); anything
    else (function body, enum, lambda, initializer) opens a plain scope.
    Declarations whose innermost scope is not a struct/class — locals — and
    declarations inside parentheses — parameters, casts, static_asserts —
    are not members and are skipped."""
    code = sf.code
    decls = lint_common.declared_atomic_names(code)
    # scope stack entries: (is_member_scope, has_alignas)
    stack = []
    events = []  # (offset, 'push'|'pop', entry) in code order
    seg_start = 0
    paren_depth_at = {}
    depth = 0
    for i, c in enumerate(code):
        if c == "(":
            depth += 1
        elif c == ")":
            depth = max(0, depth - 1)
        elif c in ";}":
            seg_start = i + 1
        if c == "{":
            head = code[seg_start:i]
            m = _SCOPE_HEAD_RE.search(head)
            is_member = bool(m)
            has_alignas = is_member and "alignas" in head
            events.append((i, "push", (is_member, has_alignas)))
            seg_start = i + 1
        elif c == "}":
            events.append((i, "pop", None))
        paren_depth_at[i] = depth

    out = []
    ev = 0
    for name, pos, _end in decls:
        while ev < len(events) and events[ev][0] < pos:
            _, kind, entry = events[ev]
            if kind == "push":
                stack.append(entry)
            elif stack:
                stack.pop()
            ev += 1
        if paren_depth_at.get(pos, 0) > 0:
            continue  # parameter / cast / static_assert operand
        if not stack or not stack[-1][0]:
            continue  # local or namespace-scope — not a member
        out.append((name, sf.lineno(pos), stack[-1][1]))
    return out


def check_layout(sources, errors):
    total = 0
    for sf in sources:
        marker_lines = [ln for ln, text in enumerate(sf.comment_lines, 1)
                        if SHARED_LINE_RE.search(text)]
        covered = set()
        for name, lineno, aligned in atomic_member_decls(sf):
            total += 1
            if aligned:
                continue
            hit = [(ln, t) for ln, t in sf.comment_window(lineno, ATTACH_WINDOW)
                   if SHARED_LINE_RE.search(t)]
            if hit:
                covered.add(hit[0][0])
            else:
                errors.append(
                    f"{sf.path}:{lineno}: atomic member '{name}' is neither "
                    f"in an alignas-grouped struct nor tagged "
                    f"// SHARED-LINE(<why>) (§11 check A)")
        for ln in marker_lines:
            near = any(ln <= dl <= ln + ATTACH_WINDOW
                       for _, dl, _ in atomic_member_decls(sf))
            if not near:
                errors.append(
                    f"{sf.path}:{ln}: dangling SHARED-LINE marker — no "
                    f"atomic member declaration within {ATTACH_WINDOW} "
                    f"lines below it")
    if total < MIN_ATOMIC_MEMBERS:
        errors.append(
            f"check A found only {total} atomic member(s) across "
            f"{len(sources)} file(s) (< {MIN_ATOMIC_MEMBERS}) — scanner "
            f"or fileset regression, refusing to pass vacuously")
    return total


# ---------------------------------------------------------------------------
# Check B: wait-site phasing
# ---------------------------------------------------------------------------

def wait_sites(sf):
    """1-based line numbers of futex_wait calls and atomic .wait() calls."""
    out = []
    for ln, code in enumerate(sf.code_lines, 1):
        if FUTEX_DEF_RE.search(code):
            continue  # the primitive's own signature, not a call
        if FUTEX_CALL_RE.search(code) or ATOMIC_WAIT_RE.search(code):
            out.append(ln)
    return out

def check_waits(sources, errors):
    total = 0
    for sf in sources:
        sites = wait_sites(sf)
        total += len(sites)
        for lineno in sites:
            window = sf.comment_window(lineno, ATTACH_WINDOW)
            if any(WD_PHASE_RE.search(t) or WD_EXEMPT_RE.search(t)
                   for _, t in window):
                continue
            errors.append(
                f"{sf.path}:{lineno}: wait site without // WD-PHASE(<name>) "
                f"or // WD-EXEMPT: <why> within {ATTACH_WINDOW} lines "
                f"(§11 check B — the §9 watchdog must be able to name "
                f"every park)")
        for ln, text in enumerate(sf.comment_lines, 1):
            if WD_PHASE_RE.search(text) or WD_EXEMPT_RE.search(text):
                if not any(ln <= s <= ln + ATTACH_WINDOW for s in sites):
                    errors.append(
                        f"{sf.path}:{ln}: dangling WD marker — no wait site "
                        f"within {ATTACH_WINDOW} lines below it")
    if total < MIN_WAIT_SITES:
        errors.append(
            f"check B found only {total} wait site(s) (< {MIN_WAIT_SITES}) "
            f"— scanner or fileset regression, refusing to pass vacuously")
    return total


# ---------------------------------------------------------------------------
# Check C: death-contract registry
# ---------------------------------------------------------------------------

_ROW_RE = re.compile(r"^\s*\|(.+)\|\s*$")
_TEST_CELL_RE = re.compile(r"(\S+\.cpp)\s+`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`")


def parse_registry(design_path):
    """Rows of the DEATH-CONTRACT-REGISTRY table as dicts, or None when the
    marker is absent."""
    with open(design_path, encoding="utf-8") as f:
        text = f.read()
    mark = text.find(REGISTRY_MARK)
    if mark < 0:
        return None
    rows = []
    for line in text[mark:].splitlines():
        m = _ROW_RE.match(line)
        if not m:
            if rows:
                break  # table ended
            continue
        cells = [c.strip() for c in m.group(1).split("|")]
        if len(cells) != 4 or cells[0] in ("contract", ""):
            continue
        if set(cells[0]) <= {"-", " "}:
            continue  # separator row
        rows.append({"contract": cells[0],
                     "site": cells[1],
                     "anchor": cells[2].strip("`"),
                     "test": cells[3]})
    return rows


def check_registry(design_path, root, min_rows, errors):
    rows = parse_registry(design_path)
    if rows is None:
        errors.append(f"{design_path}: no '{REGISTRY_MARK}' table "
                      f"(§11 check C)")
        return 0
    if len(rows) < min_rows:
        errors.append(
            f"{design_path}: death-contract registry has {len(rows)} row(s) "
            f"(< {min_rows}) — refusing to pass vacuously (§11 check C)")
    for row in rows:
        site = os.path.join(root, row["site"])
        tag = f"registry row '{row['contract']}'"
        try:
            with open(site, encoding="utf-8") as f:
                site_text = f.read()
        except OSError:
            errors.append(f"{design_path}: {tag}: check site "
                          f"{row['site']} does not exist")
            continue
        if row["anchor"] not in site_text:
            errors.append(
                f"{design_path}: {tag}: abort anchor '{row['anchor']}' no "
                f"longer appears in {row['site']} — the runtime check moved "
                f"or was deleted; update the §11 registry")
        m = _TEST_CELL_RE.search(row["test"])
        if not m:
            errors.append(f"{design_path}: {tag}: death-test cell "
                          f"'{row['test']}' is not 'path.cpp `Suite.Name`'")
            continue
        test_path, suite, name = m.groups()
        full = os.path.join(root, test_path)
        try:
            with open(full, encoding="utf-8") as f:
                test_text = f.read()
        except OSError:
            errors.append(f"{design_path}: {tag}: test file {test_path} "
                          f"does not exist")
            continue
        tm = re.search(r"TEST(?:_F)?\(\s*%s\s*,\s*%s\s*\)"
                       % (re.escape(suite), re.escape(name)), test_text)
        if not tm:
            errors.append(
                f"{design_path}: {tag}: TEST({suite}, {name}) not found in "
                f"{test_path} — the death test was renamed or deleted; "
                f"update the §11 registry")
            continue
        nxt = test_text.find("\nTEST", tm.end())
        body = test_text[tm.end():nxt if nxt > 0 else len(test_text)]
        if not DEATH_RE.search(body):
            errors.append(
                f"{design_path}: {tag}: TEST({suite}, {name}) has no "
                f"EXPECT_DEATH/ASSERT_DEATH in its body — it no longer "
                f"pins the abort")
    return len(rows)


# ---------------------------------------------------------------------------


def default_files(root):
    pats = [os.path.join(root, "src", "sim", "*.hpp"),
            os.path.join(root, "src", "sim", "*.cpp")]
    out = []
    for p in pats:
        out.extend(sorted(glob.glob(p)))
    return out


def main(argv=None):
    root = lint_common.repo_root()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*",
                    help="sources to audit (default: src/sim/*.{hpp,cpp})")
    ap.add_argument("--root", default=root,
                    help="repo root registry paths resolve against")
    ap.add_argument("--design",
                    default=None,
                    help="DESIGN.md holding the death-contract registry "
                         "(default: <root>/DESIGN.md; 'skip' disables "
                         "check C)")
    ap.add_argument("--min-contracts", type=int, default=6)
    args = ap.parse_args(argv)

    files = args.files or default_files(args.root)
    if not files:
        sys.exit("error: no input files — refusing to pass vacuously")
    sources = [lint_common.SourceFile(p) for p in files]

    errors = []
    n_members = check_layout(sources, errors)
    n_waits = check_waits(sources, errors)
    design = args.design or os.path.join(args.root, "DESIGN.md")
    n_rows = 0
    if design != "skip":
        n_rows = check_registry(design, args.root, args.min_contracts,
                                errors)

    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        sys.exit(f"check_contracts: {len(errors)} violation(s)")
    print(f"check_contracts: {n_members} atomic member(s) layout-tagged, "
          f"{n_waits} wait site(s) phased, {n_rows} death contract(s) "
          f"live across {len(sources)} file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
