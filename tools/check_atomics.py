#!/usr/bin/env python3
"""Audit the engine's atomics for explicit ordering and PAIR discipline.

The lock-free surface of the sharded engine — the executor's dispatch
generation and barrier, its task-0 and watchdog handshakes (DESIGN.md §7–§9)
— depends on release/acquire pairings that prose documents and TSan only samples.
This lint makes them machine-checked (DESIGN.md §11):

  1. Every std::atomic load/store/RMW/wait in the audited files must name
     an explicit std::memory_order. An op that relies on the defaulted
     seq_cst must carry a `// SC-INTENT: <why>` marker instead — the
     default is allowed only when someone wrote down why.
  2. Every RELEASE-side operation (store/RMW with release, acq_rel, or
     seq_cst ordering) must carry a `// PAIR(<name>)` tag, and the group
     <name> must also contain at least one ACQUIRE-side tagged site
     (load/RMW/wait with acquire, consume, acq_rel, or seq_cst) — an
     acq_rel/seq_cst RMW chain satisfies both sides of its own group.
     The tagged groups form the pairing registry emitted as
     docs/ATOMICS_MAP.md.
  3. Assignments / increments on known atomic names outside declarations
     (`flag_ = 1`, `ctr_++`) are rejected outright: they are implicit
     seq_cst ops the textual scanner cannot classify — use the named
     methods.
  4. Anti-vacuous (the VEC-GUARD precedent): finding zero atomic
     operations, or fewer than --min-groups PAIR groups, is a failure —
     a path typo must not produce a green run.

Marker grammar (§11): markers live in comments on the op's line or up to
ATTACH_WINDOW lines above it; a marker that attaches to no operation is an
error (stale annotations must not linger). `// PAIR(<name>): <role note>`
and `// SC-INTENT: <why>` may share a line with each other.

Engine: uses libclang for the token stream when the python bindings are
importable (exact comment/op positions from the real lexer), else falls
back to the textual scanner in lint_common.py — same grammar, same rules.
The fallback is the one CI exercises; libclang is an accuracy upgrade, not
a behavior change.

Usage:
    check_atomics.py [files...] [--min-groups N]
                     [--write-map PATH | --check-map PATH]
"""

import argparse
import glob
import os
import re
import sys

import lint_common

ATTACH_WINDOW = 6

PAIR_RE = re.compile(r"PAIR\(([A-Za-z0-9_.-]+)\)")
SC_INTENT_RE = re.compile(r"SC-INTENT:\s*(\S.*)")

# Method name -> op kind. `notify_one`/`notify_all` take no order and are
# pure wake calls, deliberately absent. `wait` is a read (its reload uses
# the given order).
OP_KINDS = {
    "load": "load",
    "store": "store",
    "exchange": "rmw",
    "fetch_add": "rmw",
    "fetch_sub": "rmw",
    "fetch_and": "rmw",
    "fetch_or": "rmw",
    "fetch_xor": "rmw",
    "compare_exchange_strong": "rmw",
    "compare_exchange_weak": "rmw",
    "test_and_set": "rmw",
    "clear": "store",
    "wait": "load",
}
OP_RE = re.compile(r"(?:\.|->)\s*(" + "|".join(OP_KINDS) + r")\s*\(")

ORDER_RE = re.compile(r"memory_order(?:::|_)"
                      r"(relaxed|consume|acquire|release|acq_rel|seq_cst)")

RELEASE_ORDERS = {"release", "acq_rel", "seq_cst"}
ACQUIRE_ORDERS = {"acquire", "consume", "acq_rel", "seq_cst"}

# Implicit-op detectors on known atomic names (rule 3). The declaration
# itself (brace/equals init at declaration site) is excluded by checking
# the preceding token is not a type closer.
ASSIGN_RE = re.compile(r"(?<![=!<>+\-*/%&|^])=(?!=)")


class Site:
    """One atomic operation site."""

    def __init__(self, path, lineno, member, op, order, is_fence=False):
        self.path = path
        self.lineno = lineno
        self.member = member
        self.op = op
        self.order = order          # order token or None (defaulted seq_cst)
        self.is_fence = is_fence
        self.pair = None            # PAIR group name
        self.sc_intent = None       # SC-INTENT justification text
        self.pair_note = ""

    @property
    def releases(self):
        if self.order is None:
            return False
        if self.op == "load":
            return False
        return self.order in RELEASE_ORDERS

    @property
    def acquires(self):
        if self.order is None:
            return False
        if self.op == "store":
            return False
        return self.order in ACQUIRE_ORDERS

    def where(self):
        return f"{self.path}:{self.lineno}"


def top_level_orders(args):
    """memory_order tokens at the TOP level of an argument list — orders
    inside nested calls (`x.store(y.load(relaxed) + 1, release)`) belong to
    the nested op, so parenthesized sub-spans are stripped first."""
    out = []
    depth = 0
    start = 0
    stripped = []
    for i, c in enumerate(args):
        if c == "(":
            if depth == 0:
                stripped.append(args[start:i])
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                start = i + 1
    if depth == 0:
        stripped.append(args[start:])
    out = ORDER_RE.findall(" ".join(stripped))
    return out


def load_source(path):
    """SourceFile for `path`, preferring libclang's lexer for the
    code/comment split when the python bindings are importable (exact
    comment extents from the real lexer); any failure — no bindings, no
    libclang.so, a parse crash — falls back to the textual scanner, which
    implements the same split."""
    try:
        import clang.cindex as ci
        with open(path, "rb") as f:
            raw = f.read()
        tu = ci.Index.create().parse(
            path, args=["-std=c++20"], unsaved_files=[(path, raw)])
        # Blank each comment token's bytes out of a code copy and into a
        # comment copy (newlines kept in both so line numbers line up);
        # byte offsets sidestep the multibyte em dashes in the comments.
        code = bytearray(raw)
        comment = bytearray(b" " * len(raw))
        for i, b in enumerate(raw):
            if b == 0x0A:
                comment[i] = b
        saw_comment = False
        for tok in tu.cursor.get_tokens():
            if tok.kind is not ci.TokenKind.COMMENT:
                continue
            saw_comment = True
            for i in range(tok.extent.start.offset, tok.extent.end.offset):
                if raw[i] != 0x0A:
                    comment[i] = raw[i]
                    code[i] = 0x20
        if not saw_comment and b"//" in raw:
            raise RuntimeError("lexer returned no comment tokens")
        return lint_common.SourceFile.from_split(
            path,
            code.decode("utf-8", errors="replace").split("\n"),
            comment.decode("utf-8", errors="replace").split("\n"))
    except Exception:  # noqa: BLE001 — fallback is the contract
        return lint_common.SourceFile(path)


def scan_file(path, errors, shared_atomic_names, src=None):
    """All atomic op sites + attached markers for one file.

    `shared_atomic_names` is the fileset-wide set of declared atomic names:
    ops in a .cpp act on members declared in its header, so the name
    registry must span the whole audited set, not one file."""
    if src is None:
        src = lint_common.SourceFile(path)
    decls = lint_common.declared_atomic_names(src.code)
    atomic_names = set(shared_atomic_names)
    decl_linenos = {src.lineno(pos) for _, pos, _ in decls}
    # Alias tracking: `auto& x = <atomic_member>[...]` makes x atomic too.
    for m in re.finditer(r"auto&\s+(\w+)\s*=\s*(\w+)\s*\[", src.code):
        if m.group(2) in atomic_names:
            atomic_names.add(m.group(1))

    sites = []
    for m in OP_RE.finditer(src.code):
        method = m.group(1)
        member = lint_common.rscan_object_expr(src.code, m.start())
        if member not in atomic_names:
            continue  # .load()/.store() on some non-atomic type
        open_pos = src.code.index("(", m.end() - 1)
        end = lint_common.balanced_span(src.code, open_pos)
        if end < 0:
            errors.append(f"{path}:{src.lineno(m.start())}: unbalanced call "
                          f"arguments for {member}.{method}()")
            continue
        args = src.code[open_pos + 1:end - 1]
        orders = top_level_orders(args)
        # compare_exchange: the SUCCESS order (first) is the op's strength.
        order = orders[0] if orders else None
        sites.append(Site(path, src.lineno(m.start(1)), member, method,
                          order))

    # Fences: always ordered explicitly or they are defaulted-seq_cst ops.
    for m in re.finditer(r"\batomic_thread_fence\s*\(", src.code):
        open_pos = src.code.index("(", m.end() - 1)
        end = lint_common.balanced_span(src.code, open_pos)
        args = src.code[open_pos + 1:end - 1] if end > 0 else ""
        orders = ORDER_RE.findall(args)
        sites.append(Site(path, src.lineno(m.start()), "<fence>", "fence",
                          orders[0] if orders else None, is_fence=True))

    # Rule 3: implicit ops on known atomic names. Only flag statement-ish
    # contexts: an identifier token followed by =, ++, --, or op=.
    for m in re.finditer(r"\b(\w+)\s*(\+\+|--|[+\-|&^]=)", src.code):
        if m.group(1) in atomic_names:
            errors.append(
                f"{path}:{src.lineno(m.start())}: implicit atomic RMW "
                f"'{m.group(0).strip()}' on '{m.group(1)}' — use the named "
                "method with an explicit memory_order (§11)")
    for m in re.finditer(r"\b(\w+)\s*=[^=]", src.code):
        name = m.group(1)
        if name not in atomic_names:
            continue
        lineno = src.lineno(m.start())
        if lineno in decl_linenos:
            continue  # declaration initializer
        # `int x = atomic_name...` reads; only flag when the atomic is the
        # TARGET: preceding non-space char must be a statement boundary.
        before = src.code[:m.start()].rstrip()
        if before.endswith((";", "{", "}", ")")) or before == "":
            errors.append(
                f"{path}:{lineno}: implicit seq_cst store '{name} = ...' — "
                "use .store(v, std::memory_order_*) (§11)")

    # Marker attachment: nearest op at or below the marker line, within the
    # window. Markers that attach nowhere are stale -> error.
    by_line = sorted(sites, key=lambda s: s.lineno)
    for lineno, comment in enumerate(src.comment_lines, start=1):
        for regex, attr in ((PAIR_RE, "pair"), (SC_INTENT_RE, "sc_intent")):
            cm = regex.search(comment)
            if not cm:
                continue
            target = None
            for s in by_line:
                if lineno <= s.lineno <= lineno + ATTACH_WINDOW:
                    target = s
                    break
            if target is None:
                errors.append(
                    f"{path}:{lineno}: {attr.upper().replace('_', '-')} "
                    f"marker attaches to no atomic operation within "
                    f"{ATTACH_WINDOW} lines (stale annotation?)")
                continue
            if getattr(target, attr) is not None:
                errors.append(
                    f"{path}:{lineno}: duplicate {attr} marker for the "
                    f"operation at line {target.lineno}")
                continue
            setattr(target, attr, cm.group(1).strip())
            if attr == "pair":
                note = comment[cm.end():].lstrip(": ").strip()
                target.pair_note = note
    return sites


def audit(sites, errors):
    """Rules 1 and 2 over the collected sites; returns the group registry."""
    groups = {}
    for s in sites:
        if s.order is None:
            if s.sc_intent is None:
                errors.append(
                    f"{s.where()}: {s.member}.{s.op}() relies on the "
                    "defaulted seq_cst order — name the order explicitly or "
                    "justify the default with '// SC-INTENT: <why>' (§11)")
            # An SC-INTENT'd default is seq_cst for pairing purposes.
            continue
        if s.releases and s.pair is None and not s.is_fence:
            errors.append(
                f"{s.where()}: release-side {s.op}({s.order}) on "
                f"'{s.member}' has no '// PAIR(<name>)' tag — every publish "
                "needs a named acquire partner (§11)")
        if s.pair is not None:
            groups.setdefault(s.pair, []).append(s)

    for name, members in sorted(groups.items()):
        has_release = any(s.releases for s in members)
        has_acquire = any(s.acquires for s in members)
        if not has_release:
            errors.append(
                f"PAIR({name}): no release-side site is tagged "
                f"({', '.join(s.where() for s in members)})")
        if not has_acquire:
            errors.append(
                f"PAIR({name}): no acquire/consume-side site is tagged — a "
                "publish nobody is proven to subscribe to "
                f"({', '.join(s.where() for s in members)})")
    return groups


def render_map(groups, sites, files, root):
    """The docs/ATOMICS_MAP.md registry text."""
    def rel(p):
        return os.path.relpath(p, root).replace(os.sep, "/")

    out = []
    out.append("# Atomics pairing registry")
    out.append("")
    out.append("<!-- GENERATED by tools/check_atomics.py --write-map; do not "
               "edit by hand. CI checks this file is current (--check-map). "
               "-->")
    out.append("")
    out.append("Machine-checked publish/subscribe pairing map of every "
               "`std::atomic` operation")
    out.append("in the audited files (DESIGN.md §11). A **rel** row "
               "publishes (store/RMW with")
    out.append("release, acq_rel, or seq_cst order); an **acq** row "
               "subscribes (load/RMW/wait")
    out.append("with acquire, consume, acq_rel, or seq_cst). An acq_rel or "
               "seq_cst RMW is both")
    out.append("sides at once (**r+a**) — the RMW-chain case.")
    out.append("")
    out.append("Audited files: " + ", ".join(f"`{rel(f)}`" for f in files))
    out.append("")
    out.append("## PAIR groups")
    for name in sorted(groups):
        members = sorted(groups[name], key=lambda s: (s.path, s.lineno))
        out.append("")
        out.append(f"### `{name}`")
        out.append("")
        out.append("| side | site | operation | order | note |")
        out.append("|---|---|---|---|---|")
        for s in members:
            side = ("r+a" if s.releases and s.acquires else
                    "rel" if s.releases else
                    "acq" if s.acquires else "—")
            note = s.pair_note if s.pair_note else ""
            out.append(f"| {side} | {rel(s.path)}:{s.lineno} | "
                       f"`{s.member}.{s.op}` | {s.order} | {note} |")
    sc = [s for s in sites if s.sc_intent is not None]
    out.append("")
    out.append("## SC-INTENT sites (justified defaulted seq_cst)")
    out.append("")
    if sc:
        out.append("| site | operation | why |")
        out.append("|---|---|---|")
        for s in sorted(sc, key=lambda s: (s.path, s.lineno)):
            out.append(f"| {rel(s.path)}:{s.lineno} | `{s.member}.{s.op}` | "
                       f"{s.sc_intent} |")
    else:
        out.append("None — every operation names its order explicitly.")
    relaxed = sum(1 for s in sites if s.order == "relaxed")
    out.append("")
    out.append(f"Coverage: {len(sites)} atomic operations audited, "
               f"{len(groups)} PAIR groups, {relaxed} relaxed "
               "(unpaired-by-design) operations.")
    out.append("")
    return "\n".join(out)


def default_files(root):
    pats = [os.path.join(root, "src", "sim", "*.hpp"),
            os.path.join(root, "src", "sim", "*.cpp")]
    files = []
    for p in pats:
        files.extend(sorted(glob.glob(p)))
    return files


def main(argv=None):
    root = lint_common.repo_root()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*",
                    help="files to audit (default: src/sim/*.{hpp,cpp})")
    ap.add_argument("--min-groups", type=int, default=4,
                    help="minimum PAIR groups (anti-vacuous floor)")
    ap.add_argument("--write-map", metavar="PATH",
                    help="emit the pairing registry markdown to PATH")
    ap.add_argument("--check-map", metavar="PATH",
                    help="fail unless PATH matches the regenerated registry")
    ap.add_argument("--root", default=root,
                    help="repo root for relative paths in the registry")
    args = ap.parse_args(argv)

    files = args.files or default_files(args.root)
    if not files:
        sys.exit("error: no files to audit (path typo?) — refusing a "
                 "vacuous pass")
    missing = [f for f in files if not os.path.isfile(f)]
    if missing:
        sys.exit(f"error: no such file(s): {', '.join(missing)} — refusing "
                 "a vacuous pass")

    errors = []
    sites = []
    sources = {path: load_source(path) for path in files}
    shared_names = set()
    for src in sources.values():
        shared_names.update(
            name for name, _, _ in
            lint_common.declared_atomic_names(src.code))
    for path in files:
        sites.extend(scan_file(path, errors, shared_names, sources[path]))

    # Anti-vacuous only when the scan ALSO found nothing wrong: implicit-op
    # errors are evidence the scanner did see atomics, and must be reported
    # rather than masked by the zero-sites exit.
    if not sites and not errors:
        sys.exit(f"error: zero atomic operations found across "
                 f"{len(files)} file(s) — the audit would vacuously pass; "
                 "fix the file list or this script")

    groups = audit(sites, errors)

    if len(groups) < args.min_groups:
        errors.append(
            f"only {len(groups)} PAIR group(s) tagged, expected at least "
            f"{args.min_groups} — the pairing registry is the point of this "
            "lint (anti-vacuous floor; adjust --min-groups only with the "
            "map)")

    if errors:
        for e in errors:
            print(f"check_atomics: {e}", file=sys.stderr)
        sys.exit(f"error: {len(errors)} atomics-contract violation(s)")

    text = render_map(groups, sites, files, args.root)
    if args.write_map:
        with open(args.write_map, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"check_atomics: wrote {args.write_map}")
    if args.check_map:
        try:
            with open(args.check_map, encoding="utf-8") as f:
                committed = f.read()
        except OSError:
            committed = None
        if committed != text:
            sys.exit(f"error: {args.check_map} is stale — regenerate with "
                     f"tools/check_atomics.py --write-map {args.check_map}")
    print(f"check_atomics: {len(sites)} atomic op(s) across {len(files)} "
          f"file(s): all explicitly ordered; {len(groups)} PAIR group(s) "
          "complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
