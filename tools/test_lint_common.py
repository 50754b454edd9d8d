#!/usr/bin/env python3
"""Unit tests for lint_common.py — the textual C++ scanners every §11 lint
builds on, plus the check_vectorization.py skip path that rides on
compiler_kind()."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_vectorization
import lint_common


class SplitCodeComments(unittest.TestCase):
    def test_line_comment_split(self):
        split = lint_common.split_code_comments("x = 1;  // PAIR(a)\ny = 2;")
        self.assertEqual(split[0], ("x = 1;  ", " PAIR(a)"))
        self.assertEqual(split[1], ("y = 2;", ""))

    def test_block_comment_spans_lines(self):
        split = lint_common.split_code_comments(
            "a; /* start\n middle\n end */ b;")
        self.assertEqual(split[0][0], "a; ")
        self.assertIn("start", split[0][1])
        self.assertEqual(split[1][0], "")
        self.assertIn("middle", split[1][1])
        self.assertEqual(split[2][0].strip(), "b;")

    def test_comment_openers_inside_strings_ignored(self):
        split = lint_common.split_code_comments(
            'printf("// not a comment /* either");')
        self.assertIn("// not a comment", split[0][0])
        self.assertEqual(split[0][1], "")

    def test_escaped_quote_in_string(self):
        split = lint_common.split_code_comments(
            'f("quote \\" then"); // real comment')
        self.assertEqual(split[0][1], " real comment")


class SourceFileTest(unittest.TestCase):
    def make(self, text):
        return lint_common.SourceFile("<mem>", text=text)

    def test_lineno_roundtrip(self):
        sf = self.make("aa;\nbb;\ncc;\n")
        self.assertEqual(sf.lineno(sf.code.index("bb")), 2)
        self.assertEqual(sf.lineno(sf.code.index("cc")), 3)

    def test_lineno_unchanged_by_comments(self):
        sf = self.make("aa;\n// only a comment\ncc;\n")
        self.assertEqual(sf.lineno(sf.code.index("cc")), 3)

    def test_comment_window_nearest_first(self):
        sf = self.make("// far\n// near\nx.load();\n")
        window = sf.comment_window(3, 6)
        self.assertEqual([ln for ln, _ in window], [2, 1])

    def test_from_split_matches_textual(self):
        text = "int x;  // note\n/* block */ int y;\n"
        a = self.make(text)
        b = lint_common.SourceFile.from_split(
            "<mem>", a.code_lines, a.comment_lines)
        self.assertEqual(a.code, b.code)
        self.assertEqual(a.comment_lines, b.comment_lines)
        self.assertEqual(a.lineno(a.code.index("y")),
                         b.lineno(b.code.index("y")))


class RscanObjectExpr(unittest.TestCase):
    def scan(self, code):
        return lint_common.rscan_object_expr(code, code.rindex("."))

    def test_plain_member(self):
        self.assertEqual(self.scan("generation_.load"), "generation_")

    def test_indexed_member_with_call_inside(self):
        self.assertEqual(self.scan("ready_state_[f(x, g(y))].load"),
                         "ready_state_")

    def test_arrow_chain_returns_innermost(self):
        code = "hdr_->pub_seq.load"
        self.assertEqual(
            lint_common.rscan_object_expr(code, code.rindex(".")), "pub_seq")

    def test_nested_struct_member(self):
        self.assertEqual(self.scan("threads_state_[t].ticks.load"), "ticks")


class DeclaredAtomicNames(unittest.TestCase):
    def names(self, code):
        return [n for n, _, _ in lint_common.declared_atomic_names(code)]

    def test_plain_and_templated(self):
        code = ("std::atomic<int> x_{0};\n"
                "std::atomic<std::uint64_t> y_{0};\n")
        self.assertEqual(self.names(code), ["x_", "y_"])

    def test_vector_of_atomic(self):
        self.assertEqual(self.names("std::vector<std::atomic<int>> v_;"),
                         ["v_"])

    def test_is_always_lock_free_not_a_decl(self):
        self.assertEqual(
            self.names("static_assert(std::atomic<int>::is_always_lock_free);"),
            [])

    def test_pointer_and_reference_params(self):
        self.assertEqual(
            self.names("void f(const std::atomic<int>* a, "
                       "std::atomic<int>& b);"),
            ["a", "b"])


class BalancedSpan(unittest.TestCase):
    def test_nested(self):
        code = "f(g(h(1)), 2) tail"
        end = lint_common.balanced_span(code, code.index("("))
        self.assertEqual(code[:end], "f(g(h(1)), 2)")

    def test_unbalanced_returns_minus_one(self):
        self.assertEqual(lint_common.balanced_span("f(g(", 1), -1)


class CompilerKind(unittest.TestCase):
    def test_missing_compiler_is_none(self):
        self.assertIsNone(
            lint_common.compiler_kind("/nonexistent/definitely-not-a-cxx"))

    def test_python_is_not_a_compiler(self):
        self.assertIsNone(lint_common.compiler_kind(sys.executable))


class VecGuardSkipPath(unittest.TestCase):
    """check_vectorization must skip-with-warning (exit 0) when no GCC or
    Clang is available, and hard-fail the same situation under --strict."""

    def setUp(self):
        self.tmp = tempfile.NamedTemporaryFile(
            mode="w", suffix=".cpp", delete=False)
        self.tmp.write("// VEC-GUARD: dummy\n"
                       "void f(int* a) { for (int i = 0; i < 8; ++i) "
                       "a[i] += 1; }\n")
        self.tmp.close()

    def tearDown(self):
        os.unlink(self.tmp.name)

    def test_missing_compiler_skips_with_warning(self):
        rc = check_vectorization.main(
            ["--compiler", "/nonexistent/cxx", "--source", self.tmp.name])
        self.assertEqual(rc, 0)

    def test_strict_turns_skip_into_failure(self):
        with self.assertRaises(SystemExit) as ctx:
            check_vectorization.main(
                ["--compiler", "/nonexistent/cxx", "--source", self.tmp.name,
                 "--strict"])
        self.assertIn("--strict", str(ctx.exception))

    def test_no_markers_is_an_error_even_when_skipping(self):
        bare = tempfile.NamedTemporaryFile(
            mode="w", suffix=".cpp", delete=False)
        bare.write("void f() {}\n")
        bare.close()
        try:
            with self.assertRaises(SystemExit) as ctx:
                check_vectorization.main(
                    ["--compiler", "/nonexistent/cxx", "--source", bare.name])
            self.assertIn("VEC-GUARD", str(ctx.exception))
        finally:
            os.unlink(bare.name)


if __name__ == "__main__":
    unittest.main()
