#!/usr/bin/env python3
"""Fixture-based self-tests for tools/lint/invariant_lint.py.

The gate must be provably non-vacuous: every seeded violation in
fixtures/bad/ must be flagged (per check, per construct), and the clean
idioms in fixtures/good/ — including the waiver syntax and the
mutex-based SnapshotHandle look-alike — must pass silently. Run by
ctest as lint.selftest.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import invariant_lint as lint  # noqa: E402

FIXTURES = HERE / "fixtures"
BAD = FIXTURES / "bad" / "src"
GOOD = FIXTURES / "good" / "src"


def run_dir(root: Path) -> list[tuple]:
    findings = []
    for ext in ("*.hpp", "*.h", "*.cpp"):
        for path in sorted(root.rglob(ext)):
            findings += lint.lint_file(path, root)
    return findings


import re


def expected_lines(path: Path) -> list[int]:
    """1-based line numbers tagged `// EXPECT <check>` in a fixture."""
    tag = re.compile(r"//\s*EXPECT\s+(?:atomic-order|hot-alloc|fp-contract"
                     r"|seqlock-discipline|stale-waiver|seq-wake"
                     r"|aligned-storage|pad-policy)")
    return [i for i, raw in enumerate(path.read_text().splitlines(), 1)
            if tag.search(raw)]


class TestMasking(unittest.TestCase):
    def test_masks_comments_and_strings_preserving_offsets(self):
        text = 'a.load(); // seq.store()\nconst char* s = "fetch_add(";\n'
        masked, comments = lint.mask_comments_and_strings(text)
        self.assertEqual(len(masked), len(text))
        self.assertNotIn("seq.store", masked)
        self.assertNotIn("fetch_add", masked)
        self.assertIn("a.load()", masked)
        self.assertIn("seq.store()", comments[1])

    def test_raw_string_masked(self):
        text = 'auto s = R"(x.store(); new int;)"; b.resize(1);\n'
        masked, _ = lint.mask_comments_and_strings(text)
        self.assertNotIn("new int", masked)
        self.assertIn("b.resize(1)", masked)

    def test_multiline_comment_line_numbers(self):
        text = "/* one\ntwo */\nseq.load();\n"
        masked, comments = lint.mask_comments_and_strings(text)
        self.assertEqual(lint.line_of(masked, masked.index("seq")), 3)
        self.assertIn("one", comments[1])
        self.assertIn("two", comments[2])


class TestAtomicOrder(unittest.TestCase):
    FIXTURE = BAD / "serve" / "bad_atomic.hpp"

    def findings(self):
        return [f for f in run_dir(BAD) if f[2] == "atomic-order"]

    def test_every_seeded_violation_is_flagged(self):
        flagged = {f[1] for f in self.findings()
                   if f[0].endswith("bad_atomic.hpp")}
        self.assertEqual(flagged, set(expected_lines(self.FIXTURE)))

    def test_cas_demands_both_orders(self):
        msgs = [f[3] for f in self.findings()]
        self.assertTrue(any("success AND failure" in m for m in msgs))

    def test_clean_idioms_pass(self):
        clean = [f for f in run_dir(GOOD) if f[2] == "atomic-order"]
        self.assertEqual(clean, [])

    def test_scope_is_serve_only(self):
        # The same defaulted ops outside serve/ are out of scope.
        self.assertFalse(lint.in_serve_scope("nn/panel.cpp"))
        self.assertTrue(lint.in_serve_scope("serve/mailbox.hpp"))


class TestHotAlloc(unittest.TestCase):
    FIXTURE = BAD / "serve" / "bad_hot.cpp"

    def findings(self):
        return [f for f in run_dir(BAD) if f[2] == "hot-alloc"]

    def test_every_seeded_violation_is_flagged(self):
        flagged = {f[1] for f in self.findings()
                   if f[0].endswith("bad_hot.cpp")}
        self.assertEqual(flagged, set(expected_lines(self.FIXTURE)))

    def test_each_construct_kind_fires(self):
        msgs = " ".join(f[3] for f in self.findings())
        for construct in ("push_back", "resize", "'new'", "make_unique",
                          "string", "to_string", "vector"):
            self.assertIn(construct, msgs)

    def test_bare_and_mismatched_waivers_do_not_waive(self):
        text = self.FIXTURE.read_text()
        lines = text.splitlines()
        flagged = {f[1] for f in self.findings()
                   if f[0].endswith("bad_hot.cpp")}
        for marker in ("tick_bare_waiver", "tick_wrong_waiver"):
            start = next(i for i, l in enumerate(lines, 1) if marker in l)
            self.assertTrue(any(start < ln <= start + 3 for ln in flagged),
                            f"waiver in {marker} wrongly accepted")

    def test_waived_and_cold_code_passes(self):
        clean = [f for f in run_dir(GOOD) if f[2] == "hot-alloc"]
        self.assertEqual(clean, [])


class TestStaleWaiver(unittest.TestCase):
    FIXTURE = BAD / "serve" / "bad_stale_waiver.cpp"

    def findings(self):
        return [f for f in run_dir(BAD) if f[2] == "stale-waiver"]

    def test_every_seeded_violation_is_flagged(self):
        flagged = {f[1] for f in self.findings()
                   if f[0].endswith("bad_stale_waiver.cpp")}
        self.assertEqual(flagged, set(expected_lines(self.FIXTURE)))

    def test_both_kinds_fire(self):
        msgs = " ".join(f[3] for f in self.findings())
        self.assertIn("outside any SOCPINN_HOT function", msgs)
        self.assertIn("which has no 'resize'", msgs)

    def test_placed_waivers_and_doc_comments_pass(self):
        clean = [f for f in run_dir(GOOD) if f[2] == "stale-waiver"]
        self.assertEqual(clean, [])


class TestSeqlockDiscipline(unittest.TestCase):
    FIXTURE = BAD / "serve" / "bad_seqlock.hpp"

    def findings(self):
        return [f for f in run_dir(BAD) if f[2] == "seqlock-discipline"]

    def test_every_seeded_violation_is_flagged(self):
        flagged = {f[1] for f in self.findings()
                   if f[0].endswith("bad_seqlock.hpp")}
        self.assertEqual(flagged, set(expected_lines(self.FIXTURE)))

    def test_each_protocol_break_kind_fires(self):
        msgs = " ".join(f[3] for f in self.findings())
        self.assertIn("odd seqlock bump", msgs)          # (a)
        self.assertIn("even seqlock store", msgs)        # (b)
        self.assertIn("single-writer", msgs)             # (c)
        self.assertIn("blocking construct", msgs)        # (d)

    def test_clean_protocol_and_declared_writers_pass(self):
        clean = [f for f in run_dir(GOOD) if f[2] == "seqlock-discipline"]
        self.assertEqual(clean, [])

    def test_scope_is_serve_only(self):
        # The same torn-writer shape outside serve/ is out of scope (only
        # the serve layer speaks the seqlock protocol).
        text = ("struct S { void publish_torn() {\n"
                "  seq.store(s + 1, std::memory_order_relaxed);\n"
                "} };\n")
        masked, comments = lint.mask_comments_and_strings(text)
        self.assertTrue(
            lint.check_seqlock_discipline("serve/x.hpp", text, masked,
                                          comments))
        self.assertFalse(lint.in_serve_scope("nn/x.hpp"))

    def test_function_spans_resolve_the_innermost_definition(self):
        text = ("void outer() {\n"
                "  if (x) { helper(1); }\n"
                "}\n"
                "void publish_all() { slot.publish(1.0); }\n")
        masked, _ = lint.mask_comments_and_strings(text)
        spans = lint.function_spans(masked)
        names = {s[0] for s in spans}
        self.assertIn("outer", names)
        self.assertIn("publish_all", names)
        self.assertNotIn("if", names)
        self.assertNotIn("helper", names)  # a call, not a definition
        pos = masked.index(".publish(")
        self.assertEqual(lint.enclosing_function(spans, pos)[0],
                         "publish_all")


class TestSeqWake(unittest.TestCase):
    FIXTURE = BAD / "serve" / "bad_seq_wake.cpp"

    def findings(self):
        return [f for f in run_dir(BAD) if f[2] == "seq-wake"]

    def test_every_seeded_violation_is_flagged(self):
        flagged = {f[1] for f in self.findings()
                   if f[0].endswith("bad_seq_wake.cpp")}
        self.assertEqual(flagged, set(expected_lines(self.FIXTURE)))

    def test_both_counters_fire(self):
        msgs = " ".join(f[3] for f in self.findings())
        self.assertIn("store to cmd_seq", msgs)
        self.assertIn("store to ack_seq", msgs)

    def test_woken_stores_and_other_fields_pass(self):
        clean = [f for f in run_dir(GOOD) if f[2] == "seq-wake"]
        self.assertEqual(clean, [])

    def test_scope_is_serve_only(self):
        text = ("void post(H& h) {\n"
                "  std::atomic_ref<std::uint64_t>(h.cmd_seq)\n"
                "      .store(1, std::memory_order_release);\n"
                "}\n")
        masked, _ = lint.mask_comments_and_strings(text)
        self.assertTrue(lint.check_seq_wake("serve/x.cpp", text, masked))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "core" / "x.cpp"
            path.parent.mkdir()
            path.write_text(text)
            self.assertEqual(lint.lint_file(path, Path(tmp)), [])


class TestAlignedStorage(unittest.TestCase):
    FIXTURE = BAD / "nn" / "bad_aligned_storage.hpp"

    def findings(self):
        return [f for f in run_dir(BAD) if f[2] == "aligned-storage"]

    def test_every_seeded_violation_is_flagged(self):
        flagged = {f[1] for f in self.findings()
                   if f[0].endswith("bad_aligned_storage.hpp")}
        self.assertEqual(flagged, set(expected_lines(self.FIXTURE)))

    def test_both_names_fire(self):
        msgs = " ".join(f[3] for f in self.findings())
        self.assertIn("AlignedVector", msgs)
        self.assertIn("AlignedAllocator", msgs)

    def test_owners_and_mentions_pass(self):
        clean = [f for f in run_dir(GOOD) if f[2] == "aligned-storage"]
        self.assertEqual(clean, [])
        # Non-vacuous: the owner fixtures do name the storage in code.
        self.assertIn("AlignedVector<T> data_;",
                      (GOOD / "nn" / "matrix.hpp").read_text())

    def test_owner_is_matched_by_directory_and_name(self):
        text = "nn::AlignedVector<double> v;\n"
        masked, _ = lint.mask_comments_and_strings(text)
        for owner in ("nn/aligned.hpp", "nn/matrix.hpp"):
            self.assertEqual(
                lint.check_aligned_storage(owner, text, masked), [])
        for other in ("nn/panel.hpp", "serve/matrix.hpp", "core/x.cpp"):
            self.assertTrue(
                lint.check_aligned_storage(other, text, masked), other)


class TestPadPolicy(unittest.TestCase):
    FIXTURE = BAD / "serve" / "bad_pad_policy.cpp"

    def findings(self):
        return [f for f in run_dir(BAD) if f[2] == "pad-policy"]

    def test_every_seeded_violation_is_flagged(self):
        flagged = {f[1] for f in self.findings()
                   if f[0].endswith("bad_pad_policy.cpp")}
        self.assertEqual(flagged, set(expected_lines(self.FIXTURE)))
        self.assertTrue(flagged)

    def test_owner_and_mentions_pass(self):
        clean = [f for f in run_dir(GOOD) if f[2] == "pad-policy"]
        self.assertEqual(clean, [])
        # Non-vacuous: the owner fixture does name the tile in code.
        self.assertIn("kColumnsMinBatch = 32;",
                      (GOOD / "nn" / "panel.hpp").read_text())

    def test_owner_is_matched_by_directory_and_name(self):
        text = "const auto w = nn::kColumnsMinBatch;\n"
        masked, _ = lint.mask_comments_and_strings(text)
        for owner in ("nn/panel.hpp", "nn/panel.cpp"):
            self.assertEqual(lint.check_pad_policy(owner, text, masked), [])
        for other in ("serve/fleet_engine.cpp", "core/panel.hpp",
                      "nn/panel_kernels.hpp", "nn/matrix.hpp"):
            self.assertTrue(lint.check_pad_policy(other, text, masked), other)


class TestFpContract(unittest.TestCase):
    FIXTURE = BAD / "nn" / "bad_fma.cpp"

    def findings(self):
        return [f for f in run_dir(BAD) if f[2] == "fp-contract"]

    def test_every_seeded_violation_is_flagged(self):
        flagged = {f[1] for f in self.findings()
                   if f[0].endswith("bad_fma.cpp")}
        self.assertEqual(flagged, set(expected_lines(self.FIXTURE)))

    def test_simd_hpp_is_not_exempt(self):
        path = BAD / "nn" / "simd.hpp"
        flagged = {f[1] for f in self.findings() if f[0].endswith("simd.hpp")}
        self.assertEqual(flagged, set(expected_lines(path)))
        self.assertTrue(flagged)


class TestEdgeCases(unittest.TestCase):
    """Parser edge cases that once bit (or would bite) real trees: CRLF
    checkouts, waivers on the file's unterminated last line, calls whose
    argument lists span lines, and C++14 digit separators."""

    def lint_text(self, relpath: str, text: str) -> list[tuple]:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode())
            return lint.lint_file(path, Path(tmp))

    def test_crlf_line_endings_keep_line_numbers_and_waivers(self):
        # A Windows checkout: findings land on the right lines and a
        # waiver comment still waives.
        text = ("#define SOCPINN_HOT [[gnu::hot]]\r\n"
                "SOCPINN_HOT void tick(S& s) {\r\n"
                "  s.buf.resize(8);\r\n"
                "  // SOCPINN_HOT_ALLOW(push_back): warm capacity\r\n"
                "  s.buf.push_back(1.0);\r\n"
                "}\r\n")
        findings = self.lint_text("serve/crlf.hpp", text)
        self.assertEqual([(f[1], f[2]) for f in findings],
                         [(3, "hot-alloc")])

    def test_waiver_on_last_line_without_trailing_newline(self):
        # The construct AND its same-line waiver sit on the very last
        # line of a file that lacks a trailing newline: the comment must
        # still be recorded (the recorder's end-of-file segment) and the
        # waiver honored.
        text = ("#define SOCPINN_HOT [[gnu::hot]]\n"
                "SOCPINN_HOT void tick(S& s) {\n"
                "  s.buf.resize(8); }  // SOCPINN_HOT_ALLOW(resize): warm")
        self.assertEqual(self.lint_text("serve/eof.hpp", text), [])

    def test_multiline_atomic_argument_lists(self):
        # An order on a later line of the SAME call satisfies the check;
        # a CAS split across lines with only one order still fails.
        good = ("std::atomic<int> seq{0};\n"
                "void f() {\n"
                "  seq.store(\n"
                "      1,\n"
                "      std::memory_order_release);\n"
                "}\n")
        self.assertEqual(self.lint_text("serve/ok.hpp", good), [])
        bad = ("std::atomic<int> seq{0};\n"
                "void f(int& e) {\n"
                "  seq.compare_exchange_strong(\n"
                "      e, e + 1,\n"
                "      std::memory_order_acq_rel);\n"
                "}\n")
        findings = self.lint_text("serve/cas.hpp", bad)
        self.assertEqual([(f[1], f[2]) for f in findings],
                         [(3, "atomic-order")])

    def test_digit_separators_are_not_char_literals(self):
        # 100'000 must not open a bogus char literal that swallows the
        # following comment (this exact shape desynced comment line
        # numbers in a real file).
        text = ("void nap() { timespec ts{0, 100'000}; }\n"
                "// SOCPINN_SEQLOCK_WRITER(owner): reason\n"
                "void g(Slot& s) {\n"
                "  s.publish(1.0);\n"
                "}\n")
        masked, comments = lint.mask_comments_and_strings(text)
        self.assertIn("SOCPINN_SEQLOCK_WRITER", comments.get(2, ""))
        self.assertIn("100", masked)


class TestCli(unittest.TestCase):
    SCRIPT = HERE.parent / "invariant_lint.py"

    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *argv],
            capture_output=True, text=True)

    def test_bad_tree_exits_1_with_path_line_check_format(self):
        proc = self.run_cli("--root", str(BAD))
        self.assertEqual(proc.returncode, 1)
        self.assertRegex(proc.stdout, r"bad_atomic\.hpp:\d+: \[atomic-order\]")
        self.assertRegex(proc.stdout, r"bad_hot\.cpp:\d+: \[hot-alloc\]")
        self.assertRegex(proc.stdout, r"bad_fma\.cpp:\d+: \[fp-contract\]")

    def test_good_tree_exits_0(self):
        proc = self.run_cli("--root", str(GOOD))
        self.assertEqual(proc.returncode, 0)
        self.assertIn("clean", proc.stdout)

    def test_empty_root_is_a_usage_error(self):
        proc = self.run_cli("--root", str(FIXTURES / "nonexistent"))
        self.assertEqual(proc.returncode, 2)

    def test_real_tree_is_clean(self):
        src = HERE.parents[2] / "src"
        proc = self.run_cli("--root", str(src))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
