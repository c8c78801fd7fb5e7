#!/usr/bin/env python3
"""tools/bench_report.py against a stub bench in a throwaway tree.

The recorder finds its repo root from its own path, so a copy of it in a
temp directory writes BENCH_*.json there and runs benches from that tree's
build/bench/. Usage: test_bench_report.py path/to/tools/bench_report.py
"""
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

RECORDER = pathlib.Path(sys.argv.pop(1)).resolve()

OLD_SCHEMA = {"label": "old", "date": "2026-01-01 00:00:00", "cpu_count": 1,
              "profile": {"sites": []},
              "history": [{"label": "older", "wall_sec_off": 0.5},
                          {"label": "oldest"}]}


class Recorder(unittest.TestCase):
    def setUp(self):
        self.root = pathlib.Path(tempfile.mkdtemp(prefix="bench_report_test_"))
        (self.root / "tools").mkdir()
        shutil.copy(RECORDER, self.root / "tools" / "bench_report.py")
        (self.root / "build" / "bench").mkdir(parents=True)
        self.out = self.root / "BENCH_profile.json"

    def tearDown(self):
        shutil.rmtree(self.root)

    def stub_bench(self, gate):
        stub = self.root / "build" / "bench" / "profile_hotpath"
        fragment = {"metrics": {"wall_sec_on": 0.25, "word_path_frac": None},
                    "gates": {"every_site_fired": gate}}
        stub.write_text(f"#!{sys.executable}\n"
                        f"print({json.dumps(json.dumps(fragment))})\n")
        stub.chmod(0o755)

    def recorder(self, *args):
        return subprocess.run(
            [sys.executable, self.root / "tools" / "bench_report.py", *args],
            capture_output=True, text=True)

    def test_history_keeps_every_entry_and_grows_by_one(self):
        self.out.write_text(json.dumps(OLD_SCHEMA))
        self.stub_bench(True)
        for label, length in (("first", 3), ("second", 4)):
            proc = self.recorder("profile", label)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            doc = json.loads(self.out.read_text())
            self.assertEqual(doc["label"], label)
            self.assertEqual(doc["metrics"]["word_path_frac"], None)
            self.assertEqual(len(doc["history"]), length)
        history = doc["history"]
        self.assertEqual(history[:2], OLD_SCHEMA["history"])
        old_top = dict(OLD_SCHEMA)
        del old_top["history"]
        self.assertEqual(history[2], old_top)
        self.assertEqual(history[3]["label"], "first")
        self.assertNotIn("history", history[3])
        proc = self.recorder("validate", self.out)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_a_false_gate_fails_the_run(self):
        self.stub_bench(True)
        self.assertEqual(self.recorder("profile", "good").returncode, 0)
        before = self.out.read_bytes()
        self.stub_bench(False)
        proc = self.recorder("profile", "bad")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("every_site_fired", proc.stderr)
        self.assertEqual(self.out.read_bytes(), before)

    def test_validate_rejects_missing_or_non_numeric_metrics(self):
        good = {"label": "", "date": "d", "host": "h", "cpu_count": 4,
                "metrics": {"x": 1.5, "y": None}, "gates": {"ok": True},
                "history": []}
        no_metrics = dict(good)
        del no_metrics["metrics"]
        text_metric = dict(good, metrics={"x": "fast"})
        for name, doc, code in (("good", good, 0), ("no_metrics", no_metrics, 1),
                                ("text_metric", text_metric, 1)):
            path = self.root / f"BENCH_{name}.json"
            path.write_text(json.dumps(doc))
            proc = self.recorder("validate", path)
            self.assertEqual(proc.returncode, code, name + proc.stderr)


if __name__ == "__main__":
    unittest.main()
