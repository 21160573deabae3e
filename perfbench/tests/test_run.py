"""Tests of run.py's result validation and of BENCHMARK.json against the
driver's metric tables (python3 perfbench/run.py --self-test runs them)."""

import copy
import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402


def load_spec():
    with open(run.SPEC_PATH) as f:
        return json.load(f)


def result_for(spec, trace):
    table = spec["per_layer" if trace else "end_to_end"]
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                        for m in table}}


class SpecTest(unittest.TestCase):
    def test_benchmark_json_is_sound(self):
        self.assertEqual(run.validate_spec(load_spec()), [])

    def test_spec_problems_are_reported(self):
        spec = load_spec()
        broken = copy.deepcopy(spec)
        broken["end_to_end"][0]["name"] = "bad name"
        self.assertTrue(run.validate_spec(broken))
        broken = copy.deepcopy(spec)
        del broken["end_to_end"][1]["better"]
        self.assertTrue(run.validate_spec(broken))
        broken = copy.deepcopy(spec)
        broken["end_to_end"][1]["bound"] = 0.5
        self.assertTrue(run.validate_spec(broken))
        broken = copy.deepcopy(spec)
        broken["end_to_end"] = [m for m in broken["end_to_end"]
                                if m["name"] != "setup_s"]
        self.assertTrue(run.validate_spec(broken))

    def test_driver_tables_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "driver",
                               "report.cpp")) as f:
            source = f.read()
        spec = load_spec()
        for table, var in (("end_to_end", "kEndToEndMetrics"),
                           ("per_layer", "kPerLayerMetrics")):
            block = source[source.index(var):]
            block = block[:block.index("};")]
            rows = dict(re.findall(r'\{"([^"]+)", "([^"]+)"\}', block))
            self.assertEqual(rows, {m["name"]: m["unit"]
                                    for m in spec[table]}, table)


class ResultTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_complete_results_pass(self):
        for trace in (False, True):
            self.assertEqual(
                run.validate_result(result_for(self.spec, trace), self.spec,
                                    trace), [])

    def test_missing_metric_fails(self):
        result = result_for(self.spec, False)
        del result["metrics"]["setup_s"]
        self.assertIn("metric setup_s missing",
                      run.validate_result(result, self.spec, False))

    def test_end_to_end_metrics_do_not_pass_as_per_layer(self):
        self.assertTrue(run.validate_result(result_for(self.spec, False),
                                            self.spec, True))

    def test_wrong_unit_extra_metric_and_non_finite_fail(self):
        result = result_for(self.spec, False)
        result["metrics"]["setup_s"]["unit"] = "ms"
        result["metrics"]["surprise"] = {"value": 1.0, "unit": "s"}
        result["metrics"]["cells_per_s"]["value"] = float("nan")
        problems = run.validate_result(result, self.spec, False)
        self.assertEqual(len(problems), 3, problems)

    def test_result_shape(self):
        result = result_for(self.spec, False)
        result["extra"] = 1
        self.assertTrue(run.validate_result(result, self.spec, False))
        result = result_for(self.spec, False)
        result["attempted"] = 0
        self.assertTrue(run.validate_result(result, self.spec, False))
        result = result_for(self.spec, False)
        result["failed"] = 1.0
        self.assertTrue(run.validate_result(result, self.spec, False))


if __name__ == "__main__":
    unittest.main()
