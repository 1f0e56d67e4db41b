"""The analyze, convergence and simulate reports of the shipped configs, byte for
byte: each file's sha256 against golden_digests.json (see golden.py)."""

import json

import pytest

import golden

CASES = [(command, config) for command in golden.FILES for config in golden.CONFIGS]


@pytest.fixture(scope="module")
def want():
    return golden.load()


@pytest.mark.parametrize("command, config", CASES, ids=[f"{c}-{n}" for c, n in CASES])
def test_report_matches_its_golden_digest(command, config, want, tmp_path):
    got = {key: golden.file_digests(path) for key, path in golden.write_reports(command, config, tmp_path).items()}
    moved = [golden.first_difference(key, got[key], want[key])
             for key in got if got[key]["sha256"] != want[key]["sha256"]]
    assert not moved, "\n".join(moved)


def test_digests_cover_every_report(want):
    assert sorted(want) == sorted(f"{command}/{config}/{name}" for command, config in CASES
                                  for name in golden.FILES[command])


class TestFirstDifference:
    @pytest.fixture
    def report(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"a": 1.0, "rows": [{"x": 1.0, "y": 2.0}, {"x": 3.0, "y": 4.0}]}))
        return path

    def test_names_the_first_moved_field(self, report):
        want = golden.file_digests(report)
        doc = json.loads(report.read_text())
        doc["rows"][1]["y"] = 4.000000000000001
        doc["a"] = 0.5
        report.write_text(json.dumps(doc))
        got = golden.file_digests(report)
        assert golden.first_difference("r", got, want) == "r: field a differs"
        doc["a"] = 1.0
        report.write_text(json.dumps(doc))
        assert golden.first_difference("r", golden.file_digests(report), want) == "r: field rows[].y differs"

    def test_names_a_missing_and_a_new_field(self, report):
        want = golden.file_digests(report)
        report.write_text(json.dumps({"a": 1.0, "rows": [{"x": 1.0, "z": 2.0}, {"x": 3.0, "z": 4.0}]}))
        got = golden.file_digests(report)
        assert golden.first_difference("r", got, want) == "r: field rows[].y is missing"
        assert golden.first_difference("r", want, got) == "r: field rows[].z is missing"
        report.write_text(json.dumps({"a": 1.0, "rows": [{"x": 1.0, "y": 2.0}, {"x": 3.0, "y": 4.0}], "b": 0}))
        assert golden.first_difference("r", golden.file_digests(report), want) == "r: field b is new"

    def test_names_a_csv_column(self, tmp_path):
        path = tmp_path / "snapshot.csv"
        path.write_text("x1,rho\n0.0,1.0\n0.5,1.0\n")
        want = golden.file_digests(path)
        path.write_text("x1,rho\n0.0,1.0\n0.5,1.0000000000000002\n")
        assert golden.first_difference("s", golden.file_digests(path), want) == "s: field rho differs"

    def test_names_bytes_outside_the_fields(self, report):
        want = golden.file_digests(report)
        report.write_text(json.dumps(json.loads(report.read_text()), indent=2))
        got = golden.file_digests(report)
        assert got["sha256"] != want["sha256"]
        assert golden.first_difference("r", got, want) == "r: every field is equal, the bytes between them differ"
