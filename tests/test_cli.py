"""CLI behaviour: dumps, suites, exit codes, determinism, formats."""

import csv
import hashlib
import io
import json
import os

import pytest

from tcube import cli
from tcube.cli import main
from tcube.cube import ConstructionError
from tcube.linalg import ExactMatrix
from tcube.scalar import GaussRat


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_build_adjacency_d2(capsys):
    code, out = run(capsys, "build", "--d", "2", "--op", "adjacency",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == doc["cols"] == 4
    assert len(doc["entries"]) == 8  # the 4-cycle has 8 ordered edges


def test_build_p_d1(capsys):
    code, out = run(capsys, "build", "--d", "1", "--op", "P")
    assert code == 0
    m = ExactMatrix.from_dump(json.loads(out))
    assert m == ExactMatrix([[GaussRat(1), GaussRat(1)],
                             [GaussRat(0, -1), GaussRat(0, 1)]])


def test_build_invalid_d(capsys):
    assert run(capsys, "build", "--d", "0", "--op", "adjacency")[0] == 2


def test_build_indexed_requires_index(capsys):
    assert run(capsys, "build", "--d", "2", "--op", "E")[0] == 2
    code, out = run(capsys, "build", "--d", "2", "--op", "E", "--index", "0",
                    "--format", "json")
    assert code == 0
    m = ExactMatrix.from_dump(json.loads(out))
    assert m.scale(4) == ExactMatrix([[1] * 4 for _ in range(4)])


def test_verify_commutators_d6(capsys):
    code, out = run(capsys, "verify", "--d", "6", "--suite", "commutators")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 5


def test_verify_all_d3(capsys):
    code, out = run(capsys, "verify", "--d", "3", "--suite", "all",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["suite"] == "all"
    assert any(c["identity"].endswith("leonard_triple")
               for c in doc["checks"])


def test_verify_corrupted_fails(capsys):
    code, out = run(capsys, "verify", "--d", "2", "--suite", "commutators",
                    "--corrupt", "imaginary")
    assert code == 1
    assert "FAIL" in out


def test_verify_csv_format(capsys):
    code, out = run(capsys, "verify", "--d", "2", "--suite", "inner-products",
                    "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check_id,i,j,passed"
    assert all(line.endswith(",true") for line in lines[1:])
    assert any(",0,0," in line for line in lines[1:])


def test_verify_deterministic_output(capsys):
    _, first = run(capsys, "verify", "--d", "3", "--suite", "transitions",
                   "--format", "json")
    _, second = run(capsys, "verify", "--d", "3", "--suite", "transitions",
                    "--format", "json")
    assert first == second


def test_verify_parallel_matches_serial(capsys):
    _, serial = run(capsys, "verify", "--d", "3", "--suite", "rep-matrices",
                    "--format", "json")
    _, parallel = run(capsys, "verify", "--d", "3", "--suite", "rep-matrices",
                      "--format", "json", "--parallel")
    assert serial == parallel


def test_decompose_d3_report(capsys):
    code, out = run(capsys, "decompose", "--d", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplicities"] == {"0": 1, "1": 2}
    assert [m["dim"] for m in doc["modules"]] == [4, 2, 2]


def test_decompose_emit_seeds_d5(tmp_path, capsys):
    outdir = tmp_path / "seeds"
    code, _ = run(capsys, "decompose", "--d", "5", "--emit-seeds",
                  "--output-dir", str(outdir), "--format", "json")
    assert code == 0
    files = sorted(os.listdir(outdir))
    assert len(files) == 10  # multiplicities 1 + 4 + 5
    doc = json.loads((outdir / files[0]).read_text())
    assert set(doc) == {"D", "r", "index", "u_star", "u", "u_eps"}


def test_decompose_above_limit(capsys):
    assert run(capsys, "decompose", "--d", "11")[0] == 2


def test_d_limit_env_override(capsys, monkeypatch):
    monkeypatch.setenv("TCUBE_D_LIMIT", "2")
    assert run(capsys, "verify", "--d", "3", "--suite", "commutators")[0] == 2
    monkeypatch.delenv("TCUBE_D_LIMIT")


def test_output_file_and_io_error(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(capsys, "verify", "--d", "2", "--suite", "commutators",
                    "--format", "json", "--output", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["passed"] is True
    code, _ = run(capsys, "build", "--d", "1", "--op", "P",
                  "--output", str(tmp_path / "missing" / "x.json"))
    assert code == 3


def test_module_report_filter(capsys):
    code, out = run(capsys, "module-report", "--d", "2", "--r", "1",
                    "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["r"] == 1
    assert reports[0]["leonard_triple"] == "true"
    assert run(capsys, "module-report", "--d", "2", "--r", "5")[0] == 2


def test_leonard_check(capsys):
    code, out = run(capsys, "leonard-check", "--d", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,index,d,verdict"
    assert len(lines) == 4
    assert all(line.endswith("true") for line in lines[1:])


def test_usage_error_unknown_suite(capsys):
    assert main(["verify", "--d", "2", "--suite", "bogus"]) == 2


# sha256 of the pretty (text) report of `tcube verify --d D --suite S`,
# recorded before the array-native rewrite of the exact core; index D - 1.
GOLDEN_VERIFY_SHA256 = {
    "commutators": (
        "6e5896c86eae6a21a1381d9086b03c090bf3cabe49b18e9b5fee2284c76dd2b8",
        "6e5896c86eae6a21a1381d9086b03c090bf3cabe49b18e9b5fee2284c76dd2b8",
        "6e5896c86eae6a21a1381d9086b03c090bf3cabe49b18e9b5fee2284c76dd2b8",
        "6e5896c86eae6a21a1381d9086b03c090bf3cabe49b18e9b5fee2284c76dd2b8",
        "6e5896c86eae6a21a1381d9086b03c090bf3cabe49b18e9b5fee2284c76dd2b8",
    ),
    "idempotents": (
        "08b132acc65292ff40b68a698554c3d7ee60704d4dd938b12de30ba898621726",
        "cfef4554540c0ad6055084d4d4589f2f281fbde8800dce82bf9077917703e09c",
        "9f2bbb2a8f8dac463ed97f37e2b631114ef80afa0c9191409f4de700b396d098",
        "e62b959c3151f679627dbf95749bc1341056bcdaec6043689124834394e2801e",
        "0fbfbc5328385494f803a1da9eb98d1f27d5adf15b26c664baa90230e7ce1243",
    ),
    "conjugation": (
        "8219a4ee09fb2ecf0c83f15bd6d47f3f6819aa948b1a6db26fc55b2386adbd9e",
        "bf32969eb928cf308026b90548828dab11fc63a9be5fb6591da8b446a34ac580",
        "77a3e8a1a82937ae4a39934dac795cbbd071d03c7b0fb1be08bd328b9e025c35",
        "0a0759e83fa740db6c7d47c2c0048a7b92e1312d0bb9b6f4d21a0ed2ca0a4c67",
        "d00964160e5c9e6317ef12cb91a5e4fc67232123f6a7898977804186c6d895d1",
    ),
    "rep-matrices": (
        "961dcabe9718142a8defb5e12690ffcff6a3f05163cba09f2ddb18bfc7af0c83",
        "604ccb4c8add222290b257a0ce700062d30465bc8ee5055a78390bdcba2d6332",
        "0b451e75f96e202fc1b80a7ba01bd5fbf9520cdc522029739a624ff102d3274d",
        "6d02b0a81e448a81fdbada551ad851035a36669a1eb97bb7aab70a1a49934a5f",
        "8fb4d68a9586a0f1abf313ff27d962654960cb105b0f6a55d3c3979898bf8b79",
    ),
    "inner-products": (
        "7f3efec0ff4de1c7b6b4b77fb80c1ea4495a1e58bfe2b861641f537dca8f003d",
        "e2304860ff0b002dd1743b3610d1fce7b4ef740f9437f56a9373681e12928bd5",
        "2fbe2b3bbb89cd81d3618baf2ff1f758241f52fbeba7528d2ce7a8abee037f4f",
        "5cb8ca88a4fc1e9e4133a6543ce0a32520067c19c4dab0464783684b6a6bb07e",
        "22d44a74d13af0881f658419d4caec98740ba16f229c072dfdb7d555dc1b0a96",
    ),
    "transitions": (
        "0f12c21439543cf02bb79811a79f5340cc045cab402a26597b859b31e3fdcf06",
        "3ddaf5790b89a483a7e31c716c10e3df051ac1801f337b320adf740ba433e850",
        "f4482517dbde4dd2e219a992588e715e3ee9cdbd2d3cb8efd489e348494c3a69",
        "e546899e9aa0732fa98fc7295bdac424dbd8ec4d4dd9697cdf7b8a6271b3559d",
        "77d622166cc04e0df8c56f513377cedbc84979213bfccb54b3f5c6c39ae7afb8",
    ),
    "all": (
        "c921ece4bf7b637642eda9c7b595245d7336930e45633e11367d420a12dbfe59",
        "13f3c41c84765a217469d65946f10fe7c4663a70a917b4cd1a9ef65d12904717",
        "5707d1dddba6e9b41fea23ee4784012a23757a3f150d72b831f5f26c6332292d",
        "8f4e8bf277a9b83dfb0938a58d4a61e4c7e9261c17bd3fbddd11a25323c54a26",
        "0fcd4f542ecd5cebbf8747ebf9402af8804197473ce047af754d4b56f2f596da",
    ),
}


@pytest.mark.parametrize("D", range(1, 6))
@pytest.mark.parametrize("suite", sorted(GOLDEN_VERIFY_SHA256))
def test_verify_report_golden_digest(capsys, suite, D):
    code, out = run(capsys, "verify", "--d", str(D), "--suite", suite)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_VERIFY_SHA256[suite][D - 1]


# The first invariant each --corrupt choice breaks at D = 3.
CORRUPT_FAILURES = {
    "adjacency": "InvariantViolation: module r=0 index=0: <u*,u> vanished",
    "dual": "InvariantViolation: module r=0 index=0: "
            "Astar does not scale slice 0",
    "imaginary": "r1m0:BasisError: target is outside the span of the basis",
}


def _failed_ids(out, fmt):
    if fmt == "json":
        return [c["identity"] for c in json.loads(out)["checks"]
                if not c["passed"]]
    if fmt == "csv":
        return [row[0] for row in csv.reader(io.StringIO(out))
                if row[-1] == "false"]
    return [line[len("FAIL  "):] for line in out.splitlines()
            if line.startswith("FAIL  ")]


@pytest.mark.parametrize("fmt", ["pretty", "csv", "json"])
@pytest.mark.parametrize("corrupt", sorted(CORRUPT_FAILURES))
def test_verify_corruption_reports_invariant(capsys, corrupt, fmt):
    code, out = run(capsys, "verify", "--d", "3", "--suite", "rep-matrices",
                    "--corrupt", corrupt, "--format", fmt)
    assert code == 1
    assert CORRUPT_FAILURES[corrupt] in _failed_ids(out, fmt)


def test_verify_construction_error_reports(capsys, monkeypatch):
    def broken(D, d_limit):
        raise ConstructionError("P inverse construction failed")
    monkeypatch.setattr(cli, "build_context", broken)
    code, out = run(capsys, "verify", "--d", "2", "--suite", "all")
    assert code == 1
    assert out.splitlines() == [
        "FAIL  ConstructionError: P inverse construction failed",
        "1 checks, 1 failures"]


def test_d_limit_env_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("TCUBE_D_LIMIT", "abc")
    code = main(["verify", "--d", "2", "--suite", "commutators"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "TCUBE_D_LIMIT must be an integer, got 'abc'" in captured.err
