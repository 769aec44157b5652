"""CLI behaviour: dumps, suites, exit codes, determinism, formats."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tcube
from tcube import cli, cube
from tcube.cli import main
from tcube.cube import ConstructionError
from tcube.decomposition import (InvariantViolation, IrreducibleModule,
                                 closed_form_seeds, multiplicity)
from tcube.leonard import BasisError
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


@pytest.mark.parametrize("argv", [
    ["verify", "--d", "5", "--suite", "all"],
    ["decompose", "--d", "5"],
])
def test_no_report_maps_the_seeds_over_2d(capsys, monkeypatch, argv):
    # a module holds its seeds as coordinates in its slice basis; only
    # --emit-seeds maps them back over 2^D
    want = run(capsys, *argv)
    assert want[0] == 0

    def over_2d(self):
        raise AssertionError("seeds mapped back over 2^D")
    monkeypatch.setattr(IrreducibleModule, "seeds", property(over_2d))
    assert run(capsys, *argv) == want


@pytest.mark.parametrize("D", range(1, 6))
def test_clean_verify_runs_no_row_scan(capsys, monkeypatch, D):
    # on a clean context the first-row tests decide every eigen row and no
    # table has a defect, so no suite reaches the row scan
    want = run(capsys, "verify", "--d", str(D), "--suite", "all")
    assert want[0] == 0

    def scan(*args):
        raise AssertionError("row scan on a clean context")
    monkeypatch.setattr(cube, "_first_spot", scan)
    assert run(capsys, "verify", "--d", str(D), "--suite", "all") == want


def test_emit_seeds_maps_each_module_once(tmp_path, capsys, monkeypatch):
    # one seeds product per module, whose rows are u, u* and ue
    mapped = []
    honest = IrreducibleModule.seeds.fget

    def counting(self):
        mapped.append(self)
        return honest(self)
    monkeypatch.setattr(IrreducibleModule, "seeds", property(counting))
    code, _ = run(capsys, "decompose", "--d", "4", "--emit-seeds",
                  "--output-dir", str(tmp_path))
    assert code == 0
    assert len(mapped) == len(set(map(id, mapped))) == len(os.listdir(tmp_path))


def test_decompose_above_limit(capsys):
    assert run(capsys, "decompose", "--d", "11")[0] == 2


def test_d_limit_flag(capsys):
    code = main(["verify", "--d", "3", "--d-limit", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: D must satisfy 1 <= D <= 2, got 3\n"
    assert run(capsys, "verify", "--d", "3", "--d-limit", "3",
               "--suite", "commutators")[0] == 0


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_d_limit_below_one_is_a_usage_error(capsys, limit):
    assert main(["verify", "--d", "3", "--d-limit", limit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --d-limit must be at least 1, got {limit}\n"


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


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_module_report_exits_1_when_a_check_fails(capsys, monkeypatch, fmt):
    code, _ = run(capsys, "module-report", "--d", "2", "--format", fmt)
    assert code == 0
    honest = cli.leonard.verify_inner_products

    def one_cell_failed(bases, phi):
        checks = honest(bases, phi)
        if bases.module.r == 1:
            checks[0] = checks[0]._replace(passed=False)
        return checks

    monkeypatch.setattr(cli.leonard, "verify_inner_products", one_cell_failed)
    code, out = run(capsys, "module-report", "--d", "2", "--format", fmt)
    assert code == 1
    if fmt == "pretty":
        assert out.splitlines() == [
            "module r=0 index=0: all checks pass (leonard_triple=true)",
            "module r=1 index=0: FAILURES PRESENT (leonard_triple=true)"]
    else:
        failed = [rep["r"] for rep in json.loads(out)
                  if not all(rep["inner_products"].values())]
        assert failed == [1]


def test_leonard_check(capsys):
    code, out = run(capsys, "leonard-check", "--d", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,index,d,verdict"
    assert len(lines) == 4
    assert all(line.endswith("true") for line in lines[1:])


def test_usage_error_unknown_suite(capsys):
    assert main(["verify", "--d", "2", "--suite", "bogus"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--d", "2", "--parallel"],
    ["build", "--d", "2", "--op", "adjacency", "--format", "csv"],
    ["module-report", "--d", "2", "--format", "csv"],
    ["build", "--d", "2", "--op", "adjacency", "--index", "5"],
    ["decompose", "--d", "2", "--output-dir", "seeds"],
], ids=["verify-parallel", "build-csv", "module-report-csv",
        "build-index-without-family", "decompose-output-dir-without-seeds"])
def test_usage_error_unsupported_option(capsys, monkeypatch, tmp_path, argv):
    # an option a subcommand would ignore is refused, not accepted, and
    # nothing is written
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: ")
    assert os.listdir(tmp_path) == []


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


# sha256 of the csv and json reports of `tcube verify --d D --suite S
# --format F` for the module suites, recorded while the inner-product and
# transition closed forms were still evaluated one cell at a time; [D - 1].
GOLDEN_VERIFY_FORMAT_SHA256 = {
    ("all", "csv"): (
        "e3ea74622f31b8ab5e12cc3dfdf67334d0ba318597ce9cf13ec27c9333aa94e6",
        "473774fa877ddeb7cd5ab0fc6cd8a1b91c797753cf13c95736e762198c489b47",
        "9bc687588861611e2efab14abff83a57b83356d53caca720148e876c9bf71c01",
        "9915e96f7a7e8475583d7708ef6bfb8ef79bcdda3741a40ced7a432aaa58bda4",
        "65d7bc0e652deba747317974665f2e5632b201b3126651940116d95aacefc0f5",
    ),
    ("all", "json"): (
        "8aca3d11c588f6e9762f4ca95b5ba4a603b7ec70dfdd4b3a771acb590cfb0702",
        "ece5b3c0869b21e7677b937fad2bb2eb0d692b785dab486a4bf60ea3fcdb7388",
        "34503eb191006ef1ebb64461e37ead6709c61ab8babd16e933d29e9923b1072f",
        "494809369315e347b6cb736e505023804b265b0a3620a18bc2e98688632af71d",
        "7db3fcd1975a8f1ce301348abeebe9e09b9f55934be54fa13789321e739e802f",
    ),
    ("inner-products", "csv"): (
        "076ddc251135b229d0a7c49566898fe7ba11397237ed048889908a851f94e342",
        "6a513b4ead79ee06d558815cdccbfc951eeb7c821f28e9ed3d2042c5e9baaca9",
        "926109ea55b021e152593ee800fceec9adbbff860a9771793697d6dc978f704f",
        "6bcc2e03da9b36345ef5f675e841081ce8d96a7c1fee48f92d6ed7f37f785f3d",
        "f1a552e3db885fd7c590c0b6c93b9d8f9d34d483ce47869d5172a7fe5292b499",
    ),
    ("inner-products", "json"): (
        "f40730db4662a14439d2a7ae7f837b3d37db94706a2f96984ece0c7eca6b56a7",
        "7d1ceb5fe1b65e83930964fd64a9439c69a3f275fdbbe3e59e1dfe447c0a6154",
        "73676dc42625eed2c877421700bd38bd43f779656c8115f0bb2d7a3086fbea3b",
        "069b07512bfebdfea09a14b97e17cc8956997974c769f2492b7c61e2e4b94aa5",
        "f3efaf06fcabc472a24188e00145baf17c427d0b2965ad09d3cafabf73d126f1",
    ),
    ("transitions", "csv"): (
        "e8421bd50b7767c06ced20312239b002a6785179f64cf04f61cf7f0dbd8cb393",
        "60ae5f2f22c66977393cadc9634bb5c6937aa8688e97cee814f27a0bd0baa744",
        "b0cc1e96b7c6d6a518dbb27ad498f57e44299e1929a31c8e6f8f74e4500c12cf",
        "2a045bfeb353a7266cf7945d7414ccf63750774149ff81bc726c88e6961d5f0a",
        "51c0a0158cf0d5d173741e8c789bc24bf3084c4e589b2fd678938d37303d0584",
    ),
    ("transitions", "json"): (
        "9e6500d4ed5720c8922913b27754aab60a4f94095eac59bfb785673cf45f75ab",
        "2e11391e95ea363e620a3a9159743d9c1550ea4c543a081cd8cb8c3a01b495d8",
        "91ddc61b9faa8605bbeeb7182c491aaf87b8fec3de21d8a8b17f620f35d2b6fd",
        "ee276dfb2e8a3778e56b9bfdccbdd37edff6575d31105b31f3edfb2bd3907130",
        "efc5a20152be89d8c0bb317340cf1ac6feb75da35cbd43852ca56589db2eec7a",
    ),
}


@pytest.mark.parametrize("D", range(1, 6))
@pytest.mark.parametrize("suite,fmt", sorted(GOLDEN_VERIFY_FORMAT_SHA256))
def test_verify_formats_golden_digest(capsys, suite, fmt, D):
    code, out = run(capsys, "verify", "--d", str(D), "--suite", suite,
                    "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_VERIFY_FORMAT_SHA256[(suite, fmt)][D - 1]


# sha256 of `tcube build --d D --op OP --index i`, recorded while E was
# still built by interpolation and Eeps as Pinv E P; [D - 1][i].
GOLDEN_BUILD_SHA256 = {
    "E": (
        ("3428a87e0815b26e93001c46ac95a6d2ac11a472e0766151c02ae8fbfdf36d01",
         "945d8567b4c9cca8cc1378b46d0495651e8b7048cc9f9c759e95874c9e61e477"),
        ("af45ca7b56aad03bb066c74b8c9ab7df500a154e849fe47fb8d86d33fb4bac7e",
         "3f5381c081113f4694cec5ac37c6dcc59e02a5a397a85a1977bc017b23be67fe",
         "af99fdc4050f7c8a4ff737b7e9db135045a93cfbceebe3701cf0b99a0d04f342"),
        ("f830efbfcda8fea22e2ba88beb86e59f9f4e7e0bdfbd0ee177891939090c272c",
         "ebca20d4464b076d77581acac03b11fe49cace022a0665265b2d6dcbe8c50e59",
         "f46e4320cb181d7f6d7aa0443fbd7b985227eded779496933553799c2c3fd9aa",
         "0bbdcf15536b7d54baf4b250ae74a3600d85b8522af3295e9892a38f57ea3f44"),
        ("6f7b117abef0959d1ab0d1888ed75ccc611dfeff73e88e12c974975cd69cd8ba",
         "dc11dd7eb0a08ac28c1d23238cf3a5c802de5804662d75437b6cbc4d26dcbe3e",
         "feada95185c880838d556a441e23907cefdfcf7bb759151500f76a6696097bbd",
         "78749ad3693a05cc577f7006f486c03bee0351524499bc4e09cb079a247d6f5d",
         "9710214abfafa18679e1f75fa9cde383a1391100865dc297ec994bd2f54ad9fe"),
    ),
    "Eeps": (
        ("2e3ba832e581181c5c3b4837ad0cf304240f72b1aad5998c19a3d2707f8c229a",
         "3fd4306d562f697f76b48dfa8c128b379c9b6e0e517a318a2d3cefd7c6f14d65"),
        ("26a3fd40290c8627880aaa0e35e71f16d5be18ca25ac721e36f4411aa5800853",
         "1d97ef772e0c05db93caf8c595583385b9502acd566db5505968448ec2ec51f9",
         "5fee843131fee3cd505ddffa51d2883b814f76899169abf33a865a7181557e3c"),
        ("41bfdab2178307d3713e7c916012123d66d899186c771054bdc7121baa32da8c",
         "a4001615c7f12b32202cd96ebb37660c9780ad66b30b66740189dce90170bbce",
         "c06c0ee7fa6036648e06f0656b7c34ac28d7f2f1d0d45bcfa2870ad0f5a7acd8",
         "2fda065fbe3b60ac2f72e508d3a1f44edc6841991a4f2fb4990b8ffcf492192c"),
        ("f32dff14d4d22bb8da4ba940dac888d1e1914c3f0d9fad3cc36095d8ab6f5b8c",
         "1761b072b5437891901121eb7cbe1a2dc521f1e34904983a56cad3799a32ef5b",
         "4452b81fcf1e5baf420f93134c5ef1420b7854fd0aed0fdb6a4da9eabd5bb376",
         "678c62c53a79becc5133e4689009dbd1134009740f13e1e0f2c01f301fa0d524",
         "4f4f3a666a60be23cb7e43e79ae84223b351a13e992a6ac0dbf45102d6bdef71"),
    ),
    # recorded before the idempotent ranks were read off traces
    "distance": (
        ("8e1d948b794d05f857825ab6aa414017e4693c20036592ae4f463719e4e467cb",
         "f587c1a24d992adf74aa22495e1f0798f30fb9e3fb36537145be4daa3260d491"),
        ("a0def3b70587477ed60844e62065dbc22cd01787ece9a2c4a834d674cec2a3da",
         "3309b9731d2aea539755e61debd9bbaae1640d3f95d97f7265529671a19c8a28",
         "6ff6fd7f4ee2898248527a48696ee0311e2e4e876ba4106672be1f081592368f"),
        ("6022487e569367b0f4aa4cb8d7c4e8cc0b9180414f2842a43e81fb2ce0e32303",
         "748c1ee30750c1bc258e16324b92925511f6e7cc578a2db1d7c8bb5ae95b3ca6",
         "790650a5b03cbe735732d120a674cc42aea5a72f5dc4b73268d2e290346e31da",
         "8878129ac03d367b7acb39fb1c86fbb11a649c29518639583fb0cd2129790f26"),
        ("23bfdf7fee748901c3272d8a37285953ef5f82caa3cb29e27f672d469f765280",
         "1e6e6427791c40c69a4d80dc83e2cfd9194e39f48ea4840f54fc3845f81b7c3e",
         "50f7a1e90e39ae0d9520c334cb8a967fbfcf4d6d0ddc05aaa6e4cfa2de3c61bb",
         "08c5511331f248bbfe5e7b3c03bbfa5389024d5ca3984fe81f9811e07b1a7e0f",
         "b11a247fe3eaa51983169fac49f1e2070dcc53808095226f951dfaa609274611"),
    ),
    "Estar": (
        ("f0afd54e52889d8805339a5a9de1f6608f31d7ff1538c7a2a39d8ba28d4953a3",
         "d34760534285796e1020c6b890080ab3eeb637ec6f010881b0f74afe5198c517"),
        ("2fad68611c34c451635bc4383bc04a1c0dd30f118cbf092f15b60a8f963e9105",
         "3b9569f5ce630a38a1cb816b541d8120572770b548989e7a732ef444ecd61710",
         "594ca02e4cd9a285f52de84d199af01583836c2216c6c17443d01d297b361eec"),
        ("5d0bb1c604d75cbce42016940b87b23a22f3aceeeb360091f472c63c4df6eb54",
         "c8ac5040053a515dbea0a63d3f6d5363baa0709b4753d584e53b75465851cb4d",
         "94a85f4231534cd3f028329fbeb5c4dc60d3bb457bd909302cc952b5450fb2ea",
         "7d7261d433357881430e3ef4b955dced694d60834b3c1b19174654f3389a9809"),
        ("c06fd98eba80b7f133f7ca401692dbc809ae16b4715bcedd73007b6aebeeab6a",
         "f529cf5f2eaaf46825279035bdc2285bfbc457cfa5daa195a23db7e9fc642ec9",
         "50721cc4fffd474e61d91aea9c3839834fcfb136ead750c416e4c4c392d7acf5",
         "f56970f91ccd23b15bfbe21c59bf59d03be3c4c31923e61ce30c9a117785d60f",
         "729658a1fb922b3f47569c2bc2b629e67b005bc0ce563f672ede87e6bcd232ff"),
    ),
}


# sha256 of `tcube build --d D --op OP` for the operators without an index,
# recorded before the idempotent ranks were read off traces; [D - 1].
GOLDEN_OPERATOR_SHA256 = {
    "P": (
        "572b98867e1600fec08385fe712cb068f442c28f0a5b4145c05439b76fc2e9f0",
        "721f01d0e72bffcf2d506c820df8bbff71142206328f80245e6ad9831780cc51",
        "56630812d855f796b979a4afc0afbcbe4ed8419d0ed48ec6e7bd1230f7483bcf",
        "f1af8054aea28d3441f163e7db8e09cfffd5de5b31dd6365f19964e82d5c1b30",
    ),
    "adjacency": (
        "f587c1a24d992adf74aa22495e1f0798f30fb9e3fb36537145be4daa3260d491",
        "3309b9731d2aea539755e61debd9bbaae1640d3f95d97f7265529671a19c8a28",
        "748c1ee30750c1bc258e16324b92925511f6e7cc578a2db1d7c8bb5ae95b3ca6",
        "1e6e6427791c40c69a4d80dc83e2cfd9194e39f48ea4840f54fc3845f81b7c3e",
    ),
    "dual": (
        "21824c61557f2fa70ed293a1dff105c1e0e66f09b15264b87724f8b36fd4fa33",
        "fe2831b260fd3e934a6e0af0186023bdb939adddf0701e2ded9889a2ee2712db",
        "124950d5038c08e1037e1d3c6f3560b5be90934ac90497765bfe816ec2d4f645",
        "de0616644636da75e2aef5915b24b9e5c6c91e8f69b6b3f5bd43459a59643c3f",
    ),
    "imaginary": (
        "1816abd9da0f461f6754acd5f27f9ec28b3e1dda816c2f044cd4d60778bde6a2",
        "b36ae821dcec54cce17d45365eafaa6caa96d0f6f9ecc499756b6ba678b96887",
        "00abc783ad13082089609271e2aa55e066ed13770732754ca8895acf894cabf4",
        "f9ac70fde66e3a7e4f51575e50f770144e4441f289b9756b7edad1bbcae510ba",
    ),
}


@pytest.mark.parametrize("D", range(1, 5))
@pytest.mark.parametrize("op", sorted(GOLDEN_BUILD_SHA256))
def test_build_idempotent_golden_digest(capsys, op, D):
    for i, expected in enumerate(GOLDEN_BUILD_SHA256[op][D - 1]):
        code, out = run(capsys, "build", "--d", str(D), "--op", op,
                        "--index", str(i))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize("D", range(1, 5))
@pytest.mark.parametrize("op", sorted(GOLDEN_OPERATOR_SHA256))
def test_build_operator_golden_digest(capsys, op, D):
    code, out = run(capsys, "build", "--d", str(D), "--op", op)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_OPERATOR_SHA256[op][D - 1]


# sha256 of the reports of the other commands, recorded while every module
# vector was still a dense matvec; [D - 1].
GOLDEN_COMMAND_SHA256 = {
    ("decompose", "pretty"): (
        "4dc4cf6ba88f799860d6a9abcb2af2a46f2973252234663866b088f409cd6aad",
        "2456248565b433320ebcdaf5b6aba17a783d982a3ac545ae1a97f7e17a43011e",
        "d8f953cbafa19c2f1b4aa0d1313452a8f48b89a5c391ab01396972f2f9ded4a6",
        "4230a776cd6cff48f3c23e87f8033c997d41aad7530f5d5e5b8146b878d6bb27",
        "d7fc79928d902d71dbb01fe25026d9c6dc3d1b79700098af7d4ab73308b74732",
    ),
    ("decompose", "csv"): (
        "cdaf1365dee68c03645931b25f1927db0d76f55edf589a2bd78675743adffda2",
        "f79226970a5575ab6912c5d63d4e3f35353c94a5f8dc83dd1c46943d071b3256",
        "92015a17b218d30faca5c2884f8011e02a67ceea820fca9706048768ae9168a7",
        "18d7421ca4f39b5e85ea59b6dba69c3806d1bb315a25f74c956c060ff3f1fb29",
        "79e967f2160f6ff9843fad86ab906bf7fac2494319595aeab72dc0754b19f05a",
    ),
    ("decompose", "json"): (
        "6a9f4933748aa79129d28eb9ff8407bf56992b71a204939074fc1de549d9e00f",
        "8b688bfab2310702778078efa56092ffaeb05aa0745672b363c5b6413f947d96",
        "67186a0b657ae3fe2e22e89f2dca902171b559a656ec239b54a742834b482fe2",
        "78cfdf6aede7cf6167db0e80599a7a9f3125be324eda2609900e131b7826cb57",
        "48ec278cf880fc4040cc26ae20efddaab83eab6fa73f45ca4c2d2f3405a8b569",
    ),
    ("leonard-check", "pretty"): (
        "bc936e762d7ed54b6d770a85030065eb32410f95420ad34a2875663c5dd70891",
        "f9b15b6d25e264f16ea83ab1dce7b09ec03721611b758f8729709e276cb63be3",
        "39fdb659ebc6fda09e197e09fe8e6254854a67998661eb34d21a0147c762dee3",
        "6d45f93b2a2359471e16d6433be5b1a8ae3bed24dc33a13d8a6100f01479fe49",
        "fac09f66f9320e96c481d993576eea5918d27977aa5a15066879af3ecc21edfb",
    ),
    ("leonard-check", "csv"): (
        "7b0252b1efde80f7d2244f189e5a2f383fe6048a3f651dce6175a29225bd7237",
        "66d451713fb8c8b7ba6bc61ab14bbc619fc193ec4511116e09cf97c31977e4d6",
        "3fd782473d97398e93e820da62b82830643cbe8ccba4fd7e85de9317ed90c3bc",
        "2a3d31adff8d6ba4cbef5f7a2e3c40ad579a8a07699f449978d703302d842ed7",
        "83c24b3420af2c61aa6fbf9e773bece37db070661c49459eebe486f50b8d0b1a",
    ),
    ("leonard-check", "json"): (
        "597b6f8e2189528c53366958e2d5fe32c2573ecb871fa4b8d1914927191d521d",
        "2d18254d66e6e00d1248fccaeef6d7854eef16ad90d627e72a2ac9fa0d22e475",
        "51676d393cd8ac257f84dd8b8246d6bbe76ce7908124280491849815714539e8",
        "f4b2d62f106b82f1a27dd33729b326a19b824cf6fe5a3de3009613f25ec9e7d3",
        "afbdb87e3e50c2595d521a83d6362e2b6a7b969e35e929e65cc371e74255f8a8",
    ),
    ("module-report", "json"): (
        "1215aaa6152ebc2fea6a7d9bbfa10f75a908302a9741000d018ba0662fd131ef",
        "cb86ce736b43afda2b7f419fb729216d035591e9f6fd43893f36134048e2a8d7",
        "a097a49573877e5140f89984c3640a1948a1434e183da6b42a1309f94a14c1b0",
        "7e8f3c15ee15117cecb7542d50221b7af60e7a7b82341eb6bb45fc38fa363ad3",
        "ea5406ce8135e14e4d859fee0066d9189a582780e00ff9d767f5c366fab21a53",
    ),
    # recorded while module_report still took an optional Phi matrix
    ("module-report", "pretty"): (
        "973b2814a68a6d0244f4b03ccf16b9688911f06ec9f408d7b47d35124564e9a1",
        "c654b9eec8581c823b31afb9fb0df62f30d17a1248f76cab481baad31c1aab8d",
        "2a92299f8ca9c95378452b188b39d9a3fc35618ed8993a573e6757aec36da663",
        "31aa98cf2ca0283f71f0fb55cbf50e2d1929f9dd48b14608dd1b90a2fb2ad16f",
        "fdb88cb0d4d368e13b32ec0fd30a405a9f429d122c053368f795e8331477fd1c",
    ),
}


@pytest.mark.parametrize("D", range(1, 6))
@pytest.mark.parametrize("command,fmt", sorted(GOLDEN_COMMAND_SHA256))
def test_command_report_golden_digest(capsys, command, fmt, D):
    code, out = run(capsys, command, "--d", str(D), "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_COMMAND_SHA256[(command, fmt)][D - 1]


# sha256 of the lines "<file name> <sha256 of the file>", one per seed file
# of `decompose --emit-seeds` in name order; [D - 1].  D = 3..5 were
# re-recorded when the seeds became the closed-form Clebsch-Gordan vectors
# (D = 1, 2 have one seed per endpoint, the same vector as before).
GOLDEN_SEEDS_SHA256 = (
    "6e72af37d735aba97e638a3549f6eaa840630658949e0c4251213c1045bfbe12",
    "373c477075025c3250a0dba9b89d88b16266c0ce3d7bc758cf26aefbc2020b06",
    "7cdaeffc05e97a557139ed7e2eafaac23f7979224e589ce05d863286da66179f",
    "bd070fa2d1ff1a7197ab20b6ef5c4fe12ddcee669a1a67b9e2dfe8703e235a70",
    "05382c5a4efcacdf36a3cafa221172da55a02f4e8ad7b2cbc79b03162ba760d5",
)


@pytest.mark.parametrize("D", range(1, 6))
def test_emitted_seed_files_golden_digest(tmp_path, capsys, D):
    code, _ = run(capsys, "decompose", "--d", str(D), "--emit-seeds",
                  "--output-dir", str(tmp_path))
    assert code == 0
    listing = "".join(
        f"{name} {hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}\n"
        for name in sorted(os.listdir(tmp_path)))
    assert hashlib.sha256(listing.encode()).hexdigest() == \
        GOLDEN_SEEDS_SHA256[D - 1]


# The row of the idempotent certificate when A has a flipped sign at D = 3.
CERTIFICATE_ROW = "ConstructionError: idempotent closed form: A E_0 != 3 E_0"

# The first invariant each --corrupt choice breaks at D = 3, all in the
# first module, r0m0, whose slice basis is b_k = k! (slice k indicator).
# A flipped entry (0, 1) of A or Aeps leaves that module closed, since
# every b_k is constant on its slice, but it changes the images of b_1 at
# vertex 0: the frame's A, or Aeps, no longer has the eigenvalues
# 3, 1, -1, -3 on W (its characteristic polynomial becomes
# x^4 - 8 x^2 + 3), and the spectral certificate of the frame fails at its
# first part.  The flipped Astar entry fails the slice scaling before it.
CORRUPT_FAILURES = {
    "adjacency": "InvariantViolation: module r=0 index=0: A E_0 W != 3 E_0 W",
    "dual": "InvariantViolation: module r=0 index=0: "
            "Astar does not scale slice 0",
    "imaginary": "InvariantViolation: module r=0 index=0: "
                 "Aeps Eeps_0 W != 3 Eeps_0 W",
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


@pytest.mark.parametrize("fmt", ["pretty", "csv", "json"])
@pytest.mark.parametrize("suite", ["idempotents", "conjugation", "all"])
def test_verify_adjacency_certificate_row(capsys, suite, fmt):
    code, out = run(capsys, "verify", "--d", "3", "--suite", suite,
                    "--corrupt", "adjacency", "--format", fmt)
    assert code == 1
    assert CERTIFICATE_ROW in _failed_ids(out, fmt)


# Suites that read neither the flipped operator nor anything built from it,
# and so rightly pass: the idempotent suite never reads Astar.  Every
# module suite reads Aeps, through the frame that decompose certifies.
UNREAD_BY_SUITE = {("dual", "idempotents")}


@pytest.mark.parametrize("suite", cli.SUITES)
@pytest.mark.parametrize("corrupt", sorted(cli.CORRUPT_OPS))
def test_verify_every_corruption_reports(capsys, corrupt, suite):
    code, out = run(capsys, "verify", "--d", "3", "--suite", suite,
                    "--corrupt", corrupt)
    if (corrupt, suite) in UNREAD_BY_SUITE:
        assert code == 0 and "FAIL" not in out
    else:
        assert code == 1
        assert _failed_ids(out, "pretty")


def _count_square_products(monkeypatch, n, replace):
    """Calls of ExactMatrix @ on two n x n operands after verify's context
    is built and `replace` has changed it, as a list that grows while the
    command runs."""
    calls, built = [], []
    honest = ExactMatrix.__matmul__

    def counting(a, b):
        square = isinstance(b, ExactMatrix) and a.shape == b.shape == (n, n)
        if built and square:
            calls.append(a.shape)
        return honest(a, b)

    def build(D, d_limit):
        ctx = cli.cube.build_context(D, d_limit)
        replace(ctx)
        built.append(ctx)
        return ctx

    monkeypatch.setattr(ExactMatrix, "__matmul__", counting)
    monkeypatch.setattr(cli, "build_context", build)
    return calls


def _swap_estar(ctx):
    """The rows of Estar_0 and Estar_1 traded: the ranks fail."""
    rows = ctx.structure.Estar
    ctx.structure.Estar = [rows[1], rows[0]] + rows[2:]


# No whole-matrix suite forms a dense product at D = 6: the commutator
# suite multiplies the operator tables, and the idempotent and conjugation
# suites compare rows, the defects of the tables and the factor of P.
DENSE_PRODUCTS = {"commutators": 0, "idempotents": 0, "conjugation": 0}


@pytest.mark.parametrize("suite", sorted(DENSE_PRODUCTS))
def test_whole_matrix_suites_form_no_dense_family_product(capsys, monkeypatch,
                                                          suite):
    # on the built families and on rows that fail, which the commutator
    # suite never reads
    for replace, breaks in ((lambda ctx: None, False), (_swap_estar, True)):
        with monkeypatch.context() as patch:
            calls = _count_square_products(patch, 64, replace)
            assert run(capsys, "verify", "--d", "6", "--suite", suite)[0] == \
                int(breaks and suite != "commutators")
        assert len(calls) <= DENSE_PRODUCTS[suite]


@pytest.mark.parametrize("corrupt", [None, *sorted(cli.CORRUPT_OPS)])
@pytest.mark.parametrize("suite", ["commutators", "idempotents"])
def test_whole_matrix_suites_gather_no_full_block(capsys, monkeypatch, suite,
                                                  corrupt):
    # the operators act on the tables and on the families' rows, never by
    # a gather over a block of n rows, clean and under each --corrupt op
    n, full = 64, []
    honest = cli.cube._Gather.apply

    def counting(self, re, im):
        if len(re) == n:
            full.append(self.shifts)
        return honest(self, re, im)

    monkeypatch.setattr(cli.cube._Gather, "apply", counting)
    argv = ["verify", "--d", "6", "--suite", suite]
    code = run(capsys, *argv, *(["--corrupt", corrupt] if corrupt else []))[0]
    assert code == int(corrupt is not None
                       and (corrupt, suite) not in UNREAD_BY_SUITE)
    assert full == []


# The dense 2^D x 2^D attributes of a context, each derived on first use.
DENSE_ATTRIBUTES = {"A", "Astar", "Aeps", "P", "hamming", "dist_matrices"}


def _arrays(x, seen):
    """Every numpy array reachable from x through attributes, containers
    and the numerators of exact matrices."""
    if id(x) in seen:
        return
    seen.add(id(x))
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, ExactMatrix):
        yield x._re
        yield x._im
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _arrays(v, seen)
    elif isinstance(x, dict):
        for v in x.values():
            yield from _arrays(v, seen)
    elif hasattr(x, "__dict__"):
        yield from _arrays(vars(x), seen)


@pytest.mark.parametrize("suite", cli.SUITES)
def test_module_suites_build_no_dense_matrix(capsys, monkeypatch, suite):
    # every suite, the whole-matrix ones included, reads the gather tables,
    # the families' rows and the factor of P alone: after it, neither the
    # context it ran on, clone or not, nor its families hold a dense matrix
    # or any array with more than n (D + 1) entries, clean and under each
    # --corrupt op
    honest_build, honest_run = cli.build_context, cli.run_suite
    for corrupt in (None, *sorted(cli.CORRUPT_OPS)):
        seen = []

        def build(D, d_limit):
            seen.append(honest_build(D, d_limit))
            return seen[-1]

        def run_suite(ctx, suite):
            seen.append(ctx)
            return honest_run(ctx, suite)

        monkeypatch.setattr(cli, "build_context", build)
        monkeypatch.setattr(cli, "run_suite", run_suite)
        argv = ["verify", "--d", "6", "--suite", suite]
        code = run(capsys, *argv,
                   *(["--corrupt", corrupt] if corrupt else []))[0]
        assert code == int(corrupt is not None
                           and (corrupt, suite) not in UNREAD_BY_SUITE)
        assert len(seen) == 2
        for ctx in seen:
            assert not DENSE_ATTRIBUTES & set(vars(ctx))
            arrays = list(_arrays(ctx, set()))
            assert max(a.size for a in arrays) <= ctx.n * (ctx.D + 1)


@pytest.mark.parametrize("D", [3, 4, 5])
def test_seed_with_wrong_diameter_is_a_named_row(capsys, monkeypatch, D):
    # The first branch-(b) seed of endpoint 1 with d' off by one,
    # (R w') (x) e0 - (d' + 1) (w' (x) e1), lies on slice 1 but outside the
    # kernel of L: verify names it and exits 1, with no traceback.
    honest = closed_form_seeds(D)
    w = closed_form_seeds(D - 1)[0][0]
    index = multiplicity(D - 1, 1)
    wrong = honest[1].copy()
    wrong[index, 1::2] -= w
    monkeypatch.setattr(cli.decomposition, "closed_form_seeds",
                        lambda _: {**honest, 1: wrong})
    code, out = run(capsys, "verify", "--d", str(D), "--suite", "rep-matrices")
    assert code == 1
    assert out.splitlines() == [
        f"FAIL  InvariantViolation: module r=1 index={index}: "
        "seed not annihilated by the lowering operator",
        "1 checks, 1 failures"]


def test_non_proportional_norms_take_the_per_module_path(capsys,
                                                        monkeypatch):
    # b_1 of module r=1 index=1 at D = 4 with its norm doubled: its Gram is
    # no positive multiple of module 0's, so its frame checks run on its
    # own frame, and the six bases of that wrong Gram fail as they did when
    # every module was checked on its own
    honest = cli.decomposition._row_norms
    checked = []

    def doubled(block):
        norms = honest(block)
        if block.rows == 3 * 3:  # the stack of r = 1: 3 modules, d = 2
            norms = norms.copy()
            norms[3 + 1] *= 2
        return norms

    def spied(r, index, frame):
        checked.append((r, index))
        return own(r, index, frame)

    own = cli.decomposition._check_seeds
    monkeypatch.setattr(cli.decomposition, "_row_norms", doubled)
    monkeypatch.setattr(cli.decomposition, "_check_seeds", spied)
    code, out = run(capsys, "verify", "--d", "4", "--suite", "rep-matrices")
    assert code == 1
    assert checked == [(0, 0), (1, 0), (1, 1), (2, 0)]
    assert _failed_ids(out, "pretty") == [
        "r1m1:BasisError: basis AeA is not orthogonal (module r=1 index=1)"]
    assert out.splitlines()[-1] == "91 checks, 1 failures"


@pytest.mark.parametrize("suite, reads_phi", [
    ("rep-matrices", False), ("inner-products", True),
    ("transitions", True), ("all", True)])
def test_phi_is_built_only_for_the_suites_that_read_it(capsys, monkeypatch,
                                                       suite, reads_phi):
    honest = cli.leonard.phi_matrix
    calls = []

    def spied(d):
        calls.append(d)
        return honest(d)

    monkeypatch.setattr(cli.leonard, "phi_matrix", spied)
    assert run(capsys, "verify", "--d", "3", "--suite", suite)[0] == 0
    assert bool(calls) == reads_phi


@pytest.mark.parametrize("op, family", sorted(cli.INDEXED_OPS.items()))
def test_build_makes_the_indexed_member_alone(capsys, monkeypatch, op,
                                              family):
    ctx = cube.build_context(3)
    want = [getattr(ctx, family)[i].to_dump() for i in range(4)]

    def whole_family(self, name):
        raise AssertionError(f"built the whole family {name}")

    monkeypatch.setattr(cube.CubeContext, "_family", whole_family)
    for i in range(4):
        code, out = run(capsys, "build", "--d", "3", "--op", op,
                        "--index", str(i))
        assert code == 0
        assert json.loads(out) == want[i]


def test_verify_construction_error_reports(capsys, monkeypatch):
    def broken(D, d_limit):
        raise ConstructionError("P inverse construction failed")
    monkeypatch.setattr(cli, "build_context", broken)
    code, out = run(capsys, "verify", "--d", "2", "--suite", "all")
    assert code == 1
    assert out.splitlines() == [
        "FAIL  ConstructionError: P inverse construction failed",
        "1 checks, 1 failures"]


def test_six_bases_error_is_that_modules_row(capsys, monkeypatch):
    # each module builds its own bases inside its rows, so a broken basis
    # costs that module its rows and the other modules still report
    honest = cli.leonard.build_six_bases

    def broken(m):
        if (m.r, m.index) == (1, 1):
            raise BasisError("basis AsA vector 0 is zero "
                             "(module r=1 index=1)")
        return honest(m)

    monkeypatch.setattr(cli.leonard, "build_six_bases", broken)
    code, out = run(capsys, "verify", "--d", "3", "--suite", "rep-matrices")
    assert code == 1
    assert _failed_ids(out, "pretty") == [
        "r1m1:BasisError: basis AsA vector 0 is zero (module r=1 index=1)"]
    lines = out.splitlines()
    assert lines[-2].startswith("FAIL  r1m1:")
    assert sum(line.startswith("PASS  r0m0:rep[") for line in lines) == 18
    assert sum(line.startswith("PASS  r1m0:rep[") for line in lines) == 18


@pytest.mark.parametrize("argv", [
    ["decompose", "--d", "3"],
    ["module-report", "--d", "3"],
    ["leonard-check", "--d", "3"],
])
def test_other_commands_report_broken_invariant(capsys, monkeypatch, argv):
    def broken(ctx):
        raise InvariantViolation("L + R differs from A")
    monkeypatch.setattr(cli.decomposition, "decompose", broken)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: InvariantViolation: L + R differs from A\n"


def test_build_reports_construction_error(capsys, monkeypatch):
    def broken(D, d_limit):
        raise ConstructionError("P inverse construction failed")
    monkeypatch.setattr(cli, "build_context", broken)
    code = main(["build", "--d", "2", "--op", "E", "--index", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == \
        "error: ConstructionError: P inverse construction failed\n"


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


_TRACED_VERIFY = """
import json, sys
from tracer import Tracer, instrument
tracer = Tracer()
instrument(tracer)
from tcube.cli import main
code = main(["verify", "--d", "3", "--suite", "all"])
print(json.dumps(tracer.metrics()), file=sys.stderr)
sys.exit(code)
"""


def test_perfbench_tracer_installs_on_the_current_tree(capsys):
    # perfbench/tracer.py wraps tcube's entry points by name; renaming or
    # deleting one of them must fail here, not only in the benchmark
    src = os.path.dirname(os.path.dirname(tcube.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.path.join(REPO, "perfbench")]))
    traced = subprocess.run([sys.executable, "-c", _TRACED_VERIFY],
                            capture_output=True, text=True, env=env,
                            timeout=300)
    assert "Traceback" not in traced.stderr
    assert traced.returncode == 0
    assert traced.stdout == run(capsys, "verify", "--d", "3",
                                "--suite", "all")[1]
    metrics = json.loads(traced.stderr.splitlines()[-1])
    assert metrics["cube.verify_idempotent_families.calls"] == 1
    assert metrics["leonard.build_six_bases.calls"] == 3
    assert metrics["leonard.is_leonard_triple.calls"] == 3


_LATE_IMPORTS = """
import contextlib, io, json, sys
from tcube import cli
build, built = cli.build_context, []


def recording_build(*args):
    ctx = build(*args)
    built.append(set(sys.modules))
    return ctx


cli.build_context = recording_build
codes, late = {}, {}
for suite in cli.SUITES:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes[suite] = cli.main(["verify", "--d", "4", "--suite", suite])
    late[suite] = sorted(set(sys.modules) - built[-1])
print(json.dumps({"codes": codes, "late": late,
                  "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_verify_imports_nothing_after_the_context():
    # a module first imported inside a suite is a fixed cost of every run
    # (numpy.ma, which np.unique imports, is about 14 ms); a fresh process,
    # since this one may have loaded it already
    src = os.path.dirname(os.path.dirname(tcube.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _LATE_IMPORTS],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == {suite: 0 for suite in cli.SUITES}
    assert result["late"] == {suite: [] for suite in cli.SUITES}
    assert not result["numpy.ma"]


_TRACED_COMMANDS = """
import contextlib, inspect, io, json, sys
import tcube
from tcube import cli

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


commands = [["verify", "--suite", "all"],
            ["decompose", "--emit-seeds", "--output-dir", sys.argv[1]],
            ["module-report"], ["leonard-check"]]
commands += [["build", "--op", op, *(["--index", "0"]
                                     if op in cli.INDEXED_OPS else [])]
             for op in cli.BUILD_OPS]
codes = []
sys.setprofile(profile)
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main([argv[0], "--d", "3", *argv[1:]]))
sys.setprofile(None)
exported = {name: inspect.unwrap(getattr(tcube, name)) for name in tcube.__all__}
missed = sorted(name for name, fn in exported.items()
                if inspect.isfunction(fn) and fn.__code__ not in entered)
print(json.dumps({"codes": codes, "missed": missed}))
"""

# Exported functions that no command reaches.  perfbench/tracer.py binds
# them by name, so they leave together with the benchmark change that
# retires the elimination core (ROADMAP.md); the Leonard recognizer no
# longer eliminates, so kernel_basis is among them.
UNREACHED_EXPORTS = ["gram_schmidt", "inner", "kernel_basis", "rank"]


def test_every_exported_function_is_reached_by_a_command(tmp_path):
    # a public function that only tests call belongs in the tests; a fresh
    # process, so that no cache of this one skips a function's body
    src = os.path.dirname(os.path.dirname(tcube.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _TRACED_COMMANDS,
                           str(tmp_path)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * (4 + len(cli.BUILD_OPS))
    assert result["missed"] == UNREACHED_EXPORTS
    assert os.listdir(tmp_path)  # the seed files of --emit-seeds
