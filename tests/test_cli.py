"""Command-line behavior: subcommands, formats, exit codes, determinism."""

import ast
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from importlib import metadata
from pathlib import Path

import pytest

from psiring import cli


def run(args, capsysbinary):
    code = cli.main(args)
    out = capsysbinary.readouterr().out
    return code, out


def run_json(args, capsysbinary):
    code, out = run(args + ["--format", "json"], capsysbinary)
    return code, json.loads(out)


def test_presentation_dump(capsysbinary):
    code, d = run_json(["presentation", "dump", "--n", "4"], capsysbinary)
    assert code == 0
    assert d["overall"] == "pass"
    assert d["payload"]["relation_count"] == 6
    assert len(d["payload"]["variables"]) == 8


def test_md_and_csv_carry_the_payload(capsysbinary):
    # every relation of the dump is in its md and csv renderings, and each
    # payload key's csv value parses back to the json payload's
    _, d = run_json(["presentation", "dump", "--n", "4"], capsysbinary)
    payload = d["payload"]
    for fmt in ("md", "csv"):
        code, out = run(["presentation", "dump", "--n", "4", "--format", fmt], capsysbinary)
        assert code == 0
        assert all(r["text"] in out.decode() for r in payload["relations"])
    rows = list(csv.reader(io.StringIO(out.decode())))
    start = rows.index(["# payload"]) + 1
    assert {k: json.loads(v) for k, v in rows[start:start + len(payload)]} == payload
    # gb run's basis: the md payload section is a json block of the json payload
    _, d = run_json(["gb", "run", "--n", "4"], capsysbinary)
    code, out = run(["gb", "run", "--n", "4", "--format", "md"], capsysbinary)
    block = re.search(r"^## payload\n```json\n(.*?)\n```$", out.decode(), re.S | re.M)
    assert code == 0 and json.loads(block.group(1)) == d["payload"]


def readme_commands():
    """The psiring command lines of README's "Command line" block, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("psiring ")]


def test_readme_command_block_is_found():
    assert len(readme_commands()) == 8


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_examples_run(argv, capsysbinary):
    code, out = run(argv, capsysbinary)
    assert code == 0
    if argv[-2:] == ["--format", "md"]:
        assert "\n## payload\n```json\n" in out.decode()


def test_hilbert_lee_three_points_all_ones(capsysbinary):
    code, out = run(["hilbert", "lee", "--n", "3", "--max-total", "4",
                     "--format", "csv"], capsysbinary)
    assert code == 0
    rows = [l for l in out.decode().splitlines()
            if l and not l.startswith("#") and not l.startswith("a[")]
    assert len(rows) == 35
    assert all(r.rsplit(",", 1)[1] == "1" for r in rows)


def test_hilbert_verify_emits_anchor_checks(capsysbinary):
    code, d = run_json(["hilbert", "verify", "--n", "4", "--max-total", "3"], capsysbinary)
    assert code == 0
    names = {c["name"] for c in d["checks"]}
    assert {"slice-vs-series", "series-anchor-e", "series-anchor-pair",
            "curve-module-factorization"} <= names
    assert d["overall"] == "pass"


def test_hilbert_brute_table_shape(capsysbinary):
    code, d = run_json(["hilbert", "brute", "--n", "4", "--max-total", "2"], capsysbinary)
    assert code == 0
    t = d["tables"]["dimensions"]
    assert len(t["rows"]) == 15
    assert t["columns"][-1] == "method"


def test_conifold_verify(capsysbinary):
    code, d = run_json(["hilbert", "verify", "--kind", "bnm", "--n", "2",
                        "--m", "2", "--max-total", "5"], capsysbinary)
    assert code == 0
    assert "conifold-coefficients" in {c["name"] for c in d["checks"]}


def test_gb_run(capsysbinary):
    code, d = run_json(["gb", "run", "--n", "4"], capsysbinary)
    assert code == 0
    assert d["payload"]["basis_size"] == 6
    names = {c["name"] for c in d["checks"]}
    assert "krull-dimension" in names and "groebner-cross-field" in names


def test_gb_capped_run_skips_krull(capsysbinary):
    code, d = run_json(["gb", "run", "--n", "4", "--cap", "2"], capsysbinary)
    assert code == 0
    assert d["payload"]["complete"] is False
    assert "krull-dimension" not in {c["name"] for c in d["checks"]}


@pytest.mark.parametrize("argv", [
    ["gb", "run", "--n", "4", "--field", "prime:2"],
    ["gb", "run", "--kind", "bnm", "--n", "3", "--m", "2", "--field", "prime:2"],
])
def test_gb_over_gf2_matches_qq(argv, capsysbinary):
    # the relations keep their -1 coefficients when the field changes, so the
    # cross-field check compares GF(2) with the same ideal over QQ
    code, d = run_json(argv, capsysbinary)
    (cross,) = [c for c in d["checks"] if c["name"] == "groebner-cross-field"]
    assert cross["inputs"]["fields"] == "GF(2) vs QQ" and cross["status"] == "pass"
    assert code == 0 and d["overall"] == "pass"


def test_koszul_command(capsysbinary):
    code, d = run_json(["koszul", "--n", "4", "--kmax", "3"], capsysbinary)
    assert code == 0
    assert d["payload"]["tower"] == [1, 8, 34, 112]
    assert d["payload"]["verdict"] == "match"


def test_koszul_budget_refusal_exit_code(capsys):
    code = cli.main(["koszul", "--n", "5", "--kmax", "4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "refused" in err


@pytest.mark.parametrize("argv,err", [
    (["singular", "--n", "5"], "810616950 minors of size 8 exceed the budget 20000"),
    (["singular", "--kind", "bnm", "--n", "4", "--m", "2"],
     "556212800 minors of size 9 exceed the budget 20000"),
])
def test_singular_refuses_before_building_the_presentation(argv, err, monkeypatch, capsys):
    built = []
    for name in ("build_an", "build_bnm"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: built.append(name))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"psiring: refused: {err}\n"
    assert built == []


def test_sample_command(capsysbinary):
    code, d = run_json(["sample", "--n", "4", "--count", "5"], capsysbinary)
    assert code == 0
    assert len(d["payload"]["points"]) == 5
    assert {c["status"] for c in d["checks"]} == {"pass"}


@pytest.mark.parametrize("argv", [
    ["singular", "--n", "3", "--budget", "0"],
    ["singular", "--kind", "bnm", "--n", "2", "--m", "1", "--budget", "0"],
], ids=" ".join)
def test_singular_codimension_zero_needs_no_minor_budget(argv, capsysbinary):
    # codimension 0: the locus is cut out by the unit, no minor is expanded
    code, d = run_json(argv, capsysbinary)
    assert code == 0
    assert d["payload"]["codim"] == 0
    assert [(c["name"], c["status"]) for c in d["checks"]] == [("singular-locus-bound", "pass")]


@pytest.mark.parametrize("argv,names,got", [
    (["gb", "run", "--n", "7", "--cap", "4"], ["groebner-cross-field"],
     "not run: 265 members above 200"),
    (["verify-theorem-a", "--n", "7", "--max-total", "2"],
     ["groebner-slice-agreement", "krull-dimension"], "not run: n = 7 above 6"),
], ids=["gb run --n 7 --cap 4", "verify-theorem-a --n 7 --max-total 2"])
def test_checks_above_a_size_cut_off_are_reported_not_run(argv, names, got, capsysbinary):
    code, d = run_json(argv, capsysbinary)
    assert code == 0
    skipped = [c for c in d["checks"] if c["name"] in names]
    assert [c["name"] for c in skipped] == names
    assert {(c["status"], c["got"]) for c in skipped} == {("informative", got)}


def test_singular_command(capsysbinary):
    code, d = run_json(["singular", "--n", "4"], capsysbinary)
    assert code == 0
    assert d["payload"]["singular_dim"] == 0


def test_verify_theorem_a(capsysbinary):
    code, d = run_json(["verify-theorem-a", "--n", "4", "--max-total", "4"], capsysbinary)
    assert code == 0
    names = [c["name"] for c in d["checks"]]
    assert "groebner-slice-agreement" in names
    assert d["config"]["subcommand"] == "verify-theorem-a"


@pytest.mark.parametrize("argv", [
    ["hilbert", "lee", "--n", "2", "--kind", "an"],
    ["hilbert", "lee", "--n", "4", "--max-total", "-1"],
    ["presentation", "dump", "--n", "4", "--m", "1"],
    ["presentation", "dump", "--n", "4", "--pivot", "spiral"],
    ["koszul", "--kind", "bnm", "--n", "3", "--m", "1"],
    ["sample", "--n", "4", "--count", "0"],
    ["gb", "run", "--n", "4", "--field", "galois"],
    ["verify-theorem-a", "--kind", "bnm", "--n", "3", "--m", "1"],
    ["gb", "run", "--n", "4", "--field", "prime:100"],
    ["sample", "--n", "4", "--count", "2", "--threads", "0"],
    ["hilbert", "verify", "--n", "4", "--max-total", "1", "--threads", "-3"],
    # B(2,100) is valid, but its 102 points cannot be drawn distinct from [-50, 50]
    ["sample", "--kind", "bnm", "--n", "2", "--m", "100", "--count", "1"],
    # --m applies to --kind bnm only, also where no presentation is built
    ["hilbert", "lee", "--n", "4", "--m", "3", "--max-total", "1"],
    ["koszul", "--n", "4", "--m", "3", "--kmax", "2"],
    ["gb", "run", "--n", "4", "--cap", "-1"],
    ["gb", "run", "--n", "4", "--order", "bogus"],
    ["hilbert", "verify", "--n", "4", "--pivot", "custom:2,x,4,3"],
    ["koszul", "--n", "4", "--kmax", "-1"],
    # a negative budget is a usage error, not a refusal; --budget 0 stays valid
    ["singular", "--n", "4", "--budget", "-1"],
    ["koszul", "--n", "4", "--kmax", "3", "--budget", "-5"],
])
def test_usage_errors_exit_two(argv, capsys):
    assert cli.main(argv) == 2
    assert "error" in capsys.readouterr().err


def exit_code(argv):
    """cli.main's return value, or the code of the SystemExit argparse raises."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    # --field is read only by presentation, gb and singular
    ["hilbert", "verify", "--n", "4", "--max-total", "2", "--field", "prime:97"],
    ["koszul", "--n", "4", "--kmax", "2", "--field", "prime:97"],
    ["sample", "--n", "4", "--count", "2", "--field", "prime:97"],
    ["verify-theorem-a", "--n", "4", "--max-total", "2", "--field", "prime:97"],
    # --pivot applies to A_n only
    ["presentation", "dump", "--kind", "bnm", "--n", "3", "--m", "2",
     "--pivot", "custom:2,3,1"],
    ["hilbert", "brute", "--kind", "bnm", "--n", "3", "--m", "2", "--max-total", "2",
     "--pivot", "custom:2,3,1"],
    ["gb", "run", "--kind", "bnm", "--n", "3", "--m", "1", "--pivot", "custom:2,3,1"],
    # koszul validates the pivot it now uses, whatever kmax
    ["koszul", "--n", "4", "--kmax", "1", "--pivot", "custom:1,2,3,4"],
    # hilbert lee builds no presentation, yet refuses a pivot as the others do
    ["hilbert", "lee", "--kind", "bnm", "--n", "3", "--m", "2", "--pivot", "custom:2,3,1"],
])
def test_ignored_flags_are_rejected(argv, capsys):
    assert exit_code(argv) == 2
    assert "error" in capsys.readouterr().err


def test_koszul_honours_pivot(capsysbinary):
    code, d = run_json(["koszul", "--n", "4", "--kmax", "3", "--pivot", "custom:2,1,4,3"],
                       capsysbinary)
    assert code == 0
    assert d["payload"]["tower"] == [1, 8, 34, 112]
    assert d["config"]["pivot"] == "custom:2,1,4,3"
    assert d["config"]["field"] == "rational"


def test_hilbert_lee_refuses_n_as_verify_does(capsys):
    # B_(2,0) is A_2, so --kind bnm --m 0 is refused with the same message
    errs = []
    for action in ("lee", "verify"):
        for kind in ([], ["--kind", "bnm", "--m", "0"]):
            assert cli.main(["hilbert", action, *kind, "--n", "2"]) == 2
            errs.append(capsys.readouterr().err)
    assert errs == ["psiring: error: B_(n,0) = A_n needs n >= 3, got n=2\n"] * 4


def test_hilbert_lee_validates_pivot(capsys):
    # lee builds no presentation, yet it refuses a pivot no presentation could take
    base = ["hilbert", "lee", "--n", "4", "--max-total", "1"]
    assert cli.main(base + ["--pivot", "custom:9,9,9,9"]) == 2
    assert "error" in capsys.readouterr().err
    assert cli.main(base + ["--pivot", "custom:2,1,4,3"]) == 0


def test_math_failure_exits_one(monkeypatch, capsysbinary):
    # force a wrong dimension through the krull hook: the report must fail
    monkeypatch.setattr(cli, "krull_dimension", lambda gb: -99)
    code, d = run_json(["gb", "run", "--n", "4"], capsysbinary)
    assert code == 1
    assert d["overall"] == "fail"


def test_koszul_b2_is_computed_below_kmax_two(monkeypatch, capsysbinary):
    # force a wrong stage-2 dimension: the kmax = 1 report must fail on koszul-b2
    real = cli.koszul_summary

    def wrong_b2(n, kmax, **kwargs):
        summary = real(n, kmax, **kwargs)
        stages = list(summary.stages)
        stages[2] = replace(stages[2], dual_dim=stages[2].dual_dim + 1)
        return replace(summary, stages=tuple(stages))

    monkeypatch.setattr(cli, "koszul_summary", wrong_b2)
    code, d = run_json(["koszul", "--n", "4", "--kmax", "1"], capsysbinary)
    assert code == 1
    assert [c["status"] for c in d["checks"] if c["name"] == "koszul-b2"] == ["fail"]


def test_out_writes_file(tmp_path, capsysbinary):
    target = tmp_path / "r.json"
    code = cli.main(["presentation", "dump", "--n", "4", "--out", str(target),
                     "--format", "json"])
    assert code == 0
    assert capsysbinary.readouterr().out == b""
    assert json.loads(target.read_text())["overall"] == "pass"


def test_unwritable_out_is_a_usage_error(tmp_path, capsysbinary):
    target = tmp_path / "missing" / "r.json"
    code = cli.main(["presentation", "dump", "--n", "4", "--out", str(target)])
    assert code == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.startswith(b"psiring: error: cannot write --out ")
    assert not target.exists()


def test_unexpected_exception_exits_three(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("simulated internal fault")

    monkeypatch.setitem(cli.DISPATCH, "presentation", crash)
    assert cli.main(["presentation", "dump", "--n", "4"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "RuntimeError: simulated internal fault" in err


def test_koszul_expands_the_prediction_once(monkeypatch, capsysbinary):
    # the report reads b_2 from the summary; only koszul_summary expands to kmax
    import psiring.koszul as koszul
    asked = []
    real = koszul.koszul_prediction

    def spy(n, kmax):
        asked.append(kmax)
        return real(n, kmax)

    monkeypatch.setattr(koszul, "koszul_prediction", spy)
    code, d = run_json(["koszul", "--n", "3", "--kmax", "40"], capsysbinary)
    assert code == 0
    assert d["payload"]["tower"] == [1, 3, 3, 1] + [0] * 37
    assert len([k for k in asked if k >= 40]) == 1


def test_thread_count_does_not_change_bytes(capsysbinary):
    outs = []
    for t in ("1", "8"):
        _, out = run(["sample", "--n", "5", "--count", "8", "--threads", t,
                      "--format", "json"], capsysbinary)
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for t in ("1", "8"):
        _, out = run(["hilbert", "verify", "--n", "4", "--max-total", "4",
                      "--threads", t, "--format", "csv"], capsysbinary)
        outs.append(out)
    assert outs[0] == outs[1]


HASH_SEED_SCRIPT = """
import contextlib, hashlib, io, sys
from psiring import cli
for argv in (["hilbert", "verify", "--n", "5", "--max-total", "4"], ["gb", "run", "--n", "5"],
             ["singular", "--n", "4"], ["koszul", "--n", "4", "--kmax", "4"],
             ["sample", "--n", "4", "--count", "5"]):
    out = io.TextIOWrapper(io.BytesIO())
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    out.flush()
    print(hashlib.sha256(out.buffer.getvalue()).hexdigest())
"""


def test_reports_do_not_depend_on_the_hash_seed():
    # set and dict iteration orders change with PYTHONHASHSEED, in a fresh interpreter each
    digests = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT],
                              capture_output=True, env=env)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert len(digests[0]) == 5
    assert digests[0] == digests[1]


# reports of every subcommand family, pinned byte for byte
REPORT_PINS = [
    (["hilbert", "brute", "--n", "5", "--max-total", "4"],
     "67f8a718bac28601ea91460dc2039e73e59e82a2ce0459d061ba06bfea0d2c0a"),
    (["hilbert", "brute", "--kind", "bnm", "--n", "3", "--m", "2", "--max-total", "4",
      "--format", "csv"],
     "214c796afa67c2c07f361f62bef173737e82cfd4d9f1f96f4f306e31bb68e664"),
    (["hilbert", "verify", "--n", "6", "--max-total", "3", "--pivot", "custom:3,1,2,5,6,4"],
     "9cf02934594e598f29dca43a7401a77fce1926d9aa8d9af82c0c2a612e819c6d"),
    (["verify-theorem-a", "--n", "5", "--max-total", "4"],
     "bba0829ef15f207d3d5a91be5470dab641ddf9e84b6279e97e9f0d2ef5cdef7d"),
    (["koszul", "--n", "4", "--kmax", "5"],
     "add33ff0e94eed12f2eedfcc80114761081912f03b97363a99b22da8a667c09f"),
    (["singular", "--kind", "bnm", "--n", "2", "--m", "2"],
     "0bd376e703d0e272aa31338181d55db7fe6d4d9e988d277ad68cd18bfb1829a8"),
    (["sample", "--kind", "bnm", "--n", "4", "--m", "3", "--count", "30", "--seed", "7"],
     "57122e9b9e537f0a96ec47b8f10caf121812a98a8b7e98fed384a0a14eb7ee28"),
    # Groebner bases in every order and field, capped and uncapped, and singular's run
    (["gb", "run", "--n", "5", "--order", "lex"],
     "6963e6c0273d1313d35c64bcf8832733217660f415d527e61d1929c35e6ade61"),
    (["gb", "run", "--n", "5", "--order", "block"],
     "0c532f201081a83271c21dd23f04da7a683ecfcfa12af82bc9fa6f367bcf2600"),
    (["gb", "run", "--n", "5", "--field", "prime", "--pivot", "custom:3,1,5,2,4"],
     "900b3468cde9415ad9aa7c7de0311b82d3eca07cbe7a71f349b667adafc9f5af"),
    (["gb", "run", "--kind", "bnm", "--n", "3", "--m", "2"],
     "31c3fafe9dbae724bc59c8cbee338a5c992255ecd0474fb3e65e70ef090e0766"),
    (["gb", "run", "--n", "6"],
     "4ef6345df803a33cbe9f25eaf6123423b23e8b1d73c92214a926646de900f6a7"),
    (["gb", "run", "--n", "7", "--cap", "3"],
     "e08c5a347d0cf48bdec6eb478c9d7bb5a68307e1b51cf3343f6691da2ddfaefd"),
    (["singular", "--n", "4", "--pivot", "custom:3,4,1,2"],
     "70aaca93386bbfd0cbfb506d710017a97525a3ed1685ba69e895ed18b2b11443"),
    # singular where the linear preprocessing is not certified and keeps a batch
    (["singular", "--n", "4", "--field", "prime:3"],
     "d68b0aabfd9bd5fd94bff4e4e9d76a31db51fe76049ac28e13ea6ae57eadb5a4"),
    (["singular", "--kind", "bnm", "--n", "3", "--m", "1", "--field", "prime:2"],
     "82d67136ee1a0f73983d0d9ff75b423e7d742a4cb8f2af2051f1e852dacf9ec5"),
    # where coefficients are read mod p: minors, a completion and a dump over
    # GF(2), and a lex completion of B(3,2) over QQ
    (["singular", "--n", "4", "--field", "prime:2"],
     "faf1f7a9cfd8946ebe9ebcdc1f1e2f1393dd14210c6f8887a195cf3da9ef5c28"),
    (["gb", "run", "--n", "5", "--field", "prime:2"],
     "13e21670f7ad45bf65dbdb2438eae2afb0aeba6ae88493bc113262f739cb7fe9"),
    (["presentation", "dump", "--n", "4", "--field", "prime:2"],
     "90e164823e47634f491be2737181a548771eab0a942c15dc486637f17a119423"),
    (["gb", "run", "--kind", "bnm", "--n", "3", "--m", "2", "--order", "lex"],
     "ed687acdd853b25d2cd50160e9ab2260ec32b331257e43098aafe1488ee41f7e"),
    # the series in every format, standard monomial counts, leading terms of a capped run
    (["hilbert", "lee", "--n", "5", "--max-total", "6", "--format", "csv"],
     "955f4381b8ecf8911270a9688c0d70a102442f539f724fb5cf0f87d0f9fbfe53"),
    (["hilbert", "verify", "--kind", "bnm", "--n", "2", "--m", "2", "--max-total", "5",
      "--format", "md"],
     "e19d3c0239da14c6b4191d3700e2f60da687741d6d63e0894c461333511d1499"),
    (["hilbert", "verify", "--n", "3", "--max-total", "4"],
     "48bf1fba93c2892a28cdf8048b1826b0b66841eefff7294c334c0b873194d879"),
    (["hilbert", "verify", "--kind", "bnm", "--n", "2", "--m", "2", "--max-total", "5"],
     "4ab1e4827d88f2aa9985b7fde41cae5318681488c213580c0d234f03cc63e4ca"),
    (["hilbert", "lee", "--kind", "bnm", "--n", "3", "--m", "2", "--max-total", "4",
      "--format", "md"],
     "dec77ba6a44fdcdad4af57499c32221f583aa3b4fe490e11ef001e6460163adb"),
    (["hilbert", "verify", "--n", "4", "--max-total", "4", "--format", "csv"],
     "0acdb563b6a785e15928293bf4c783eae2da592d26c82f82add8202d240306c7"),
    (["hilbert", "lee", "--n", "3", "--max-total", "4", "--format", "csv"],
     "267b76d8c23d30c62f3f99de88d14661394e076e962a8d599f8a03d5cb5a0b4f"),
    (["verify-theorem-a", "--n", "4", "--max-total", "5"],
     "39a5efbc74281ccbfd68ff893ccb297cbccb867cc4e6919db5a3d9dcb7f596d0"),
    (["gb", "run", "--n", "4", "--cap", "2"],
     "732c61d16a3a8154dea7c0b5ee37317f340cf1e0dcebd4dd77cceb318d191eab"),
    # slices of up to 400 columns, and every relation_rows
    (["hilbert", "brute", "--kind", "bnm", "--n", "3", "--m", "3", "--max-total", "5"],
     "12a4ce36f2776ad511eb494c4f9298c0d8d884466d08c9d093ea72d9b6759a12"),
    # A(6): 15 slices of 256 columns, each ranked over Z like the narrower ones
    (["hilbert", "brute", "--n", "6", "--max-total", "4"],
     "8f0fe89664b30858563f5e8a8b7698de51a8db00ebeef09670090ab936a363a3"),
    # the method column of every narrow slice of A(5), under two pivot schemes
    (["hilbert", "brute", "--n", "5", "--max-total", "5"],
     "fef3caaafbebb225dc4b854530ce3d6438ca8f42623b8112acdea6ebf47180be"),
    (["hilbert", "brute", "--n", "5", "--max-total", "4", "--pivot", "custom:3,1,5,2,4"],
     "ac00023ffb9b5d5848d3b1b31e77374d20f1f4d8cba8dc62e0543cb0d97c13b7"),
    # A(7) and A(8), where one slice per S_n orbit is ranked: 792 and 1287 slices
    (["hilbert", "verify", "--n", "7", "--max-total", "5"],
     "56cd7d3f5e427172a49cf0301b8b33c2934f3ed600f6d8c6535b019ef3fd01e9"),
    (["hilbert", "verify", "--n", "8", "--max-total", "5"],
     "2bb15e2416ccf130c509bcb9685ab84f034fa0593ed957489f087da05be156bb"),
]


@pytest.mark.parametrize("argv,digest", REPORT_PINS, ids=[" ".join(a) for a, _ in REPORT_PINS])
def test_report_is_pinned(argv, digest, capsysbinary):
    code, out = run(argv, capsysbinary)
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == digest


def test_seed_changes_sample_payload(capsysbinary):
    _, d1 = run_json(["sample", "--n", "4", "--count", "3", "--seed", "1"], capsysbinary)
    _, d2 = run_json(["sample", "--n", "4", "--count", "3", "--seed", "2"], capsysbinary)
    assert d1["payload"] != d2["payload"]
    _, d3 = run_json(["sample", "--n", "4", "--count", "3", "--seed", "1"], capsysbinary)
    assert d1["payload"] == d3["payload"]


def test_timings_are_opt_in(capsysbinary):
    _, d = run_json(["hilbert", "lee", "--n", "4", "--max-total", "2"], capsysbinary)
    assert "timings" not in d
    _, d = run_json(["hilbert", "lee", "--n", "4", "--max-total", "2",
                     "--timings"], capsysbinary)
    assert d["timings"]


@pytest.mark.parametrize("fmt,section", [("csv", "# timings\nname,seconds\ngb run,"),
                                          ("md", "## timings\n- gb run: ")])
def test_timings_reach_every_format(fmt, section, capsysbinary):
    argv = ["gb", "run", "--n", "4", "--format", fmt]
    _, plain = run(argv, capsysbinary)
    _, timed = run(argv + ["--timings"], capsysbinary)
    assert "timings" not in plain.decode()
    assert section in timed.decode()


def test_timings_cover_the_whole_command(monkeypatch, capsysbinary):
    # verify-theorem-a runs its Groebner check after the slice comparison
    real = cli.groebner_for

    def slow_groebner_for(*args, **kwargs):
        time.sleep(0.3)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "groebner_for", slow_groebner_for)
    code, d = run_json(["verify-theorem-a", "--n", "4", "--max-total", "1", "--timings"],
                       capsysbinary)
    assert code == 0
    (phase, seconds), = d["timings"].items()
    assert phase == "verify-theorem-a"
    assert seconds >= 0.3


SRC = Path(__file__).resolve().parents[1] / "src"
PYPROJECT = SRC.parent / "pyproject.toml"


def test_sources_parse_at_the_declared_minimum_python():
    """Every file in src/, tests/ and demos/ parses under the grammar of the
    `requires-python` minimum in pyproject.  This checks syntax only, as far
    as ast's feature_version reaches: stdlib APIs newer than that minimum,
    such as tomllib (3.11), are not covered; the tests import tomllib through
    importorskip."""
    minimum = re.search(r'^requires-python = ">=3\.(\d+)"$', PYPROJECT.read_text(), re.M)
    version = (3, int(minimum.group(1)))
    paths = sorted(p for d in ("src", "tests", "demos") for p in (SRC.parent / d).rglob("*.py"))
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def declared_script():
    """The `psiring` entry of `[project.scripts]` in the checkout's pyproject."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return metadata.EntryPoint(name="psiring", value=scripts["psiring"],
                               group="console_scripts")


def run_entry(ep, args):
    # what the wrapper generated for a console script does
    wrapper = (f"import sys\nfrom {ep.module} import {ep.attr}\n"
               f"sys.argv[0] = {ep.name!r}\nsys.exit({ep.attr}())\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", wrapper, *args],
                          capture_output=True, env=env)


def test_console_script_installed():
    ep = declared_script()
    assert ep.load() is cli.main
    done = run_entry(ep, ["presentation", "dump", "--n", "4", "--format", "json"])
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["overall"] == "pass"
    for argv in (["bogus"], ["presentation", "dump", "--n", "2"]):
        done = run_entry(ep, argv)
        assert done.returncode == 2
        assert "psiring: error:" in done.stderr.decode()


def psiring_installed():
    try:
        metadata.distribution("psiring")
    except metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(not psiring_installed(),
                    reason="no psiring distribution is installed")
def test_installed_console_script_on_path():
    script = shutil.which("psiring")
    assert script
    installed = metadata.distribution("psiring").entry_points.select(
        group="console_scripts", name="psiring")
    assert [ep.value for ep in installed] == [declared_script().value]
    done = subprocess.run([script, "presentation", "dump", "--n", "4"],
                          capture_output=True)
    assert done.returncode == 0, done.stderr
