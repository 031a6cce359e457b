import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ndqc
from ndqc import cli, commsim, polys, querysim, report
from ndqc.boolfn import make_named
from ndqc.polys import parse_poly, verify_ndet, weight_offset_poly


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_or4_measures(self, capsys):
        code, out = run_cli(["analyze", "--family", "OR", "--n", "4"], capsys)
        assert code == 0
        rep = json.loads(out)
        m = rep["measures"]
        assert m["ndeg"] == 1 and m["C1"] == 1 and m["C0"] == 4
        assert m["N"] == 1 and m["NQ"] == 1

    def test_parity_table(self, capsys):
        code, out = run_cli(["analyze", "--table", "n=2;hex=6"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["measures"]["deg"] == 2
        assert rep["measures"]["ndeg"] == 1
        w = parse_poly(rep["witness"], 2)
        assert w.degree == 1
        assert verify_ndet(w, make_named("PARITY", 2))

    def test_const0_error_entry(self, capsys):
        code, out = run_cli(["analyze", "--family", "CONST0", "--n", "3"],
                            capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["measures"]["ndeg"] == {"error": "IdenticallyZero"}
        assert rep["witness"] is None

    def test_bad_table_exits_nonzero(self, capsys):
        code, _ = run_cli(["analyze", "--table", "n=2;hex=zz"], capsys)
        assert code == 2

    def test_requires_one_source(self, capsys):
        code, _ = run_cli(["analyze"], capsys)
        assert code == 2

    def test_determinism(self, capsys):
        _, out1 = run_cli(["analyze", "--family", "PARITY", "--n", "3"],
                          capsys)
        _, out2 = run_cli(["analyze", "--family", "PARITY", "--n", "3"],
                          capsys)
        assert out1 == out2

    def test_seed_echoed(self, capsys):
        _, out = run_cli(["--seed", "77", "analyze", "--family", "OR",
                          "--n", "2"], capsys)
        assert json.loads(out)["seed"] == 77


class TestTheorems:
    def test_n1_exhaustive(self, capsys):
        code, out = run_cli(["theorems", "--n", "1", "--exhaustive"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["all_pass"]
        assert all(iq["passes"] == 4 and iq["total"] == 4
                   for iq in rep["inequalities"])

    def test_n2_exhaustive(self, capsys):
        code, out = run_cli(["theorems", "--n", "2", "--exhaustive"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert all(iq["passes"] == 16 for iq in rep["inequalities"])

    def test_sampled(self, capsys):
        code, out = run_cli(["theorems", "--n", "4", "--samples", "40",
                             "--seed", "7"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["samples"] == 40 and rep["all_pass"]

    @pytest.mark.parametrize("argv", [
        ["--n", "3", "--samples", "0"], ["--n", "3", "--samples", "-5"],
        ["--n", "0", "--exhaustive"], ["--n", "-1", "--exhaustive"],
        ["--n", "0", "--samples", "5"], ["--n", "-1", "--samples", "5"]])
    def test_bad_arguments_exit_2(self, argv, capsys):
        assert cli.main(["theorems", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1].startswith("theorems: ")

    def test_cap(self, capsys):
        code, _ = run_cli(["theorems", "--n", "4", "--exhaustive"], capsys)
        assert code == 2


class TestSeparation:
    def test_query_n4(self, capsys):
        code, out = run_cli(["separation", "query", "--n", "4"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["all_pass"]
        assert rep["values"]["NQ"] == 1 and rep["values"]["N"] == 4
        assert rep["values"]["ndeg_complement"] >= 3

    def test_query_n2_witness(self, capsys):
        code, out = run_cli(["separation", "query", "--n", "2"], capsys)
        rep = json.loads(out)
        assert code == 0
        names = [c["name"] for c in rep["checks"]]
        assert "complement_witness_x1_minus_x2" in names

    def test_comm_n3(self, capsys):
        code, out = run_cli(["separation", "comm", "--n", "3"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["values"]["rank"] <= 4
        assert rep["values"]["protocol_cost"] <= 3
        assert rep["values"]["fooling_bound"] == 4

    def test_ne_n6(self, capsys):
        code, out = run_cli(["separation", "ne", "--n", "6"], capsys)
        assert code == 0
        values = json.loads(out)["values"]
        assert values["cost"] == 2
        assert values["cov1_ne"] == {"1": 2, "2": 4, "3": 5}
        assert values["ncc_ne"] == {"1": 2, "2": 3, "3": 4}

    def test_ne_above_cap_exits_2(self, capsys):
        code = cli.main(["separation", "ne", "--n", str(commsim.PAIR_CAP + 1)])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "capped at n<=10" in err

    def test_ne_zero_check_can_fail(self, monkeypatch, capsys):
        # a quarter turn has finite order: acceptance 0 at x - y = 2
        monkeypatch.setattr(commsim, "_rotation_power", _quarter_turn)
        code, out = run_cli(["separation", "ne", "--n", "3"], capsys)
        checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert code == 1 and checks["protocol_spec_agrees"]
        assert checks["zero_iff_equal_exhaustive"] is False
        assert checks["matches_sin2_formula"] is False
        code, checks = _checks_under_O(_QUARTER_TURN_UNDER_O)
        assert code == 1 and checks["zero_iff_equal_exhaustive"] is False
        assert checks["matches_sin2_formula"] is False

    def test_ne_protocol_check_can_fail(self, monkeypatch, capsys):
        monkeypatch.setattr(commsim, "ne_protocol_spec",
                            _bob_one_step_ahead(commsim.ne_protocol_spec))
        code, out = run_cli(["separation", "ne", "--n", "3"], capsys)
        checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert code == 1 and checks["zero_iff_equal_exhaustive"]
        assert checks["protocol_spec_agrees"] is False
        code, checks = _checks_under_O(_BOB_AHEAD_UNDER_O)
        assert code == 1 and checks["protocol_spec_agrees"] is False

    @pytest.mark.parametrize("which, n, message", [
        ("comm", 0, f"n=0 outside 1..{commsim.PAIR_CAP}"),
        ("ne", 0, f"n=0 outside 1..{commsim.PAIR_CAP}"),
        ("comm", commsim.PAIR_CAP + 1,
         f"pair functions capped at n<={commsim.PAIR_CAP}"),
    ])
    def test_pair_arity_outside_range_exits_2(self, which, n, message,
                                              capsys):
        code = cli.main(["separation", which, "--n", str(n)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == f"separation {which}: {message}"

    @pytest.mark.parametrize("n", [0, 11, 17, 25])
    def test_query_arity_outside_range_exits_2(self, n, capsys):
        # one range check, before any evaluation, states the ndeg cap
        code = cli.main(["separation", "query", "--n", str(n)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == \
            f"separation query: n={n} outside 1..{polys.NDEG_CAP}"

    def test_query_float_mode(self, capsys):
        code, out = run_cli(["--mode", "float", "separation", "query",
                             "--n", "3"], capsys)
        assert code == 0 and json.loads(out)["all_pass"]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_query_acceptance_check_can_fail(self, mode, monkeypatch,
                                             capsys):
        # compile |x| (a witness for OR) in place of |x| - 1: the cost
        # stays 1, the acceptance no longer equals c^2 p(x)^2 / 2^n
        real = querysim.compile_from_ndet_poly
        monkeypatch.setattr(
            querysim, "compile_from_ndet_poly",
            lambda p, f: real(weight_offset_poly(f.n, 0),
                              make_named("OR", f.n)))
        code, out = run_cli(["--mode", mode, "separation", "query",
                             "--n", "3"], capsys)
        checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert code == 1 and checks["compiled_cost_1"]
        assert checks["compiled_acceptance_c2p2"] is False

    def test_query_acceptance_check_sees_whole_state(self, monkeypatch,
                                                     capsys):
        # negate H[1][1] of every dense gate: the accepting amplitude reads
        # only row 0 of each gate, so only the whole state's norm moves
        real = querysim._symbolic_unitary

        def flipped(amps, gate, num_qubits, n):
            re = [list(row) for row in gate.matrix.re]
            re[1][1] = -re[1][1]
            bad = SimpleNamespace(qubits=gate.qubits,
                                  matrix=SimpleNamespace(re=re))
            return real(amps, bad, num_qubits, n)

        monkeypatch.setattr(querysim, "_symbolic_unitary", flipped)
        code, out = run_cli(["separation", "query", "--n", "4"], capsys)
        checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert code == 1 and checks["compiled_cost_1"]
        assert checks["compiled_acceptance_c2p2"] is False

    def test_query_acceptance_check_sees_one_numerator(self, monkeypatch,
                                                       capsys):
        monkeypatch.setattr(querysim, "symbolic_simulate",
                            _bump_one_numerator(querysim.symbolic_simulate))
        code, out = run_cli(["separation", "query", "--n", "4"], capsys)
        checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert code == 1 and checks["compiled_acceptance_c2p2"] is False
        # the same fault under python -O, which strips assert statements
        code, checks = _checks_under_O(_BUMP_UNDER_O)
        assert code == 1 and checks["compiled_acceptance_c2p2"] is False

    def test_comm_acceptance_check_sees_one_factor_entry(self, monkeypatch,
                                                         capsys):
        monkeypatch.setattr(commsim, "_rank_factors",
                            _bump_one_factor(commsim._rank_factors))
        code, out = run_cli(["separation", "comm", "--n", "3"], capsys)
        checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert code == 1 and checks["cost_le_log_n_plus_1"]
        assert checks["protocol_accepts_iff_f1"] is False
        code, checks = _checks_under_O(_FACTOR_UNDER_O)
        assert code == 1 and checks["protocol_accepts_iff_f1"] is False

    def test_comm_acceptance_check_ties_sweep_to_protocol(self, monkeypatch,
                                                          capsys):
        # doubling row 0 keeps acceptance / M^2 of rank one; only the
        # simulated protocol runs disagree with it
        real = commsim.svd_acceptance_sweep
        monkeypatch.setattr(commsim, "svd_acceptance_sweep", lambda M: [
            [2 * a for a in row] if x == 0 else row
            for x, row in enumerate(real(M))])
        code, out = run_cli(["separation", "comm", "--n", "3"], capsys)
        checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert code == 1 and checks["protocol_accepts_iff_f1"] is False

    def test_comm_acceptance_check_fails_on_zero_corner(self, monkeypatch,
                                                        capsys):
        # b_0 = 0 makes acceptance 0 at (0, 0), where the check reads its
        # scale; it must report the check false, not divide by zero
        real = commsim._rank_factors

        def zero_b0(M):
            a, b = real(M)
            return a, [[0] * len(b[0])] + b[1:]
        monkeypatch.setattr(commsim, "_rank_factors", zero_b0)
        code, out = run_cli(["separation", "comm", "--n", "3"], capsys)
        checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert code == 1 and checks["protocol_accepts_iff_f1"] is False


def _checks_under_O(source):
    """(exit code, check name -> pass) of a script run under python -O."""
    path = os.pathsep.join([str(Path(ndqc.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    proc = subprocess.run([sys.executable, "-O", "-c", source],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout, proc.stderr
    return proc.returncode, {c["name"]: c["pass"]
                             for c in json.loads(proc.stdout)["checks"]}


def _bump_one_numerator(real):
    """symbolic_simulate with 1 added to the lowest-mask numerator of the
    first amplitude off the output qubit, which acceptance never reads."""
    def bumped(algo):
        sym = real(algo)
        label = min(lbl for lbl in sym.amplitudes
                    if not lbl >> sym.output_qubit & 1)
        amp = sym.amplitudes[label]
        m = min(amp.nums)
        amps = dict(sym.amplitudes)
        amps[label] = dataclasses.replace(
            amp, nums={**amp.nums, m: amp.nums[m] + 1})
        return dataclasses.replace(sym, amplitudes=amps)
    return bumped


_BUMP_UNDER_O = """
import sys
from ndqc import cli, querysim
from test_cli import _bump_one_numerator
querysim.symbolic_simulate = _bump_one_numerator(querysim.symbolic_simulate)
sys.exit(cli.main(["separation", "query", "--n", "4"]))
"""


def _bump_one_factor(real):
    """_rank_factors with 1 added to the first entry of the last b_y."""
    def bumped(M):
        a, b = real(M)
        return a, b[:-1] + [[b[-1][0] + 1] + b[-1][1:]]
    return bumped


_FACTOR_UNDER_O = """
import sys
from ndqc import cli, commsim
from test_cli import _bump_one_factor
commsim._rank_factors = _bump_one_factor(commsim._rank_factors)
sys.exit(cli.main(["separation", "comm", "--n", "3"]))
"""


def _quarter_turn(k):
    """(a, b) with a + ib = i^k, in place of (3 + 4i)^k."""
    return ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]


_QUARTER_TURN_UNDER_O = """
import sys
from ndqc import cli, commsim
from test_cli import _quarter_turn
commsim._rotation_power = _quarter_turn
sys.exit(cli.main(["separation", "ne", "--n", "3"]))
"""


def _bob_one_step_ahead(real):
    """ne_protocol_spec with Bob rotating back by (y + 1) theta."""
    def spec(n):
        s = real(n)
        alice, bob = s.rounds
        return dataclasses.replace(s, rounds=(alice, commsim.Round(
            "B", 1, lambda y: bob.ops(y + 1))))
    return spec


_BOB_AHEAD_UNDER_O = """
import sys
from ndqc import cli, commsim
from test_cli import _bob_one_step_ahead
commsim.ne_protocol_spec = _bob_one_step_ahead(commsim.ne_protocol_spec)
sys.exit(cli.main(["separation", "ne", "--n", "3"]))
"""


def _or2_report(measures=(), check=()):
    """The OR_2 measure report with measures and the first check edited."""
    rep = report.build_measure_report(make_named("OR", 2), 1,
                                      {"mode": "exact"})
    rep["measures"].update(measures)
    rep["checks"][0].update(check)
    return json.dumps(rep)


class TestExport:
    def test_json_round_trip_bit_exact(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        cli.main(["--out", str(p), "analyze", "--family", "OR", "--n", "3"])
        capsys.readouterr()
        q = tmp_path / "r2.json"
        code = cli.main(["export", str(p), "--format", "json", "--out",
                         str(q)])
        assert code == 0
        assert p.read_bytes() == q.read_bytes()

    def test_csv_measure_report(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        cli.main(["--out", str(p), "analyze", "--family", "AND", "--n", "3"])
        capsys.readouterr()
        code, out = run_cli(["export", str(p), "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert "ndeg,3" in out

    def test_const0_report_exports(self, tmp_path, capsys):
        # the zero function's report holds deg = -1 and an error entry
        p = tmp_path / "r.json"
        cli.main(["--out", str(p), "analyze", "--family", "CONST0",
                  "--n", "3"])
        capsys.readouterr()
        code, out = run_cli(["export", str(p), "--format", "json"], capsys)
        assert code == 0 and out.encode() == p.read_bytes()
        code, out = run_cli(["export", str(p), "--format", "csv"], capsys)
        assert code == 0 and "deg,-1" in out.splitlines()

    def test_csv_theorem_suite_one_row_per_pair(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        cli.main(["--out", str(p), "theorems", "--n", "1", "--exhaustive"])
        capsys.readouterr()
        code, out = run_cli(["export", str(p), "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "function,inequality,pass"
        assert len(lines) == 1 + 4 * 6  # 4 functions x 6 inequalities

    def test_reanalyze_from_embedded_table(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        cli.main(["--out", str(p), "analyze", "--family", "NOT_ONE",
                  "--n", "3"])
        capsys.readouterr()
        rep = json.loads(p.read_text())
        code, out = run_cli(["analyze", "--table", rep["function"]], capsys)
        assert code == 0
        rep2 = json.loads(out)
        assert rep2["measures"] == rep["measures"]

    def test_missing_file(self, capsys):
        assert cli.main(["export", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("text", [
        "[{}]", "5", '{"results": 3}', '{"checks": [1]}',
        '{"results": [{"function": 1}]}',
        pytest.param(_or2_report(measures={"deg": {}}), id="measure-{}"),
        pytest.param(_or2_report(measures={"deg": [1]}), id="measure-[1]"),
        pytest.param(_or2_report(measures={"deg": -2}), id="measure-deg--2"),
        pytest.param(_or2_report(measures={"C0": -1}), id="measure-C0--1"),
        pytest.param(_or2_report(measures={"deg": True}), id="measure-true"),
        pytest.param(_or2_report(measures={"D": {"skipped": 5}}),
                     id="measure-skip-reason-5"),
        pytest.param(_or2_report(measures={"D": {"skipped": "a",
                                                 "error": "b"}}),
                     id="measure-two-tags"),
        pytest.param(_or2_report(measures={"D": {"capped": "a"}}),
                     id="measure-unknown-tag"),
        pytest.param(_or2_report(check={"pass": "no"}), id="check-pass-no"),
        pytest.param(_or2_report(check={"name": 5}), id="check-name-5"),
        pytest.param(_or2_report(check={"details": None}),
                     id="check-details-null")])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_malformed_report_exits_2(self, text, fmt, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert cli.main(["export", str(p), "--format", fmt]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("export: ")


@pytest.mark.parametrize("flag_first", [True, False],
                         ids=["flag-first", "flag-last"])
@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "OR", "--n", "3"],
    ["theorems", "--n", "2", "--samples", "3"],
    ["separation", "query", "--n", "3"],
    ["separation", "comm", "--n", "2"],
    ["separation", "ne", "--n", "2"],
])
def test_csv_format_matches_export(argv, flag_first, tmp_path, capsys):
    # --format is global: every command's CSV is the export of its JSON
    p = tmp_path / "r.json"
    code = cli.main(["--out", str(p)] + argv)
    capsys.readouterr()
    flag = ["--format", "csv"]
    got = run_cli(flag + argv if flag_first else argv + flag, capsys)
    assert got == (code, run_cli(["export", str(p), "--format", "csv"],
                                 capsys)[1])
    assert got[1].split("\n", 1)[0] in ("key,value", "check,pass,details",
                                        "function,inequality,pass")
    assert json.loads(p.read_text())  # the default stays JSON


@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "OR", "--n", "3"],
    ["theorems", "--n", "1", "--exhaustive"],
    ["separation", "ne", "--n", "2"],
    ["export", "REPORT"],
])
def test_unwritable_out_exits_2(argv, tmp_path, capsys):
    # an --out path that cannot be opened is a usage error, not a failed check
    report_path = tmp_path / "r.json"
    cli.main(["--out", str(report_path), "analyze", "--family", "OR",
              "--n", "2"])
    capsys.readouterr()
    argv = [str(report_path) if a == "REPORT" else a for a in argv]
    bad = tmp_path / "missing" / "x.json"
    assert cli.main(argv + ["--out", str(bad)]) == 2
    out, err = capsys.readouterr()
    command = " ".join(argv[:2]) if argv[0] == "separation" else argv[0]
    assert out == "" and err.splitlines()[-1].startswith(f"{command}: ")
    assert "No such file" in err and not bad.exists()


@pytest.mark.parametrize("flag_first", [True, False],
                         ids=["flag-first", "flag-last"])
@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "OR", "--n", "3"],
    ["theorems", "--n", "1", "--exhaustive"],
    ["separation", "comm", "--n", "2"],
    ["separation", "ne", "--n", "2"],
    ["export", "missing.json"],
])
def test_float_mode_only_for_separation_query(argv, flag_first, capsys):
    # no other command has a float path, so it may not claim one
    flag = ["--mode", "float"]
    assert cli.main(flag + argv if flag_first else argv + flag) == 2
    out, err = capsys.readouterr()
    command = " ".join(argv[:2]) if argv[0] == "separation" else argv[0]
    assert out == "" and err.splitlines()[-1] == (
        f"{command}: --mode float runs only for separation query")


class TestReportLoader:
    def test_strict_keys(self, tmp_path):
        rep = report.build_measure_report(make_named("OR", 2), 1,
                                          {"mode": "exact"})
        text = report.dump_report(rep)
        assert report.load_measure_report(text) == json.loads(text)
        bad = dict(json.loads(text))
        bad["extra"] = 1
        with pytest.raises(ValueError, match="unknown"):
            report.load_measure_report(json.dumps(bad))
        missing = dict(json.loads(text))
        del missing["seed"]
        with pytest.raises(ValueError, match="missing"):
            report.load_measure_report(json.dumps(missing))

    def test_witness_reverification(self):
        rep = report.build_measure_report(make_named("OR", 2), 1,
                                          {"mode": "exact"})
        rep["witness"] = "basis=MONOMIAL; terms=1*x{}"
        with pytest.raises(ValueError, match="witness"):
            report.load_measure_report(report.dump_report(rep))

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda rep: 5, id="top-level-number"),
        pytest.param(lambda rep: None, id="top-level-null"),
        pytest.param(lambda rep: dict(rep, measures=5), id="measures-number"),
        pytest.param(lambda rep: dict(rep, checks=[5]), id="check-number"),
        pytest.param(lambda rep: dict(rep, witness=5), id="witness-number"),
        pytest.param(lambda rep: dict(
            rep, witness="basis=MONOMIAL; terms=1/0*x{1}"),
            id="witness-zero-denominator"),
        pytest.param(lambda rep: dict(
            rep, witness="basis=MONOMIAL; terms=1e999999999*x{1}"),
            id="witness-exponent"),
    ])
    def test_malformed_input_raises_value_error(self, edit):
        rep = report.build_measure_report(make_named("OR", 2), 1,
                                          {"mode": "exact"})
        with pytest.raises(ValueError):
            report.load_measure_report(json.dumps(edit(rep)))

    def test_depth_skipped_above_cap(self):
        rep = report.build_measure_report(make_named("OR", 6), 1,
                                          {"mode": "exact"})
        assert "skipped" in rep["measures"]["D"]
        assert rep["measures"]["ndeg"] == 1


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "ndqc.cli", "analyze", "--family", "OR",
         "--n", "3"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["measures"]["ndeg"] == 1
    assert "seed=" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["separation", "query", "--n", "3", "--seed", "1"],
    ["analyze", "--family", "OR", "--n", "4"],
])
def test_python_O_same_report(argv, capsys):
    # python -O strips assert statements; the report must not change
    code, out = run_cli(argv, capsys)
    src = str(Path(ndqc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-m", "ndqc.cli"] + argv,
                          capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert code == proc.returncode == 0, proc.stderr
    assert proc.stdout == out.encode()


# sha256 of stdout at --seed 1, recorded before the classical measures moved
# to the subcube table; AND at n = 13 reads the C0/C1 and D skip strings
REPORT_SHA256 = {
    "analyze --family OR --n 10":
        "74cdf6f13e458f96e6f8f21ba4ae677e779675c41501182efbaed38fa1507610",
    # recorded when the ndeg witness became one kernel vector of the
    # reduced system, which changed only the witness string
    "analyze --family NOT_ONE --n 10":
        "2f87c8009827904ee63c4e01ae996fd66120471afb9b0f62cde3cc83be39e035",
    "analyze --family PARITY --n 5":
        "407295fb080db751968e15fbab4eaa09fa7c94cce2f1384616f5b49f8aebe087",
    "analyze --family AND --n 13":
        "788f250b89ac05dc2ce3d7643ec65cb729a8c6f80c36ed16fe84831fa966bc4c",
    "theorems --n 3 --exhaustive":
        "b7d35c1b208735048622cbd84ea3b1cc92f635e8aeaf58a81659fea73be21281",
    "theorems --n 5 --samples 50":
        "42954246277e39b193868b4a26c0010de903190d1d34946d40e02b58cc724278",
    # recorded before polynomials moved to integer numerators
    "separation query --n 6":
        "83f58d4fa90c29cd7b8453372644767a1158c64a8c05349cf3ca544b6c38615d",
    "separation query --n 10":
        "16a13d1a88b9522bae3ac7a0826315b2144494612ada1afd6be29be12562f995",
    # recorded before float simulation ran over blocks of inputs
    "--mode float separation query --n 8":
        "48a33474fbe26db8614e115bb9512cf278940ad1c7269eed1c6abf5ccc37e218",
    "--mode float separation query --n 10":
        "f6a29ffc06fc3cd977f380977b8de4ef306a37595250e9caf6ddaf9bb80b2289",
    # recorded when protocol_accepts_iff_f1 became exact, which changed
    # only its details string
    "separation comm --n 5":
        "eb19f4b76a4ad03b84072e1ebdffc2f8bd8f4571331a83eedb61b61f3127c7a1",
    # recorded when the rotation moved to the rational angle cos = 3/5,
    # which changed only the details strings
    "separation ne --n 3":
        "938e82bf09515b5c4fb1e251cb478cb7787ff102a260484db8289cb947de2a6d",
    # recorded before the cover search decided its last two rectangles by
    # the independence and bipartite tests
    "separation ne --n 8":
        "8f11dcc4496ee1a3b80c3a4d607d507d2d7dc0e3b6de26ca692eb9e716b7fabc",
}


@pytest.mark.parametrize("command", sorted(REPORT_SHA256))
def test_report_bytes_unchanged(command, capsys):
    code, out = run_cli(["--seed", "1"] + command.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[command]
