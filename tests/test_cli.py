import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import qvbs
from qvbs import cli, suites, transfercorr, vbsstate
from qvbs.cli import main
from qvbs.weylrep import StateVector, weight_radicand

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_state_csv(capsys):
    code, out, _ = run(capsys, "state", "--spin", "1", "--length", "2",
                       "--bc", "pbc", "--q", "4/5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,value,source"
    assert len(lines) == 4
    assert all(line.endswith("chain_state_pbc") for line in lines[1:])


def test_state_exact_json(capsys):
    code, out, _ = run(capsys, "state", "--spin", "1", "--length", "2",
                       "--bc", "open", "--p1", "1", "--p2", "1", "--exact")
    assert code == 0
    data = json.loads(out)
    assert data["bc"] == "open"
    assert data["amplitudes"]["1;-1"] == {"1": "1"}
    assert data["amplitudes"]["0;0"] == {"-1": "-1"}


@pytest.mark.parametrize("argv, state", (
    (["--spin", "1", "--length", "6"], lambda: vbsstate.build_pbc(1, 6)),
    (["--spin", "2", "--length", "4", "--bc", "open", "--p1", "2", "--p2", "1"],
     lambda: vbsstate.build_open(2, 4, 2, 1)),
))
def test_state_csv_matches_exact_amplitudes(capsys, argv, state):
    # the values come from per-site root tables; the reference evaluates each
    # exact amplitude, the open chain's radical prefactor included
    code, out, _ = run(capsys, "state", "--q", "4/5", *argv)
    assert code == 0
    st = state()
    rows = out.strip().splitlines()[1:]
    assert len(rows) == len(st.amps)
    for row in rows:
        key, value, _ = row.split(",")
        mvec = tuple(int(m) for m in key.split(";"))
        rad = Fraction(1)
        for f in st.prefactor + tuple(weight_radicand(st.S, m) for m in mvec):
            rad *= f.eval_fraction(Fraction(4, 5))
        ref = float(st.amps[mvec].eval_fraction(Fraction(4, 5))) * math.sqrt(rad)
        assert abs(float(value) - ref) <= 1e-14 * abs(ref)


# sha256 of the CSV stdout: each value is a correctly rounded exact
# amplitude times correctly rounded roots (math.sqrt, not libm's pow), so the
# bytes do not depend on the platform
STATE_CSV_DIGESTS = {
    ("--spin", "2", "--length", "4", "--q", "4/5"):
        "86073d1bbf2da954afff5fda1b20162e4d428007ffc45b73ba27ff033fb297ea",
    ("--spin", "3", "--length", "3", "--bc", "open", "--p1", "2", "--p2", "4",
     "--q", "7/3"):
        "9d4a0e4b5199770058e285697721a0990783237c6c2ad5aab1d6eb14edd1f615",
}


@pytest.mark.parametrize("argv", sorted(STATE_CSV_DIGESTS))
def test_state_csv_bytes_are_pinned(capsys, argv):
    code, out, err = run(capsys, "state", *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == STATE_CSV_DIGESTS[argv]


@pytest.mark.parametrize("spin", ("-1", "0"))
def test_state_rejects_spin_below_one(capsys, spin):
    # S = 0 printed an empty-bond state and S = -1 a degree error
    for extra in ([], ["--exact"], ["--bc", "open"]):
        code, out, err = run(capsys, "state", "--spin", spin, "--length", "3",
                             *extra)
        assert code == 2 and out == ""
        assert err == "error: need S >= 1\n"


def test_state_determinism(capsys):
    a = run(capsys, "state", "--spin", "2", "--length", "3", "--q", "0.8")
    b = run(capsys, "state", "--spin", "2", "--length", "3", "--q", "4/5")
    assert a == b


@pytest.mark.parametrize("labels", (["--p1", "9"], ["--p2", "1"],
                                    ["--p1", "1", "--p2", "1"]))
def test_state_pbc_rejects_boundary_labels(capsys, labels):
    # a periodic chain has no ends: the labels used to be ignored, exit 0
    for bc in ([], ["--bc", "pbc"]):
        code, out, err = run(capsys, "state", "--spin", "1", "--length", "3",
                             *bc, *labels)
        assert code == 2 and out == ""
        assert err == "error: --p1 and --p2 apply only to --bc open\n"


def test_state_open_labels_default_to_one(capsys):
    for tail in ([], ["--exact"]):
        argv = ["state", "--spin", "2", "--length", "3", "--bc", "open",
                "--q", "4/5"] + tail
        bare = run(capsys, *argv)
        assert bare[0] == 0
        assert bare == run(capsys, *argv, "--p1", "1", "--p2", "1")
        assert bare == run(capsys, *argv, "--p2", "1")


def test_state_budget_is_checked_for_a_cached_chain(capsys, monkeypatch):
    argv = ("state", "--spin", "1", "--length", "4")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    # 3^4 amplitudes at 256 B each is about 0.02 MB
    for value in ("nan", "0.01"):
        monkeypatch.setenv("QVBS_BUDGET_MB", value)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "QVBS_BUDGET_MB" in err
    monkeypatch.delenv("QVBS_BUDGET_MB")
    assert run(capsys, *argv)[0] == 0


def _oracle_csv(state, bc, q0):
    values = oracles.float_amplitudes(state, q0)
    return "m,value,source\n" + "".join(
        "%s,%r,chain_state_%s\n" % (";".join(map(str, k)), values[k], bc)
        for k in sorted(values))


def test_state_cache_is_invisible(capsys):
    # numeric CSVs read from a cached chain, interleaved over two chains and
    # two q and repeated, equal a fresh build through the per-amplitude loop
    chains = (
        (["--spin", "1", "--length", "6"], "pbc",
         lambda: vbsstate.build_pbc(1, 6)),
        (["--spin", "2", "--length", "4", "--bc", "open", "--p1", "2",
          "--p2", "3"], "open", lambda: vbsstate.build_open(2, 4, 2, 3)),
    )
    for _ in range(2):
        for q in ("4/5", "7/3"):
            for argv, bc, build in chains:
                code, out, err = run(capsys, "state", "--q", q, *argv)
                assert code == 0 and err == ""
                assert out == _oracle_csv(build(), bc, Fraction(q))
    # the exact output after those numeric queries is the pinned one
    for argv, bc, _ in chains:
        code, out, _ = run(capsys, "state", "--exact", *argv)
        digest = hashlib.sha256(
            json.dumps(json.loads(out), sort_keys=True).encode()).hexdigest()
        assert code == 0 and digest == EXACT_DIGESTS[("state", bc)]


def test_cached_chain_builds_its_layout_once(capsys, monkeypatch):
    # float_values, both state outputs and the annihilation check all read
    # the one array layout that the cached chain keeps
    builds = []
    layout = StateVector.layout

    def spy(self):
        builds.append(self._layout is None)
        return layout(self)

    monkeypatch.setattr(StateVector, "layout", spy)
    cli._chain_state.cache_clear()
    argv = ("state", "--spin", "2", "--length", "4")
    assert run(capsys, *argv, "--q", "4/5")[0] == 0
    st = cli._chain_state(2, 4, "pbc", None, None)[0]
    st.float_values(Fraction(7, 3))
    code, out, _ = run(capsys, *argv, "--exact")
    assert code == 0 and json.loads(out)["amplitudes"]
    assert vbsstate.verify_annihilation(st)["all_zero"]
    assert builds.count(True) == 1 and len(builds) >= 3


def test_chain_state_cache_is_bounded(capsys):
    # one bounded cache holds each chain with its sorted rows, for the
    # numeric and the exact output alike
    info = cli._chain_state.cache_info()
    assert info.maxsize is not None and 0 < info.maxsize <= 16
    for L in range(2, 7):
        for p1 in (1, 2):
            for p2 in (1, 2):
                assert run(capsys, "state", "--spin", "1", "--length", str(L),
                           "--bc", "open", "--p1", str(p1),
                           "--p2", str(p2), "--exact")[0] == 0
    assert cli._chain_state.cache_info().currsize <= info.maxsize


def test_state_rows_cache_is_bounded(capsys):
    # the q-free sorted rows are cached with their chain, so the numeric
    # queries stay within the chain cache's bound and reuse its rows
    cli._chain_state.cache_clear()
    maxsize = cli._chain_state.cache_info().maxsize
    for L in range(2, 7):
        for p1 in (1, 2):
            for p2 in (1, 2):
                assert run(capsys, "state", "--spin", "1", "--length", str(L),
                           "--bc", "open", "--p1", str(p1), "--p2", str(p2),
                           "--q", "4/5")[0] == 0
    assert cli._chain_state.cache_info().currsize <= maxsize
    st, rows = cli._chain_state(1, 6, "open", 2, 2)
    assert cli._chain_state.cache_info().hits >= 1
    assert [key for key, _ in rows] == sorted(
        ";".join(map(str, k)) for k in st.amps)


def test_eigenvalues_json(capsys):
    code, out, _ = run(capsys, "eigenvalues", "--spin", "2", "--q", "1",
                       "--check-conjecture")
    assert code == 0
    data = json.loads(out)
    assert data["degeneracies"] == [1, 3, 5]
    assert data["conjecture_match"] is True
    assert round(data["group_values"][0]) == 40


def test_eigenvalues_exact_serialization(capsys):
    code, out, _ = run(capsys, "eigenvalues", "--spin", "1", "--q", "1", "--exact")
    data = json.loads(out)
    assert data["exact_closed_form"][0]["num"] == {"2": "1", "0": "1", "-2": "1"}
    assert data["exact_closed_form"][1]["num"] == {"0": "-1"}


# sha256 of json.dumps(..., sort_keys=True) of the exact outputs; the float
# fields are left out because their last digits depend on the LAPACK build
EXACT_DIGESTS = {
    ("eigenvalues", 1): "6dfa3efcf3995b73715967496eb7fffee12915c5cab1ff42acc8951f8d2b6bce",
    ("eigenvalues", 2): "78ee021652da653e4bc9ddd6f42ad8f070b7e6bf3b6a15f69bdf46b013e87583",
    ("eigenvalues", 3): "0109f5f55a1c8becd30210f0d3eb804c56adb6056d7646f32b89c56af3275936",
    ("eigenvalues", 4): "84b503dd4344c59fca5b2cc723d9bf5bad57f950f3d1d9834b2e50aee0757360",
    ("eigenvalues", 5): "8f235ef7107317a5c924231e92ce422920364e6f2469da56634ed0178efae379",
    ("eigenvalues", 6): "efe3342c8e0f49ef1b0837447aa6f4ccb736d9beabe83a6fac277072c798358e",
    ("state", "pbc"): "23eff0296695d97ac3e0cff00fe509cee46bb14dc7733c250c40bb8956b2d6b5",
    ("state", "open"): "f96b1656c191503e6a8387107faa22e2227d13a272470291c553ba5ca614bd06",
    ("state", "open", 2, 2): "ad539333626784b974a1dd883c39889b5c49f99e0cc3a38f1746d111d4e12a96",
}

# sha256 of the full stdout of `verify --suite X --seed 1`, exact suites only
EXACT_SUITE_DIGESTS = {
    "algebra": "54130e6fafab1d2a6f5f8e7b055fa0152841262c4b9805e8a66244a25f248e88",
    "certificates": "f18e1f29693928d12d9ba2ceffc82008bfd7fc75cfdd3b2d4c6f5b69b2c1d3a4",
    "divisibility": "1abfe198362a5360a05b477323a6bc80ccbb3c2a9474a30f730575ffd0bb8a22",
    "groundstate": "3c31a4f5b84bd4ea9206904dc0a198211713c28de803a73f2112ce739852d056",
    "mps": "8bcdc0bb5697cc90c33562583fe4b0f0ee4c93d8d97cbd187f2ab1d972e01492",
}


def test_exact_serializations_are_pinned(capsys):
    def digest(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return json.loads(out)

    got = {}
    for S in range(1, 7):
        data = digest("eigenvalues", "--spin", str(S), "--q", "4/5", "--exact")
        got[("eigenvalues", S)] = data["exact_closed_form"]
    got[("state", "pbc")] = digest("state", "--spin", "1", "--length", "6",
                                   "--exact")
    got[("state", "open")] = digest("state", "--spin", "2", "--length", "4",
                                    "--bc", "open", "--p1", "2", "--p2", "3",
                                    "--exact")
    # equal end radicands: the prefactor prints as 1*q + 1*q^-1, no sqrt
    got[("state", "open", 2, 2)] = digest(
        "state", "--spin", "2", "--length", "4", "--bc", "open", "--p1", "2",
        "--p2", "2", "--exact")
    got = {k: hashlib.sha256(json.dumps(v, sort_keys=True).encode()).hexdigest()
           for k, v in got.items()}
    assert got == EXACT_DIGESTS
    reports = {}
    for suite in EXACT_SUITE_DIGESTS:
        code, out, _ = run(capsys, "verify", "--suite", suite, "--seed", "1")
        assert code == 0
        reports[suite] = hashlib.sha256(out.encode()).hexdigest()
    assert reports == EXACT_SUITE_DIGESTS


def test_correlator_csv_with_closed_form(capsys):
    code, out, _ = run(capsys, "correlator", "--spin", "2", "--q", "1",
                       "--mode", "thermo", "--r-min", "2", "--r-max", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,value,closed_form_value,abs_diff,source"
    row = lines[1].split(",")
    assert float(row[3]) < 1e-12
    assert float(row[1]) == pytest.approx(-1.5, abs=1e-12)


def test_correlator_finite_mode(capsys):
    code, out, _ = run(capsys, "correlator", "--spin", "1", "--q", "0.9",
                       "--mode", "finite", "--length", "12", "--r-max", "4")
    assert code == 0
    assert "two_point_trace_finite" in out


def test_correlator_argument_errors(capsys):
    code, _, err = run(capsys, "correlator", "--spin", "2", "--mode", "finite",
                       "--r-max", "4")
    assert code == 2 and "length" in err
    code, _, _ = run(capsys, "correlator", "--spin", "2", "--r-min", "1")
    assert code == 2
    code, _, _ = run(capsys, "correlator", "--spin", "2", "--op", "sx")
    assert code == 2


@pytest.mark.parametrize("length", ("12", "0"))
def test_correlator_thermo_rejects_length(capsys, length):
    # thermo mode ignored --length and printed the infinite-chain values
    code, out, err = run(capsys, "correlator", "--spin", "2", "--mode",
                         "thermo", "--length", length, "--r-max", "4")
    assert code == 2 and out == ""
    assert err == "error: --length applies only to --mode finite\n"


def test_correlator_former_nan_rows_are_finite(capsys):
    # printed 0.0, nan, nan and exited 0 before the eigenbasis layer
    code, out, _ = run(capsys, "correlator", "--spin", "5", "--q", "0.9",
                       "--r-min", "44", "--r-max", "46")
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert len(values) == 3
    assert all(math.isfinite(v) and v != 0.0 for v in values)


@pytest.mark.parametrize("spin, q, r", (
    ("2", "1", "441"), ("3", "1", "189"), ("2", "1/2", "232"), ("3", "1/2", "86"),
))
def test_correlator_closed_form_finite_at_large_r(capsys, spin, q, r):
    # (2, 1, 441) printed nan and exited 0; the others exited 2 on overflow
    code, out, err = run(capsys, "correlator", "--spin", spin, "--q", q,
                         "--r-min", r, "--r-max", r)
    assert code == 0 and err == ""
    row = out.strip().splitlines()[1].split(",")
    assert all(math.isfinite(float(v)) for v in row[1:4])


def test_correlator_non_finite_exits_2(capsys, monkeypatch):
    good = transfercorr.spectral_data(2, Fraction(9, 10))
    broken = transfercorr.Spectral(good.es, good.w, np.full_like(good.sz, np.nan))
    monkeypatch.setattr(transfercorr, "_spectral", lambda S, q: broken)
    for mode in (["--mode", "thermo"], ["--mode", "finite", "--length", "20"]):
        code, out, err = run(capsys, "correlator", "--spin", "2", "--q", "0.9",
                             *mode)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "not finite" in err


def test_prob_csv(capsys):
    code, out, _ = run(capsys, "prob", "--spin", "2", "--q", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,probability,source"
    probs = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(probs) == 5
    assert abs(sum(probs) - 1) < 1e-12


def test_verify_divisibility_spin(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "divisibility", "--spin", "2")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["id"] == "divisibility"
    vectors = data["details"]["vectors"]
    assert len(vectors) == 9
    assert {(r["S"], r["remainder_zero"]) for r in vectors} == {(2, True)}


@pytest.mark.parametrize("suite, spin", (("divisibility", "3"),
                                         ("certificates", "6")))
def test_verify_spin_prints_the_suite_report_shape(capsys, suite, spin):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--seed", "1")
    assert code == 0
    default = json.loads(out)
    code, out, _ = run(capsys, "verify", "--suite", suite, "--spin", spin)
    assert code == 0
    data = json.loads(out)
    assert set(data) == set(default) == {"id", "description", "source",
                                         "passed", "details"}
    assert (data["id"], data["source"]) == (default["id"], default["source"])
    assert set(data["details"]) <= set(default["details"])


@pytest.mark.parametrize("spin", ("-1", "0"))
def test_verify_divisibility_rejects_spin_below_one(capsys, spin):
    code, out, err = run(capsys, "verify", "--suite", "divisibility",
                         "--spin", spin)
    assert code == 2 and out == ""
    assert err.startswith("error: need S >= 1")


def test_verify_suite_json_and_exit(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "algebra")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert "elapsed_s" not in json.dumps(data)


@pytest.mark.parametrize("name, option, value", [
    (name, "seed", 1) for name in sorted(suites.SUITE_BY_NAME)
] + [("divisibility", "spin", 2), ("certificates", "spin", 3)])
def test_verify_prints_the_runner_report(capsys, name, option, value):
    code, out, _ = run(capsys, "verify", "--suite", name,
                       "--" + option, str(value))
    rep = suites.run_suite(name, **{option: value})
    assert out == cli._json_text(rep)
    assert code == 0 and rep["passed"] is True
    assert "elapsed_s" not in out


def test_verify_symmetries_serializes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "symmetries")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(row["match"] is True for row in data["details"]["bar_symmetry"])


def test_verify_spin_only_for_divisibility(capsys):
    code, out, err = run(capsys, "verify", "--suite", "groundstate",
                         "--spin", "3")
    assert code == 2 and out == ""
    assert err == ("error: --spin applies only to --suite divisibility "
                   "or certificates\n")
    # --spin is checked before the suite name
    assert run(capsys, "verify", "--suite", "nope", "--spin", "3") == (
        code, out, err)


def test_verify_certificates_spin(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "certificates",
                       "--spin", "8")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["id"] == "exact_certificates"
    assert data["details"] == {"spectrum_certificates": [
        {"S": 8, "proved": True, "commutations": 8, "trace_identities": 9}]}


@pytest.mark.parametrize("spin", ("-1", "0"))
def test_verify_certificates_rejects_spin_below_one(capsys, spin):
    code, out, err = run(capsys, "verify", "--suite", "certificates",
                         "--spin", spin)
    assert code == 2 and out == ""
    assert err == "error: need S >= 1\n"


def test_verify_certificates_spin_exit_codes(capsys, monkeypatch):
    monkeypatch.setattr(transfercorr, "conjecture_exact_certificate",
                        lambda S: {"S": S, "proved": False})
    code, out, _ = run(capsys, "verify", "--suite", "certificates",
                       "--spin", "2")
    assert code == 1 and json.loads(out)["passed"] is False
    monkeypatch.undo()
    monkeypatch.setenv("QVBS_BUDGET_MB", "0.1")
    code, out, err = run(capsys, "verify", "--suite", "certificates",
                         "--spin", "4")
    assert code == 2 and out == "" and "QVBS_BUDGET_MB" in err


def test_verify_certificates_spin_fails_on_a_slipped_core(capsys, slipped_rule):
    # one flipped sign in the entry rule the core is built from
    slipped_rule(3, 4, 22, lambda sign: -sign)
    code, out, _ = run(capsys, "verify", "--suite", "certificates",
                       "--spin", "3")
    data = json.loads(out)
    assert code == 1 and data["passed"] is False
    assert data["details"]["spectrum_certificates"][0]["proved"] is False


@pytest.mark.parametrize("command", ("eigenvalues", "correlator", "prob"))
def test_transfer_build_is_charged_to_the_budget(capsys, monkeypatch, command):
    # S=30 builds 961x961 matrices and their eigensystem, about 60 MB of
    # resident memory that the budget did not count
    monkeypatch.setenv("QVBS_BUDGET_MB", "3")
    code, out, err = run(capsys, command, "--spin", "30", "--q", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: transfer_matrix(S=30) needs")
    assert "QVBS_BUDGET_MB" in err and err.count("\n") == 1


@pytest.mark.parametrize("value", ("nan", "inf", "-1", "abc", ""))
def test_budget_variable_must_be_a_finite_number(capsys, monkeypatch, value):
    # nan and inf used to lift every memory cap without a word
    monkeypatch.setenv("QVBS_BUDGET_MB", value)
    code, out, err = run(capsys, "state", "--spin", "1", "--length", "4")
    assert code == 2 and out == "" and "QVBS_BUDGET_MB" in err


def test_verify_oracle_is_deterministic(capsys):
    a = run(capsys, "verify", "--suite", "oracle")
    b = run(capsys, "verify", "--suite", "oracle")
    assert a[0] == 0 and a == b


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2 and "unknown suite" in err


def test_verify_failing_suite_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(
        suites.SUITE_BY_NAME, "always-red",
        lambda: {"id": "always-red", "passed": False, "details": {}})
    code, out, _ = run(capsys, "verify", "--suite", "always-red")
    assert code == 1


@pytest.mark.parametrize("argv", (
    ["correlator", "--spin", "2", "--q", "1e20"],
    ["correlator", "--spin", "2", "--q", "1e-30"],
    ["prob", "--spin", "2", "--q", "1e400"],
    ["eigenvalues", "--spin", "2", "--q", "1e-400"],
    ["state", "--spin", "1", "--length", "3", "--q", "1e400"],
    # the transfer matrix overflowed to inf and NaN with numpy warnings, and
    # the NaNs reached the eigensolver: "Eigenvalues did not converge"
    ["correlator", "--spin", "3", "--q", "1e20"],
    ["eigenvalues", "--spin", "3", "--q", "1e20"],
    ["prob", "--spin", "3", "--q", "1e20"],
))
def test_far_q_overflow_is_argument_error(capsys, argv):
    # these died with an OverflowError traceback and exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: %s at q=%s:" % (argv[0], argv[-1]))
    assert err.count("\n") == 1


def test_state_non_finite_amplitude_exits_2(capsys):
    # every factor is a finite float, their product overflows
    code, out, err = run(capsys, "state", "--spin", "2", "--length", "3",
                         "--q", "1e30")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not finite" in err


def test_bad_q_is_argument_error(capsys):
    code, _, err = run(capsys, "prob", "--spin", "2", "--q", "-3")
    assert code == 2


def test_reproduce_paper_writes_report(tmp_path, capsys, monkeypatch):
    # patch the battery down to two fast suites; the full battery runs in
    # the acceptance tests
    monkeypatch.setattr(suites, "ACCEPTANCE_SUITES", ("spectrum", "algebra"))
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "reproduce-paper", "--output", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["passed"] is True
    assert [it["id"] for it in data["items"]] == ["spectrum_s2", "algebra"]
    assert "PASS" in out
    # the run time goes to the progress lines on stderr, not to the report
    assert re.fullmatch(r"criterion 1 spectrum_s2 {16}PASS  \(\d+\.\ds\)\n"
                        r"criterion 2 algebra {20}PASS  \(\d+\.\ds\)\n", err)
    assert "elapsed_s" not in out_path.read_text()


def test_package_imports_without_scipy():
    # numpy is the only runtime dependency: importing every module in a fresh
    # interpreter must not pull in scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(qvbs.__file__)))
    code = (
        "import importlib, pkgutil, sys, qvbs\n"
        "names = [m.name for m in pkgutil.iter_modules(qvbs.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('qvbs.' + name)\n"
        "print(' '.join(names))\n"
        "print(sorted(k for k in sys.modules\n"
        "             if k == 'scipy' or k.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    names, loaded = proc.stdout.split("\n")[:2]
    assert {"cgproj", "cli", "mpscore", "suites"} <= set(names.split())
    assert loaded == "[]"


def test_package_runs_with_optional_dependencies_blocked():
    # scipy, sympy and hypothesis are blocked outright, so any import of them
    # by a package module, at load time or in a command, fails
    src = os.path.dirname(os.path.dirname(os.path.abspath(qvbs.__file__)))
    code = (
        "import importlib, pkgutil, sys\n"
        "for name in ('scipy', 'sympy', 'hypothesis'):\n"
        "    sys.modules[name] = None\n"
        "import qvbs\n"
        "for m in pkgutil.iter_modules(qvbs.__path__):\n"
        "    importlib.import_module('qvbs.' + m.name)\n"
        "from qvbs.cli import main\n"
        "assert main(['prob', '--spin', '2', '--q', '1/2']) == 0\n"
        "assert main(['state', '--spin', '1', '--length', '3', '--exact']) == 0\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", (
    ("eigenvalues", "--spin", "-1"),
    ("prob", "--spin", "-1"),
    ("correlator", "--spin", "-1", "--mode", "finite", "--length", "5"),
))
def test_numeric_commands_reject_negative_spin(capsys, argv):
    # np.eye(2S+1) used to fail first, with "negative dimensions"
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: need S >= 1\n"


# the benchmark's sixteen-point q grid
CORRELATOR_Q = ("1/2", "4/7", "3/5", "2/3", "5/7", "4/5", "9/10", "1", "10/9",
                "5/4", "7/5", "3/2", "5/3", "7/4", "9/5", "2")


def _oracle_correlator_csv(S, q, L, rs):
    """The correlator CSV from the per-r oracles, closed-form columns at
    S = 2 and 3 in thermo mode."""
    q0 = Fraction(q)
    rows = []
    for r in rs:
        if L is None:
            val = oracles.two_point_thermo("sz", "sz", S, q0, r)
            if S in (2, 3):
                cf = transfercorr.closed_form_szsz(S, q0, r)
                rows.append("%d,%r,%r,%r,two_point_spectral_thermo\n"
                            % (r, val, cf, abs(val - cf)))
            else:
                rows.append("%d,%r,,,two_point_spectral_thermo\n" % (r, val))
        else:
            val = oracles.two_point_finite("sz", "sz", S, q0, L, r)
            rows.append("%d,%r,,,two_point_trace_finite\n" % (r, val))
    return "r,value,closed_form_value,abs_diff,source\n" + "".join(rows)


@pytest.mark.parametrize("S", range(1, 7))
def test_correlator_csv_matches_the_per_r_oracle(capsys, S):
    for q in CORRELATOR_Q:
        for L, r_min, r_max in ((None, 2, 60), (4000, 2, 60), (37, 20, 37)):
            mode = (["--mode", "thermo"] if L is None
                    else ["--mode", "finite", "--length", str(L)])
            code, out, err = run(capsys, "correlator", "--spin", str(S),
                                 "--q", q, *mode, "--r-min", str(r_min),
                                 "--r-max", str(r_max))
            assert (code, err) == (0, "")
            assert out == _oracle_correlator_csv(S, q, L,
                                                 range(r_min, r_max + 1))


@pytest.mark.parametrize("argv, err", (
    # an invalid first r comes before the spin, a later one after it
    (("--spin", "-1", "--mode", "finite", "--length", "1", "--r-min", "2",
      "--r-max", "3"), "need 2 <= r <= L"),
    (("--spin", "-1", "--mode", "finite", "--length", "30", "--r-min", "25",
      "--r-max", "40"), "need S >= 1"),
    (("--spin", "0", "--mode", "thermo"), "need S >= 1"),
    (("--spin", "3", "--q", "1/2", "--mode", "finite", "--length", "30",
      "--r-min", "25", "--r-max", "40"), "need 2 <= r <= L"),
    # the overflow comes at the first r, before the r past L
    (("--spin", "3", "--q", "1e30", "--mode", "finite", "--length", "30",
      "--r-min", "25", "--r-max", "40"), "correlator at q=1e30: float overflow "
     "(integer division result too large for a float)"),
    (("--spin", "6", "--q", "1e-30", "--mode", "thermo"), "correlator at "
     "q=1e-30: float overflow (integer division result too large for a float)"),
    # the closed form fails at one r of the range, after the rows before it
    (("--spin", "3", "--q", "1/1000", "--r-max", "60"), "correlator at "
     "q=1/1000: FloatingPointError (closed form underflows at r=52)"),
))
def test_correlator_range_errors(capsys, argv, err):
    code, out, got = run(capsys, "correlator", *argv)
    assert (code, out, got) == (2, "", "error: %s\n" % err)
