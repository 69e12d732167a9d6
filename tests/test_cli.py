"""End-to-end CLI tests: flags, output formats, exit codes."""

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polamp
from polamp import exact_distribution, load_scenario_file, sample
from polamp.cli import (
    _DISTRIBUTION_ROW,
    _SAMPLE_ROW,
    EXIT_CLOSED,
    EXIT_FILE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    _record,
    build_parser,
    run,
)

DATA = Path(__file__).parent / "data"

#: Every whole-output golden: (file under ``data``, argv, exit code). The run's
#: stdout must equal the file byte for byte.
GOLDEN_OUTPUTS = [
    # ``verify --machine`` as recorded with the earlier per-element amplitude kernels:
    # every residual, the errata set {Eq58, Eq59, Eq72} and the record layout
    ("verify_seed0_draws2000.txt", ["verify", "--machine", "--seed", "0", "--draws", "2000"], EXIT_OK),
    # as recorded before the suites ran over lane blocks: its draws span blocks of 8192,
    # 8192 and 3617 lanes, so every suite maximum and every erratum crosses two boundaries
    ("verify_seed7_draws20001.txt", ["verify", "--machine", "--seed", "7", "--draws", "20001"], EXIT_OK),
    # human output, as recorded before every record went through one writer
    ("verify_human_seed0_draws2000.txt", ["verify", "--draws", "2000"], EXIT_OK),
    # fails ten suites, so it holds the FAIL lines, all twelve ERRATUM lines and the
    # failure summary
    ("verify_human_seed0_draws100_tol1e-300.txt",
     ["verify", "--draws", "100", "--tolerance", "1e-300"], EXIT_VERIFY),
    # ``simulate --machine`` as recorded when every trial was classified on its own: the
    # counts of a seeded run are a contract. 1,000,003 trials make several default
    # blocks and a partial block of 3 mod 4
    ("simulate_two_stage.txt",
     ["simulate", str(DATA / "simulate_two_stage.json"), "--machine",
      "--seed", "20240611", "--trials", "1000003"], EXIT_OK),
    # its first stage equals the preparation, so 32 of its sequences have p = 0
    ("simulate_six_stage.txt",
     ["simulate", str(DATA / "simulate_six_stage.json"), "--machine",
      "--seed", "18446744073709551557", "--trials", "300000"], EXIT_OK),
]

#: Human and ``--machine`` output of amp, prob, operator (default and custom
#: eigenvalues), eigvec and expect, in degrees and with ``--rad``, as
#: recorded before the subcommands shared one angle-parsing path: each
#: ``$ argv`` line is followed by the output that command printed.
GOLDEN_LABELS = DATA / "label_subcommands.txt"

#: A valid invocation of every subcommand that takes angles on the command line.
LABEL_COMMANDS = {
    "amp": ["amp", "30", "0", "+", "0", "0", "+"],
    "prob": ["prob", "30", "0", "+", "0", "0", "+"],
    "operator": ["operator", "30", "0", "0", "0"],
    "eigvec": ["eigvec", "30", "0", "0", "0"],
    "expect": ["expect", "30", "0", "+", "0", "0"],
}

#: (subcommand, argv index) of every angle positional.
ANGLE_SLOTS = [
    (name, k)
    for name, argv in LABEL_COMMANDS.items()
    for k, token in enumerate(argv)
    if k > 0 and token not in ("+", "-")
]

NON_FINITE = ["nan", "inf", "-inf", "1e309"]

MALUS = {
    "initial": {"theta_deg": 0, "alpha_deg": 0, "branch": "+"},
    "stages": [{"theta_deg": 45, "alpha_deg": 0}, {"theta_deg": 90, "alpha_deg": 0}],
}


def fields(line):
    """Parse one machine-mode record into {key: value-string}."""
    head, *pairs = line.split(" ")
    out = {"_record": head}
    for pair in pairs:
        key, value = pair.split("=", 1)
        out[key] = value
    return out


def cplx(text):
    """Parse the machine-mode re+imi layout."""
    return complex(text.replace("i", "j"))


def run_capture(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out.strip().splitlines()


def machine_record(argv):
    """The fields of the one ``--machine`` record ``argv`` prints (no capsys, for hypothesis)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run([*argv, "--machine"]) == EXIT_OK
    (line,) = out.getvalue().splitlines()
    return fields(line)


#: A branch label as CLI arguments: angles in degrees, as ``repr`` writes them.
CLI_LABELS = st.tuples(
    st.floats(-720, 720).map(repr), st.floats(-720, 720).map(repr), st.sampled_from("+-")
)


def golden_label_records():
    """One ``(argv, output)`` param per record in ``GOLDEN_LABELS``."""
    records = []
    for line in GOLDEN_LABELS.read_text().splitlines(keepends=True):
        if line.startswith("$ "):
            records.append((line[2:].split(), []))
        else:
            records[-1][1].append(line)
    return [pytest.param(argv, "".join(out), id=" ".join(argv)) for argv, out in records]


def cli_run(argv):
    """``(exit code, stdout)`` of ``polamp argv``, a usage error's too (for hypothesis)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


#: The largest angle and eigenvalue the CLI accepts.
TOP_ANGLE, TOP_EIGENVALUE = math.nextafter(2.0**1023, 0.0), math.nextafter(2.0**511, 0.0)

#: Finite numbers as text: any double, and often one near a bound.
FINITE_TEXT = st.one_of(
    st.sampled_from([
        "1.7e308", "-1.7e308", repr(2.0**1023), repr(-(2.0**1023)), repr(TOP_ANGLE),
        repr(-TOP_ANGLE), repr(2.0**511), repr(-TOP_EIGENVALUE), "0", "-0.0", "30",
    ]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)

#: Every number in a record, ``nan`` and ``inf`` included, such as both parts of ``re+imi``.
NUMBER_TEXT = re.compile(r"nan|inf|[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?", re.I)


def with_positionals_after(argv, value):
    """``argv`` made safe for ``value``: after ``--`` argparse takes ``-inf`` as a value."""
    return [argv[0], "--", *argv[1:]] if value.startswith("-") else argv


@pytest.fixture
def malus_file(tmp_path):
    path = tmp_path / "malus.json"
    path.write_text(json.dumps(MALUS))
    return str(path)


# ---------------------------------------------------------------------------
# amp / prob
# ---------------------------------------------------------------------------

class TestAmp:

    def test_machine_cosine(self, capsys):
        code, lines = run_capture(capsys, ["amp", "30", "0", "+", "0", "0", "+", "--machine"])
        assert code == EXIT_OK
        rec = fields(lines[0])
        assert rec["_record"] == "amp"
        assert float(rec["re"]) == pytest.approx(math.cos(math.radians(30)), abs=1e-15)
        assert float(rec["im"]) == 0.0
        assert float(rec["modulus2"]) == pytest.approx(0.75, abs=1e-12)

    def test_machine_floats_round_trip(self, capsys):
        # 17 significant digits reproduce the double exactly
        _, lines = run_capture(capsys, ["amp", "30", "0", "+", "0", "0", "+", "--machine"])
        assert float(fields(lines[0])["re"]) == math.cos(math.radians(30))

    def test_circular_component(self, capsys):
        code, lines = run_capture(capsys, ["amp", "45", "90", "+", "0", "0", "-", "--machine"])
        rec = fields(lines[0])
        assert abs(float(rec["re"])) < 1e-12
        assert float(rec["im"]) == pytest.approx(math.sin(math.radians(45)), abs=1e-12)

    def test_identical_labels(self, capsys):
        code, lines = run_capture(capsys, ["amp", "17", "123", "-", "17", "123", "-", "--machine"])
        rec = fields(lines[0])
        assert float(rec["re"]) == pytest.approx(1.0, abs=1e-12)
        assert float(rec["im"]) == pytest.approx(0.0, abs=1e-12)

    def test_deg_rad_round_trip_is_exact(self, capsys):
        _, deg_lines = run_capture(capsys, ["amp", "33", "71", "+", "-10", "5", "-", "--machine"])
        rad_args = [repr(math.radians(x)) for x in (33.0, 71.0)] + ["+"] + [
            repr(math.radians(x)) for x in (-10.0, 5.0)
        ] + ["-"]
        _, rad_lines = run_capture(capsys, ["amp", *rad_args, "--rad", "--machine"])
        assert deg_lines == rad_lines

    def test_human_output(self, capsys):
        code, lines = run_capture(capsys, ["amp", "30", "0", "+", "0", "0", "+"])
        assert code == EXIT_OK
        assert "0.866025" in lines[0]
        assert "0.75" in lines[1]

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["amp", "30", "0", "x", "0", "0", "+"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["amp", "30", "0", "+", "0", "0", "+"],
            ["prob", "30", "0", "+", "0", "0", "+"],
            ["operator", "30", "0", "0", "0"],
            ["eigvec", "30", "0", "0", "0"],
            ["expect", "30", "0", "+", "0", "0"],
            ["simulate", "chain.json"],
        ],
    )
    def test_tolerance_flag_only_where_it_is_read(self, capsys, argv):
        # only verify reads a tolerance
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--tolerance", "1e-9"])
        assert exc.value.code == EXIT_USAGE

    def test_prob(self, capsys):
        code, lines = run_capture(capsys, ["prob", "30", "0", "+", "0", "0", "+", "--machine"])
        assert float(fields(lines[0])["value"]) == pytest.approx(0.75, abs=1e-12)

    def test_identical_labels_give_modulus_one_like_prob(self):
        # |z|^2 of this pair rounds to 1.0000000000000004; prob clamps it to 1
        label = ["8", "0", "+"]
        assert machine_record(["amp", *label, *label])["modulus2"] == "1"
        assert machine_record(["prob", *label, *label])["value"] == "1"

    @given(a=CLI_LABELS, b=st.none() | CLI_LABELS)
    @settings(max_examples=200, deadline=None)
    def test_modulus_is_prob_value(self, a, b):
        # b None: identical labels, where |z|^2 of some angles rounds above 1
        labels = [*a, *(b or a)]
        amp = machine_record(["amp", *labels])
        assert amp["modulus2"] == machine_record(["prob", *labels])["value"]


# ---------------------------------------------------------------------------
# whole-output goldens of verify and simulate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, argv, code", GOLDEN_OUTPUTS, ids=[row[0] for row in GOLDEN_OUTPUTS])
def test_output_matches_golden_record(capsys, name, argv, code):
    assert run(argv) == code
    assert capsys.readouterr().out == (DATA / name).read_text()


# ---------------------------------------------------------------------------
# every label subcommand: recorded output and the angle boundary
# ---------------------------------------------------------------------------

class TestLabelSubcommands:

    @pytest.mark.parametrize("argv, output", golden_label_records())
    def test_output_matches_golden_record(self, capsys, argv, output):
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == output

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name, slot", ANGLE_SLOTS)
    def test_non_finite_angle_is_a_usage_error(self, capsys, name, slot, value):
        argv = list(LABEL_COMMANDS[name])
        argv[slot] = value
        with pytest.raises(SystemExit) as exc:
            run(with_positionals_after(argv, value))
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "must be a finite number" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("flag", ["--r-plus", "--r-minus"])
    def test_non_finite_eigenvalue_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run([*LABEL_COMMANDS["operator"], f"{flag}={value}"])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "must be a finite number" in captured.err and captured.out == ""

    @settings(max_examples=300, deadline=None)
    @given(
        name_slot=st.sampled_from(ANGLE_SLOTS),
        text=st.one_of(
            st.text(),
            st.floats().map(repr),
            st.floats().map("{:e}".format),
            st.sampled_from(
                ["nan", "-nan", "Infinity", "-inf", "1e309", "-1e309", "1_0", "-1_0", "-0", "-1e", "-e5"]
            ),
        ),
    )
    def test_any_angle_text_exits_0_or_usage(self, name_slot, text):
        name, slot = name_slot
        argv = list(LABEL_COMMANDS[name])
        argv[slot] = text
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
        # 0 also covers text that argparse reads as --help
        assert code in (EXIT_OK, EXIT_USAGE)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(
        name_slot=st.sampled_from(ANGLE_SLOTS),
        value=st.floats(-1e300, -0.0),
        form=st.sampled_from(["{!r}", "{:e}", "{:E}", "{:.3e}", "{:.0E}", "{:.20g}"]),
    )
    def test_negative_angle_in_any_form_is_a_number(self, name_slot, value, form):
        # ``-1e5`` is an angle, as after ``--``, not an unknown flag that
        # shifts the positionals after it
        name, slot = name_slot
        text = form.format(value)
        argv = list(LABEL_COMMANDS[name])
        argv[slot] = text
        outputs = []
        for args in (argv, [argv[0], "--", *argv[1:]]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run(args) == EXIT_OK
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("units", [[], ["--rad"]])
    @pytest.mark.parametrize("name, slot", ANGLE_SLOTS)
    def test_angle_bound_is_2_to_the_1023(self, capsys, name, slot, units):
        # every angle text below the bound is accepted, in either unit
        for value, code in [(TOP_ANGLE, EXIT_OK), (2.0**1023, EXIT_USAGE)]:
            for text in (repr(value), repr(-value)):
                argv = list(LABEL_COMMANDS[name])
                argv[slot] = text
                assert cli_run([*argv, *units])[0] == code
        assert "must be a finite number below 2**1023 in magnitude" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--r-plus", "--r-minus"])
    def test_eigenvalue_bound_is_2_to_the_511(self, capsys, flag):
        for value, code in [(TOP_EIGENVALUE, EXIT_OK), (2.0**511, EXIT_USAGE)]:
            for text in (repr(value), repr(-value)):
                assert cli_run([*LABEL_COMMANDS["operator"], f"{flag}={text}"])[0] == code
        assert "must be a finite number below 2**511 in magnitude" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(list(LABEL_COMMANDS)),
        angles=st.lists(FINITE_TEXT, min_size=4, max_size=4),
        branches=st.lists(st.sampled_from("+-"), min_size=2, max_size=2),
        eigenvalues=st.lists(FINITE_TEXT, min_size=2, max_size=2),
        units=st.sampled_from([[], ["--rad"]]),
        machine=st.booleans(),
    )
    @example(name="amp", angles=["0", "1.7e308", "0", "-1.7e308"], branches=["+", "+"],
             eigenvalues=["1", "-1"], units=["--rad"], machine=True)
    @example(name="operator", angles=["30", "0", "10", "0"], branches=["+", "+"],
             eigenvalues=["1.7e308", "1.7e308"], units=[], machine=False)
    def test_finite_text_exits_usage_or_prints_finite_numbers(
        self, name, angles, branches, eigenvalues, units, machine
    ):
        argv = list(LABEL_COMMANDS[name])
        values = iter([*angles, *branches])
        angle_slots = [k for k, token in enumerate(argv) if k > 0 and token not in ("+", "-")]
        branch_slots = [k for k, token in enumerate(argv) if token in ("+", "-")]
        for slot in angle_slots + branch_slots:
            argv[slot] = next(values)
        flags = [*units, *(["--machine"] if machine else [])]
        if name == "operator":
            flags += [f"--r-plus={eigenvalues[0]}", f"--r-minus={eigenvalues[1]}"]
        code, out = cli_run([argv[0], *flags, "--", *argv[1:]])
        if code == EXIT_USAGE:
            assert out == ""
        else:
            assert code == EXIT_OK
            numbers = NUMBER_TEXT.findall(out)
            assert numbers and all(math.isfinite(float(x)) for x in numbers), out


# ---------------------------------------------------------------------------
# operator / eigvec / expect
# ---------------------------------------------------------------------------

class TestOperator:

    def test_same_direction_diagonal(self, capsys):
        code, lines = run_capture(capsys, ["operator", "25", "40", "25", "40", "--machine"])
        rec = fields(lines[0])
        assert cplx(rec["m11"]) == pytest.approx(1.0, abs=1e-12)
        assert cplx(rec["m12"]) == pytest.approx(0.0, abs=1e-12)
        assert rec["r_plus"] == "1"
        assert rec["r_minus"] == "-1"

    def test_standard_basis_value(self, capsys):
        code, lines = run_capture(capsys, ["operator", "30", "0", "0", "0", "--machine"])
        rec = fields(lines[0])
        assert cplx(rec["m11"]) == pytest.approx(0.5, abs=1e-12)

    def test_custom_eigenvalues(self, capsys):
        code, lines = run_capture(
            capsys, ["operator", "10", "0", "10", "0", "--r-plus", "2", "--r-minus", "0.5", "--machine"]
        )
        rec = fields(lines[0])
        assert cplx(rec["m11"]) == pytest.approx(2.0, abs=1e-12)

    def test_residual_lines(self, capsys):
        code, lines = run_capture(capsys, ["operator", "63", "27", "11", "95", "--machine"])
        eig = [fields(l) for l in lines if l.startswith("eigvec")]
        assert len(eig) == 2
        assert {e["branch"] for e in eig} == {"+", "-"}
        assert all(float(e["residual"]) < 1e-12 for e in eig)

    def test_eigvec_subcommand(self, capsys):
        code, lines = run_capture(capsys, ["eigvec", "30", "0", "0", "0", "--machine"])
        assert code == EXIT_OK
        rec = fields(lines[0])
        assert cplx(rec["c_plus"]) == pytest.approx(math.cos(math.radians(30)), abs=1e-12)


class TestExpect:

    def test_matching_direction(self, capsys):
        code, lines = run_capture(capsys, ["expect", "40", "20", "+", "40", "20", "--machine"])
        assert float(fields(lines[0])["value"]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_projection(self, capsys):
        code, lines = run_capture(capsys, ["expect", "0", "0", "+", "45", "0", "--machine"])
        assert abs(float(fields(lines[0])["value"])) < 1e-12

    def test_minus_branch_negates(self, capsys):
        _, plus_lines = run_capture(capsys, ["expect", "15", "30", "+", "75", "10", "--machine"])
        _, minus_lines = run_capture(capsys, ["expect", "15", "30", "-", "75", "10", "--machine"])
        v_plus = float(fields(plus_lines[0])["value"])
        v_minus = float(fields(minus_lines[0])["value"])
        assert v_minus == pytest.approx(-v_plus, abs=1e-12)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

class TestSimulate:

    def test_exact_distribution(self, capsys, malus_file):
        code, lines = run_capture(capsys, ["simulate", malus_file, "--exact", "--machine"])
        assert code == EXIT_OK
        recs = [fields(l) for l in lines]
        assert all(r["_record"] == "distribution" for r in recs)
        by_seq = {r["seq"]: float(r["p"]) for r in recs}
        assert by_seq["++"] == pytest.approx(0.25, abs=1e-15)
        assert sum(by_seq.values()) == pytest.approx(1.0, abs=1e-12)

    def test_sampling_report(self, capsys, malus_file):
        code, lines = run_capture(
            capsys, ["simulate", malus_file, "--machine", "--seed", "42", "--trials", "100000"]
        )
        assert code == EXIT_OK
        report = fields(lines[-1])
        assert report["_record"] == "report"
        assert report["seed"] == "42"
        assert report["trials"] == "100000"
        assert float(report["max_sigma"]) <= 5.0
        samples = [fields(l) for l in lines if l.startswith("sample")]
        assert sum(int(s["count"]) for s in samples) == 100000

    def test_no_flags_sample_seed_0_at_the_default_trials(self, capsys, malus_file):
        code, lines = run_capture(capsys, ["simulate", malus_file, "--machine"])
        assert code == EXIT_OK
        report = fields(lines[-1])
        assert (report["seed"], report["trials"]) == ("0", "100000")

    def test_deterministic_output(self, capsys, malus_file):
        _, first = run_capture(capsys, ["simulate", malus_file, "--machine"])
        _, second = run_capture(capsys, ["simulate", malus_file, "--machine"])
        assert first == second

    def test_success_writes_nothing_to_stderr(self, capsys, malus_file):
        assert run(["simulate", malus_file]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out

    def test_missing_file(self, capsys, tmp_path):
        code = run(["simulate", str(tmp_path / "absent.json")])
        assert code == EXIT_FILE
        assert "absent.json" in capsys.readouterr().err

    def test_undecodable_file_exits_3(self, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"initial": \xc3\x28}')
        code = run(["simulate", str(path)])
        assert code == EXIT_FILE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_unknown_key_diagnostic(self, capsys, tmp_path):
        doc = json.loads(json.dumps(MALUS))
        doc["stages"][1]["spin"] = 1
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc))
        code = run(["simulate", str(path)])
        assert code == EXIT_FILE
        err = capsys.readouterr().err
        assert "stages[1].spin" in err and "odd.json" in err

    def test_stage_cap(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({**MALUS, "stages": [{"theta_deg": k} for k in range(21)]}))
        assert run(["simulate", str(path)]) == EXIT_FILE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: 21 stages exceeds the cap of 20 (2^n outcome blowup)\n"

    def test_stage_cap_is_no_flag(self, capsys, malus_file):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", malus_file, "--stage-cap", "3"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --stage-cap 3" in capsys.readouterr().err

    def test_stage_cap_env(self, capsys, malus_file, monkeypatch):
        # the stage cap is a constant: the environment sets no cap
        expected = run_capture(capsys, ["simulate", malus_file, "--exact", "--machine"])
        for value in ("1", "0", "x"):
            monkeypatch.setenv("POLAMP_STAGE_CAP", value)
            assert run_capture(capsys, ["simulate", malus_file, "--exact", "--machine"]) == expected
        assert expected[0] == EXIT_OK

    def test_sample_lines_print_the_library_statistics(self, capsys, malus_file):
        _, lines = run_capture(capsys, ["simulate", malus_file, "--machine", "--seed", "42"])
        dist = exact_distribution(load_scenario_file(malus_file))
        report = sample(dist, seed=42, trials=100000)
        samples = [fields(l) for l in lines if l.startswith("sample")]
        assert [float(s["expected"]) for s in samples] == report.expected.tolist()
        assert [float(s["sigma"]) for s in samples] == report.sigma.tolist()

    def test_one_exact_distribution_per_run(self, capsys, malus_file):
        counted = mock.Mock(wraps=exact_distribution)
        with mock.patch("polamp.simulate.exact_distribution", counted):  # where cli looks it up
            code, _ = run_capture(capsys, ["simulate", malus_file, "--machine"])
        assert code == EXIT_OK
        assert counted.call_count == 1

    @pytest.mark.parametrize("key, value", [("seed", 42), ("trials", 1000), ("trials", 10**25)])
    def test_a_run_setting_in_the_file_exits_3(self, capsys, tmp_path, key, value):
        # a file is the chain alone: a seed or trial count there is no setting of the run
        path = tmp_path / "settings.json"
        path.write_text(json.dumps({**MALUS, key: value}))
        assert run(["simulate", str(path), "--seed", "7", "--trials", "1000"]) == EXIT_FILE
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: scenario.{key}: unknown key\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text, fragment",
        [
            # a literal too large for a float
            ('{"initial": {"theta_deg": 1%s, "branch": "+"}, "stages": [{"theta_deg": 1}]}'
             % ("0" * 400), "initial.theta_deg"),
            # nesting deeper than the JSON decoder's recursion limit
            ("[" * 100000 + "]" * 100000, "deep.json"),
            # a repeated key, whose last value Python's JSON reader would keep
            ('{"initial": {"theta_deg": 0, "branch": "+"}, "stages": [{"theta_deg": 30}],'
             ' "stages": [{"theta_deg": 60}, {"theta_deg": 90}]}',
             "deep.json: scenario.stages: duplicate key"),
            ('{"initial": {"theta_deg": 0, "branch": "+"},'
             ' "stages": [{"theta_deg": 30, "alpha_deg": 0, "alpha_deg": 90}]}',
             "deep.json: scenario.stages[0].alpha_deg: duplicate key"),
        ],
        ids=["huge_integer", "deep_nesting", "duplicate_key", "nested_duplicate_key"],
    )
    def test_unreadable_numbers_and_nesting_exit_3(self, capsys, tmp_path, text, fragment):
        path = tmp_path / "deep.json"
        path.write_text(text)
        code = run(["simulate", str(path)])
        assert code == EXIT_FILE
        captured = capsys.readouterr()
        assert fragment in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "value, literal",
        [(math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")],
        ids=["NaN", "Infinity", "-Infinity"],
    )
    @pytest.mark.parametrize(
        "place, fragment",
        [
            (lambda doc, x: doc["initial"].update(theta_deg=x), "initial.theta_deg"),
            (lambda doc, x: doc["stages"][0].update(alpha_deg=x), "stages[0].alpha_deg"),
        ],
        ids=["initial_theta", "stage_alpha"],
    )
    def test_non_finite_json_literals_exit_3(
        self, capsys, tmp_path, value, literal, place, fragment
    ):
        # Python's JSON reader accepts NaN, Infinity and -Infinity as numbers
        document = json.loads(json.dumps(MALUS))
        place(document, value)
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(document))
        assert f": {literal}" in path.read_text()
        assert run(["simulate", str(path)]) == EXIT_FILE
        captured = capsys.readouterr()
        assert f"{fragment}: must be a finite number" in captured.err and captured.out == ""


def chain_document(n_stages, first_is_initial, seed=5):
    """A scenario document of ``n_stages`` stages at seeded random angles; with
    ``first_is_initial`` the first stage equals the preparation, so every
    sequence that starts with '-' has p = 0."""
    rng = np.random.default_rng(seed + n_stages)
    theta, alpha = rng.uniform(-180, 180, (2, n_stages + 1)).tolist()
    stages = [{"theta_deg": t, "alpha_deg": a} for t, a in zip(theta[1:], alpha[1:])]
    if first_is_initial:
        stages[0] = {"theta_deg": theta[0], "alpha_deg": alpha[0]}
    initial = {"theta_deg": theta[0], "alpha_deg": alpha[0], "branch": "+"}
    return {"initial": initial, "stages": stages}


def fstring_simulate_output(dist, report, machine):
    """``simulate``'s stdout from one f-string ``print`` per record and a
    label list: the reference for the CLI's row templates. ``report`` is
    None for ``--exact``."""
    plus_minus = str.maketrans("01", "+-")
    n = dist.n_stages
    labels = [format(i, f"0{n}b").translate(plus_minus) for i in range(1 << n)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if not machine:
            print(f"exact distribution over {n} stage(s):")
        for label, p in zip(labels, dist.probs.tolist()):
            if machine:
                print(f"distribution seq={label} p={p:.17g}")
            else:
                print(f"  {label}  p = {p:.12g}")
        if report is None:
            return out.getvalue()
        if not machine:
            print(f"monte carlo: seed={report.seed} trials={report.trials}")
        columns = (report.counts.tolist(), report.expected.tolist(), report.sigma.tolist())
        for label, count, expected, sigma in zip(labels, *columns):
            if machine:
                print(
                    f"sample seq={label} count={count}"
                    f" expected={expected:.17g} sigma={sigma:.17g}"
                )
            else:
                print(
                    f"  {label}  count = {count}"
                    f"  expected = {expected:.12g}  deviation = {sigma:.2f} sigma"
                )
        if machine:
            print(
                f"report seed={report.seed} trials={report.trials}"
                f" max_sigma={report.max_abs_deviation_sigma:.17g}"
            )
        else:
            print(f"max deviation = {report.max_abs_deviation_sigma:.2f} sigma")
    return out.getvalue()


#: Every float class a record field can meet: signed zeros, subnormals, the
#: extremes, the non-finite values, and any other double.
RECORD_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, math.inf, -math.inf, math.nan)


def fstring_rows(label, p, count, expected, sigma):
    """The per-record f-strings of (distribution, sample), each (human, machine)."""
    return (
        (f"  {label}  p = {p:.12g}\n", f"distribution seq={label} p={p:.17g}\n"),
        (
            f"  {label}  count = {count}  expected = {expected:.12g}  deviation = {sigma:.2f} sigma\n",
            f"sample seq={label} count={count} expected={expected:.17g} sigma={sigma:.17g}\n",
        ),
    )


def template_rows(label, p, count, expected, sigma):
    """The CLI's row templates fed numpy scalars, as iterating its arrays yields them."""
    values = (np.int64(count), np.float64(expected), np.float64(sigma))
    return (
        tuple(template % (label, np.float64(p)) for template in _DISTRIBUTION_ROW),
        tuple(template % (label, *values) for template in _SAMPLE_ROW),
    )


def record_line(kind, **values):
    """``_record``'s ``--machine`` line for the fields ``values``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _record(argparse.Namespace(machine=True), kind, "unused", **values)
    return out.getvalue()


def machine_rows_and_records(label, p, count, expected, sigma):
    """(the machine row templates' lines, ``_record``'s lines), fed the same numpy scalars."""
    p, expected, sigma = np.float64(p), np.float64(expected), np.float64(sigma)
    count = np.int64(count)
    rows = (
        _DISTRIBUTION_ROW[True] % (label, p),
        _SAMPLE_ROW[True] % (label, count, expected, sigma),
    )
    records = (
        record_line("distribution", seq=label, p=p),
        record_line("sample", seq=label, count=count, expected=expected, sigma=sigma),
    )
    return rows, records


class TestSimulateRows:
    """Each sequence's record comes from one ``%`` template per mode, fed the
    numpy scalars of the library's arrays. Its bytes are those of the
    per-record f-strings on the ``tolist()`` values."""

    @pytest.mark.parametrize(
        "mode", [["--machine"], [], ["--exact", "--machine"]], ids=["machine", "human", "exact"]
    )
    @pytest.mark.parametrize("first_is_initial", [False, True], ids=["random", "first_is_initial"])
    @pytest.mark.parametrize("n_stages", [1, 2, 6, 12])
    def test_output_equals_the_fstring_reference(
        self, capsys, tmp_path, n_stages, first_is_initial, mode
    ):
        document = chain_document(n_stages, first_is_initial)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(document))
        dist = exact_distribution(load_scenario_file(path))
        if first_is_initial:
            assert not dist.probs[len(dist.probs) // 2 :].any()
        report = None if "--exact" in mode else sample(dist, seed=11, trials=5000)
        assert run(["simulate", str(path), *mode, "--seed", "11", "--trials", "5000"]) == EXIT_OK
        assert capsys.readouterr().out == fstring_simulate_output(dist, report, "--machine" in mode)

    @given(
        label=st.text("+-", min_size=1, max_size=20),
        p=RECORD_FLOATS,
        count=st.integers(-(2**63), 2**63 - 1),
        expected=RECORD_FLOATS,
        sigma=RECORD_FLOATS,
    )
    @settings(max_examples=500, deadline=None)
    def test_templates_format_like_fstrings(self, label, p, count, expected, sigma):
        assert template_rows(label, p, count, expected, sigma) == fstring_rows(
            label, p, count, expected, sigma
        )

    @pytest.mark.parametrize("count", [0, -(2**63), 2**63 - 1])
    @pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
    def test_templates_format_edge_values_like_fstrings(self, x, count):
        assert template_rows("+-", x, count, x, x) == fstring_rows("+-", x, count, x, x)

    @given(
        label=st.text("+-", min_size=1, max_size=20),
        p=RECORD_FLOATS,
        count=st.integers(-(2**63), 2**63 - 1),
        expected=RECORD_FLOATS,
        sigma=RECORD_FLOATS,
    )
    @settings(max_examples=300, deadline=None)
    def test_machine_templates_write_record_lines(self, label, p, count, expected, sigma):
        # the --machine layout has one definition; the row templates restate it
        rows, records = machine_rows_and_records(label, p, count, expected, sigma)
        assert rows == records

    @pytest.mark.parametrize("count", [0, -(2**63), 2**63 - 1])
    @pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
    def test_machine_templates_write_record_lines_at_edge_values(self, x, count):
        rows, records = machine_rows_and_records("+-", x, count, x, x)
        assert rows == records

    def test_memory_is_bounded_by_the_distribution(self, tmp_path):
        # 2^16 records written from the probability array: no per-row list or
        # label list may exist, so the peak stays within a few copies of it
        path = tmp_path / "chain16.json"
        path.write_text(json.dumps(chain_document(16, False)))
        probs_nbytes = 8 << 16
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = run(["simulate", str(path), "--exact", "--machine"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 4 * probs_nbytes, f"peak {peak} B"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class TestVerify:

    def test_default_pass_and_errata(self, capsys):
        code, lines = run_capture(capsys, ["verify", "--draws", "500", "--machine"])
        assert code == EXIT_OK
        suites = [fields(l) for l in lines if l.startswith("suite")]
        assert suites and all(s["pass"] == "1" for s in suites)
        errata = [fields(l) for l in lines if l.startswith("erratum")]
        flagged = {e["equation"] for e in errata}
        assert {"Eq58", "Eq59", "Eq72"} <= flagged
        assert not flagged & {"Eq53", "Eq54", "Eq55", "Eq56", "Eq57", "Eq60"}

    def test_zero_draws_trivial_pass(self, capsys):
        code, lines = run_capture(capsys, ["verify", "--draws", "0", "--machine"])
        assert code == EXIT_OK
        assert not [l for l in lines if l.startswith("erratum")]
        assert all(fields(l)["draws"] == "0" for l in lines if l.startswith("suite"))

    def test_seeded_runs_identical(self, capsys):
        _, first = run_capture(capsys, ["verify", "--draws", "300", "--seed", "9",
                                        "--machine"])
        _, second = run_capture(capsys, ["verify", "--draws", "300", "--seed", "9", "--machine"])
        assert first == second

    def test_tolerance_env(self, capsys, monkeypatch):
        # the tolerance is --tolerance or its default: the environment sets none
        expected = run_capture(capsys, ["verify", "--draws", "200", "--machine"])
        for value in ("1e-30", "abc", "-1", "inf", "nan"):
            monkeypatch.setenv("POLAMP_TOLERANCE", value)
            assert run_capture(capsys, ["verify", "--draws", "200", "--machine"]) == expected
        assert expected[0] == EXIT_OK

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_tolerance_flag_is_a_usage_error(self, capsys, value):
        # an infinite tolerance would pass every suite and hide every erratum
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--draws", "10", "--machine", "--tolerance", value])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("seed", range(8))
    def test_observable_suite_fails_exactly_when_eq53_to_eq56_are_flagged(self, capsys, seed):
        # the suite is the Eq53-Eq56 table: one set of draws, one maximum; a
        # suite fails at or above the tolerance, a record is made above it
        def observable(tolerance):
            argv = ["verify", "--draws", "100", "--seed", str(seed), "--tolerance", tolerance]
            records = [fields(l) for l in run_capture(capsys, [*argv, "--machine"])[1]]
            (suite,) = [r for r in records if r.get("name") == "observable_closed_forms"]
            flagged = [r for r in records if r.get("equation") in ("Eq53", "Eq54", "Eq55", "Eq56")]
            return suite, flagged

        for tolerance in ("1e-300", "8.9e-16"):
            suite, flagged = observable(tolerance)
            assert (suite["pass"] == "0") == bool(flagged), tolerance
            if flagged:
                largest = max(float(r["max_abs_diff"]) for r in flagged)
                assert largest == float(suite["max_residual"])
        suite, flagged = observable(suite["max_residual"])
        assert suite["pass"] == "0" and not flagged

    def test_flag_overrides_env_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("POLAMP_TOLERANCE", "1e-30")
        code, _ = run_capture(capsys, ["verify", "--draws", "200", "--tolerance", "1e-9"])
        assert code == EXIT_OK

    def test_flag_overrides_invalid_env_tolerance(self, capsys, monkeypatch):
        # the environment sets nothing, not even an invalid value
        monkeypatch.setenv("POLAMP_TOLERANCE", "abc")
        code, _ = run_capture(capsys, ["verify", "--draws", "200", "--tolerance", "1e-9"])
        assert code == EXIT_OK

    def test_human_summary(self, capsys):
        code, lines = run_capture(capsys, ["verify", "--draws", "200"])
        assert code == EXIT_OK
        assert any(l.startswith("PASS") for l in lines)
        assert "all invariant suites pass" in lines[-1]

    @pytest.mark.parametrize("tolerance", ["1e-300", "8.9e-16"])
    def test_human_lines_compare_the_residual_the_right_way(self, capsys, tolerance):
        code, lines = run_capture(capsys, ["verify", "--draws", "100", "--tolerance", tolerance])
        assert code == EXIT_VERIFY
        suites = [l.split() for l in lines if l.startswith(("PASS", "FAIL"))]
        assert any(words[0] == "FAIL" for words in suites)
        for words in suites:
            # FLAG name max residual R relation TOL (N draws); a suite may
            # keep a tolerance of its own
            flag, residual, relation, tolerance = words[0], float(words[4]), words[5], float(words[6])
            assert relation == ("<" if flag == "PASS" else ">="), words
            assert (residual < tolerance) == (flag == "PASS"), words

    def test_human_lines_print_the_tolerance_in_force(self, capsys):
        # at one significant digit 8.9e-16 would read 9e-16, above the residual that fails it
        code, lines = run_capture(capsys, ["verify", "--draws", "100", "--tolerance", "8.9e-16"])
        assert code == EXIT_VERIFY
        (chaining,) = [line for line in lines if line.split()[1] == "chaining"]
        assert chaining.startswith("FAIL") and chaining.endswith(" >= 8.9e-16 (100 draws)")


# ---------------------------------------------------------------------------
# the parser interface
# ---------------------------------------------------------------------------

#: Argument types by their names in ``polamp.cli``: the angle and eigenvalue
#: types bound the magnitude (2**1023 and 2**511), and are no longer one type.
ANGLE, BRANCH, EIGENVALUE = "_angle", "_branch", "_eigenvalue"

#: The end of a valued option's help: argparse writes its default there.
DEFAULT = " (default: %(default)s)"

HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, "show this help message and exit")
MACHINE = (("--machine",), "machine", False, None, "machine-readable output")
RAD = (("--rad",), "rad", False, None, "angles are radians (default: degrees)")
TOLERANCE = (("--tolerance",), "tolerance", 1e-12, "_positive_float", "numeric tolerance" + DEFAULT)
MEASURED = [
    ((), "theta_b", None, ANGLE, "plane angle of the measured direction"),
    ((), "alpha_b", None, ANGLE, "relative phase of the measured direction"),
]
BASIS = [
    ((), "theta_c", None, ANGLE, "plane angle of the basis direction"),
    ((), "alpha_c", None, ANGLE, "relative phase of the basis direction"),
]


def label_positionals(prefix):
    return [
        ((), f"theta_{prefix}", None, ANGLE, f"plane angle of direction {prefix}"),
        ((), f"alpha_{prefix}", None, ANGLE, f"relative phase of direction {prefix}"),
        ((), f"branch_{prefix}", None, BRANCH, f"branch of direction {prefix}: + or -"),
    ]


LABEL_FLAGS = [HELP, RAD, MACHINE]

#: Each subcommand: its help, then every argument as (option strings, dest,
#: default, type, help), positionals in the order they are read. This is the
#: interface as it stood while each subcommand declared its own flags, but
#: for the two bounded types.
INTERFACE = {
    "amp": ("transition amplitude between two branch labels",
            [*label_positionals("a"), *label_positionals("b"), *LABEL_FLAGS]),
    "prob": ("transition probability between two branch labels",
             [*label_positionals("a"), *label_positionals("b"), *LABEL_FLAGS]),
    "operator": ("observable matrix, eigenvectors and residuals", [
        *MEASURED, *BASIS, *LABEL_FLAGS,
        (("--r-plus",), "r_plus", 1.0, EIGENVALUE, "value on the parallel branch" + DEFAULT),
        (("--r-minus",), "r_minus", -1.0, EIGENVALUE, "value on the perpendicular branch" + DEFAULT),
    ]),
    "eigvec": ("eigenvector pair of the polarization operator", [*MEASURED, *BASIS, *LABEL_FLAGS]),
    "expect": ("polarization expectation value",
               [*label_positionals("a"), *MEASURED, *LABEL_FLAGS]),
    "simulate": ("exact and Monte Carlo analyzer-chain statistics", [
        ((), "scenario", None, None, "scenario file (JSON, angles in degrees)"),
        HELP, MACHINE,
        (("--seed",), "seed", 0, "_seed_u64", "RNG seed" + DEFAULT),
        (("--trials",), "trials", 100_000, "_positive_int", "trial count" + DEFAULT),
        (("--exact",), "exact", False, None, "exact distribution only, no sampling"),
    ]),
    "verify": ("run every invariant suite and report errata", [
        HELP, MACHINE, TOLERANCE,
        (("--draws",), "draws", 100_000, "_non_negative_int", "random draws per suite" + DEFAULT),
        (("--seed",), "seed", 0, "_seed_u64", "RNG seed for the draws" + DEFAULT),
    ]),
}


def subcommands():
    """``{name: (help, subparser)}`` of the CLI parser."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    return {name: (helps[name], parser) for name, parser in sub.choices.items()}


def test_every_subcommand_declares_the_same_arguments():
    type_names = {id(value): name for name, value in vars(polamp.cli).items()}
    actual = {}
    for name, (help_text, parser) in subcommands().items():
        arguments = [
            (tuple(a.option_strings), a.dest, a.default, a.type and type_names[id(a.type)], a.help)
            for a in parser._actions
        ]
        positionals = [argument for argument in arguments if not argument[0]]
        groups = [[a.dest for a in g._group_actions] for g in parser._mutually_exclusive_groups]
        actual[name] = (help_text, positionals, set(arguments), groups)
    expected = {
        # no two arguments exclude each other
        name: (help_text, [a for a in arguments if not a[0]], set(arguments), [])
        for name, (help_text, arguments) in INTERFACE.items()
    }
    assert actual == expected
    assert list(actual) == list(INTERFACE)


@pytest.mark.parametrize("name", INTERFACE)
def test_help_lists_every_argument(capsys, monkeypatch, name):
    # the order of the options may differ from the interface table, their text may not
    monkeypatch.setenv("COLUMNS", "300")  # no help line is wrapped
    with pytest.raises(SystemExit) as exc:
        run([name, "--help"])
    assert exc.value.code == EXIT_OK
    out = " ".join(capsys.readouterr().out.split())
    for option_strings, dest, default, _, help_text in INTERFACE[name][1]:
        assert " ".join(help_text.replace("%(default)s", str(default)).split()) in out
        assert all(option in out for option in option_strings) and (option_strings or dest in out)


@pytest.mark.parametrize("name", INTERFACE)
def test_help_shows_the_default_of_every_valued_option(monkeypatch, name):
    # README: every setting is a flag, with its default in --help
    monkeypatch.setenv("COLUMNS", "300")
    parser = subcommands()[name][1]
    out = " ".join(parser.format_help().split())
    for action in parser._actions:
        if not action.option_strings or action.nargs == 0:  # a positional, --help or a switch
            continue
        assert action.default is not None, action.dest
        entry = out.split(f"{action.option_strings[-1]} {action.dest.upper()} ", 1)[1]
        assert entry.split(" --")[0].endswith(f"(default: {action.default})"), entry


# ---------------------------------------------------------------------------
# usage errors in plain words; output closed by the reader
# ---------------------------------------------------------------------------

#: A value that is no number, in each kind of numeric argument, and a bad branch.
BAD_VALUES = {
    "--draws": ["verify", "--draws", "abc"],
    "--trials": ["simulate", "chain.json", "--trials", "abc"],
    "--seed": ["verify", "--seed", "abc"],
    "--tolerance": ["verify", "--tolerance", "abc"],
    "alpha_a": ["amp", "30", "abc", "+", "0", "0", "+"],
    "branch_a": ["amp", "30", "0", "abc", "0", "0", "+"],
}


@pytest.mark.parametrize("name", BAD_VALUES)
def test_usage_error_is_in_plain_words(capsys, name):
    with pytest.raises(SystemExit) as exc:
        run(BAD_VALUES[name])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()[-1]
    assert f"argument {name}: " in err and "'abc'" in err
    # no private function name, such as that of an argparse type function
    assert not re.search(r"(?<!\w)_[a-z]", err), err


@pytest.mark.parametrize("argv", [
    ["amp", "--deg", "30", "0", "+", "0", "0", "+"],
    ["expect", "30", "0", "+", "0", "0", "--deg"],
    ["operator", "--deg", "--rad", "30", "0", "0", "0"],
], ids=["amp", "expect", "with_rad"])
def test_deg_is_no_flag(capsys, argv):
    # degrees are the default, and ``--rad`` the one unit flag
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --deg" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["plus", "PLUS", " + ", "minus"])
def test_branch_is_exactly_plus_or_minus(capsys, tmp_path, token):
    expected = f"must be '+' or '-', got {token!r}"
    with pytest.raises(SystemExit) as exc:
        run(["amp", "30", "0", token, "0", "0", "+"])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err.endswith(f"argument branch_a: branch: {expected}\n")
    path = tmp_path / "word.json"
    path.write_text(json.dumps({**MALUS, "initial": {**MALUS["initial"], "branch": token}}))
    assert run(["simulate", str(path)]) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: scenario.initial.branch: {expected}\n"


#: Each count flag and a value one past the int64 counts it feeds.
COUNT_FLAGS = {
    "--trials": ["simulate", "chain.json", "--trials"],
    "--draws": ["verify", "--draws"],
}


@pytest.mark.parametrize("value", [2**63, 10**25])
@pytest.mark.parametrize("name", COUNT_FLAGS)
def test_count_beyond_int64_is_a_usage_error(capsys, name, value):
    # parsed only: were the count accepted, the command would run for ever
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*COUNT_FLAGS[name], str(value)])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()[-1]
    assert f"argument {name}: count: must be an integer from " in err and " to 2**63 - 1," in err


@pytest.mark.parametrize("name", COUNT_FLAGS)
def test_count_of_int64_max_is_accepted(name):
    args = build_parser().parse_args([*COUNT_FLAGS[name], str(2**63 - 1)])
    assert getattr(args, name.removeprefix("--")) == 2**63 - 1


@pytest.mark.parametrize(
    "libc", [{"side_effect": OSError("no libc")}, {"return_value": object()}],
    ids=["no_libc", "no_mallopt"],
)
def test_verify_runs_where_there_is_no_mallopt(capsys, libc):
    argv = ["verify", "--draws", "100", "--machine"]
    expected = run_capture(capsys, argv)
    assert expected[0] == EXIT_OK
    with mock.patch.object(ctypes, "CDLL", **libc) as cdll:
        assert run_capture(capsys, argv) == expected
    assert cdll.called


#: Records every ``mallopt`` call polamp makes; prints them before and after ``verify``.
MALLOPT_PROBE = """
import ctypes, sys, types
calls = []
ctypes.CDLL = lambda *args, **kwargs: types.SimpleNamespace(mallopt=lambda *a: calls.append(a))
import polamp, polamp.cli
from polamp.verify import run_all
run_all(draws=10)
polamp.cli.run(["simulate", sys.argv[1], "--machine", "--trials", "1000"])
before = list(calls)
polamp.cli.run(["verify", "--draws", "0", "--machine"])
print(before, calls, file=sys.stderr)
"""


def test_only_the_verify_command_sets_allocator_thresholds(malus_file):
    # a library caller keeps its process's allocator policy
    proc = polamp_python(MALLOPT_PROBE, malus_file)
    assert proc.stderr == "[] [(-3, 33554432), (-1, 67108864)]\n"


#: Minor page faults of a second, warm ``polamp verify`` at the default draws.
FAULT_PROBE = """
import contextlib, io, resource
import polamp.cli

def verify():
    with contextlib.redirect_stdout(io.StringIO()):
        assert polamp.cli.run(["verify", "--machine"]) == 0

verify()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
verify()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_warm_verify_keeps_its_heap_resident():
    # at glibc's default thresholds each block's temporaries are returned to the
    # kernel and faulted in again: about 63,000 minor faults per run
    assert int(polamp_python(FAULT_PROBE).stdout) < 5000


def polamp_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(polamp.__file__).parent.parent)}


def polamp_python(source: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -c source argv`` in a fresh interpreter that imports this polamp."""
    return subprocess.run(
        [sys.executable, "-c", source, *argv],
        capture_output=True, text=True, env=polamp_env(), timeout=120, check=True,
    )


def polamp_process(*argv: str, buffered: bool = False) -> subprocess.Popen:
    """``polamp argv`` in a fresh interpreter, stdout and stderr piped."""
    env = polamp_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "polamp.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


def test_reader_closing_after_one_line_exits_1_without_traceback(tmp_path):
    # 2^12 distribution records overflow the pipe, so later writes meet the closed end
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({**MALUS, "stages": [{"theta_deg": 15 * k} for k in range(12)]}))
    with polamp_process("simulate", str(path), "--exact", "--machine") as proc:
        assert proc.stdout.readline().startswith(b"distribution seq=")
        proc.stdout.close()
        assert proc.wait(timeout=60) == EXIT_CLOSED
        assert proc.stderr.read() == b""


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_verify_into_a_closed_pipe_exits_1_without_traceback(buffered):
    # unbuffered, print meets the closed pipe; buffered, the flush in main does
    with polamp_process("verify", "--machine", "--draws", "10", buffered=buffered) as proc:
        proc.stdout.close()
        assert proc.wait(timeout=60) == EXIT_CLOSED
        assert proc.stderr.read() == b""
