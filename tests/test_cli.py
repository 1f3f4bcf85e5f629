"""Front-end behavior: output formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qobf
from qobf import cli, grover, obfuscator
from qobf.circuit import parse
from qobf.obfuscator import MAX_CIRCUIT_OPS, MAX_PLAN_BITS, MAX_SHOTS


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


README_QUICK_START = """\
target 19  bits 3  iterations 7  shots 1024
   x    y    z   count
   7    6    6     180  ##############################
   7    7    5     180  ##############################
   7    5    7     176  #############################
   6    6    7     174  #############################
   5    7    7     157  ##########################
   6    7    6     157  ##########################
valid_fraction 1.000000
exact_success 0.996846
"""


def test_obfuscate_text_output(capsys):
    code, out, err = invoke(
        capsys, "obfuscate", "--n-value", "19", "--shots", "1024", "--seed", "7"
    )
    assert code == 0
    assert err == ""
    assert out == README_QUICK_START


def test_obfuscate_stdout_is_deterministic(capsys):
    argv = ("obfuscate", "--n-value", "7", "--shots", "128", "--seed", "3")
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


def test_obfuscate_json_schema(capsys):
    code, out, _ = invoke(
        capsys, "obfuscate", "--n-value", "19", "--format", "json",
        "--shots", "256", "--seed", "0",
    )
    assert code == 0
    wire = json.loads(out)
    assert list(wire) == ["n_value", "bits", "iterations", "shots",
                          "valid_fraction", "exact_success", "counts"]
    assert wire["n_value"] == 19
    assert wire["bits"] == 3
    assert wire["iterations"] == 7
    assert wire["shots"] == 256
    assert sum(entry["count"] for entry in wire["counts"]) == 256


def test_obfuscate_csv_format(capsys):
    code, out, _ = invoke(
        capsys, "obfuscate", "--n-value", "3", "--bits", "1",
        "--format", "csv", "--shots", "100", "--seed", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y,z,count,valid"
    cells = [line.split(",") for line in lines[1:]]
    assert sum(int(row[3]) for row in cells) == 100
    for row in cells:
        expected_valid = int(int(row[0]) + int(row[1]) + int(row[2]) == 3)
        assert int(row[4]) == expected_valid


def test_obfuscate_out_file(tmp_path, capsys):
    path = tmp_path / "hist.json"
    code, out, _ = invoke(
        capsys, "obfuscate", "--n-value", "3", "--format", "json",
        "--shots", "32", "--out", str(path),
    )
    assert code == 0
    assert out == ""
    wire = json.loads(path.read_text())
    assert wire["n_value"] == 3


def test_obfuscate_bits_too_small_exits_2(capsys):
    code, out, err = invoke(capsys, "obfuscate", "--n-value", "7", "--bits", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "3" in err  # the bound 3*(2^1 - 1) = 3 appears in the message


# N=127 simulates for about 1 s, so each refusal has to come before that
@pytest.mark.parametrize("flag, value", [("--top", "0"), ("--top", "-2"),
                                         ("--shots", "0"), ("--seed", "-1")])
def test_obfuscate_bad_flag_value_exits_2_before_simulating(capsys, flag, value):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "obfuscate", "--n-value", "127", flag, value)
    elapsed = time.perf_counter() - start
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert flag.lstrip("-") in err and f"got {value}" in err
    assert elapsed < 0.1


def test_bench_default_targets(capsys):
    code, out, _ = invoke(capsys, "bench")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,n,iterations,qubits,depth,gates,run_time_s,valid_solutions"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[:4] == ["7", "2", "3", "11"]
    assert first[7] == "6"
    assert float(first[6]) >= 0.0


def test_bench_plan_only_reproduces_table_columns(capsys):
    code, out, _ = invoke(
        capsys, "bench", "--targets", "7,15,31,63,127,255", "--plan-only"
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    table = [(int(r[0]), int(r[1]), int(r[2]), int(r[3]), int(r[7])) for r in rows]
    assert table == [
        (7, 2, 3, 11, 6),
        (15, 3, 3, 14, 28),
        (31, 4, 5, 17, 120),
        (63, 5, 6, 20, 496),
        (127, 6, 9, 23, 2016),
        (255, 7, 13, 26, 8128),
    ]
    assert all(row[6] == "" for row in rows)  # no run_time without simulation


def test_bench_plan_only_stdout_is_byte_stable(capsys):
    argv = ("bench", "--targets", "7,15,31,63,127,255", "--plan-only")
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("argv, budget", [
    (("inspect", "--n-value", "3", "--bits", "30"), f"{MAX_CIRCUIT_OPS} ops"),
    (("export", "--n-value", "3", "--bits", "30"), f"{MAX_CIRCUIT_OPS} ops"),
    (("bench", "--plan-only", "--targets", "12285"), f"{MAX_CIRCUIT_OPS} ops"),
    (("obfuscate", "--n-value", "3", "--bits", "30"), "cap is 26 qubits"),
    (("count", "--n-value", "3", "--bits", "9", "--verify"),
     f"--bits {cli.VERIFY_MAX_BITS}"),
    (("obfuscate", "--n-value", "19", "--shots", str(MAX_SHOTS + 1)),
     f"budget of {MAX_SHOTS} shots"),
    # the cap is on the circuit width, 29 here, though only 24 qubits would be stored
    (("obfuscate", "--n-value", "382"), "width 29 is over the circuit-width cap"),
])
def test_oversized_requests_exit_3_naming_the_budget(capsys, monkeypatch, argv, budget):
    # each of these used to build or loop without bound; now it fails at once
    monkeypatch.delenv("QOBF_MAX_QUBITS", raising=False)
    code, out, err = invoke(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    assert budget in err
    assert "GiB" not in err


@pytest.mark.parametrize("argv", [
    ("inspect", "--n-value", "3", "--bits", "400"),
    ("export", "--n-value", "3", "--bits", "400"),
    ("obfuscate", "--n-value", "3", "--bits", "400"),
    ("bench", "--plan-only", "--targets", str(2**1030)),
    # decided from bit lengths, before any 2^bits integer is built
    ("inspect", "--n-value", "3", "--bits", "1000000000"),
    ("obfuscate", "--n-value", "3", "--bits", "1000000000"),
])
def test_registers_too_wide_to_plan_exit_2_naming_the_limit(capsys, argv):
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"--bits {MAX_PLAN_BITS}" in err


def test_a_raised_qubit_cap_exits_3_when_the_state_cannot_be_allocated(capsys, monkeypatch):
    # width 65 stores 60 qubits, 2^64 bytes, which numpy refuses to size
    monkeypatch.setenv("QOBF_MAX_QUBITS", "70")
    code, out, err = invoke(capsys, "obfuscate", "--n-value", "1572862", "--bits", "20")
    assert code == 3
    assert out == ""
    assert err.startswith("error: width 65 stores 60 qubits")
    assert "QOBF_MAX_QUBITS=70" in err


def test_running_out_of_memory_exits_3(capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.obfuscator, "sample_counts", out_of_memory)
    code, out, err = invoke(capsys, "obfuscate", "--n-value", "7")
    assert code == 3
    assert out == ""
    assert err.startswith("error: out of memory")
    assert "QOBF_MAX_QUBITS" in err


def test_bench_heavy_checks_the_qubit_cap_before_any_simulation(capsys, monkeypatch):
    # the cap refuses N=765 (29 qubits) before N=127 (23) is simulated
    monkeypatch.delenv("QOBF_MAX_QUBITS", raising=False)

    def no_simulation(obf_plan):
        raise AssertionError(f"N={obf_plan.target} simulated before the cap check")

    monkeypatch.setattr(cli.obfuscator, "simulate", no_simulation)
    start = time.perf_counter()
    code, out, err = invoke(capsys, "bench", "--targets", "127,765")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "cap is 26 qubits" in err


def test_bench_rejects_malformed_targets(capsys):
    code, _, err = invoke(capsys, "bench", "--targets", "7,abc")
    assert code == 2
    assert err.startswith("error:")
    code, _, _ = invoke(capsys, "bench", "--targets", ",")
    assert code == 2


def test_count_plain_and_verified(capsys):
    code, out, _ = invoke(capsys, "count", "--n-value", "19", "--bits", "3")
    assert code == 0
    assert out == "6\n"
    code, out, _ = invoke(
        capsys, "count", "--n-value", "21", "--bits", "3", "--verify"
    )
    assert code == 0
    assert out == "formula 1\nbrute_force 1\nmatch\n"
    code, out, _ = invoke(capsys, "count", "--n-value", "0", "--bits", "3")
    assert code == 0
    assert out == "1\n"


def test_count_verify_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(grover, "brute_force_solutions",
                        lambda target, bits: grover.count_solutions(target, bits) + 1)
    code, out, err = invoke(capsys, "count", "--n-value", "21", "--bits", "3", "--verify")
    assert code == 1
    assert out == "formula 1\nbrute_force 2\nMISMATCH\n"
    assert err == ""


def test_count_of_a_narrow_target_at_a_huge_width_is_instant(capsys):
    # 3 < 2^bits, so only the inclusion-exclusion term j = 0 counts; that is
    # decided from bit lengths, without building a 10^9-bit 2^bits
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "count", "--n-value", "3", "--bits", "1000000000")
    assert time.perf_counter() - start < 0.1
    assert code == 0
    assert out == "10\n"


def test_count_invalid_bits_exits_2(capsys):
    code, _, err = invoke(capsys, "count", "--n-value", "5", "--bits", "0")
    assert code == 2
    assert err.startswith("error:")


def test_inspect_reports_metrics(capsys):
    code, out, _ = invoke(capsys, "inspect", "--n-value", "19")
    assert code == 0
    fields = dict(
        line.split(" ", 1) for line in out.splitlines() if " " in line
    )
    assert fields["target"] == "19"
    assert fields["bits"] == "3"
    assert fields["qubits"] == "14"
    assert fields["iterations"] == "7"
    assert fields["solutions"] == "6"
    assert fields["theoretical_success"].startswith("0.9968")
    assert "decomposed_depth" in fields
    assert "adder" in fields
    assert int(fields["decomposed_width"]) > 14


def test_inspect_json_format(capsys):
    code, out, _ = invoke(capsys, "inspect", "--n-value", "19", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == 19
    assert payload["bits"] == 3
    assert payload["qubits"] == 14
    assert payload["iterations"] == 7
    assert payload["solutions"] == 6
    assert payload["space_size"] == 512
    assert abs(payload["theoretical_success"] - 0.996846) < 1e-6
    assert payload["gates"]["total"] >= payload["depth"]
    assert payload["decomposed_gates"]["mcx"] == 0
    assert payload["adder_gates"]["reference"] == {"ccx": 5, "cx": 12}


@pytest.mark.parametrize("target", [1, 19, 63, 765])
def test_inspect_text_lines_are_the_json_entries_in_order(capsys, target):
    _, text, _ = invoke(capsys, "inspect", "--n-value", str(target))
    _, doc, _ = invoke(capsys, "inspect", "--n-value", str(target), "--format", "json")
    payload = json.loads(doc)
    lines = text.splitlines()
    assert len(lines) == len(payload)
    for line, (key, value) in zip(lines, payload.items()):
        name, rest = line.split(" ", 1)
        if key == "adder_gates":
            measured, reference = value["measured"], value["reference"]
            assert line == (f"adder ccx={measured['ccx']} cx={measured['cx']} (reference "
                            f"construction: ccx={reference['ccx']} cx={reference['cx']})")
        elif key == "theoretical_success":
            assert (name, rest) == (key, f"{value:.6f}")
        elif isinstance(value, dict):
            assert name == key
            assert {k: int(v) for k, v in (tok.split("=") for tok in rest.split())} == value
        else:
            assert (name, rest) == (key, str(value))


def test_export_round_trip(tmp_path, capsys):
    code, out, _ = invoke(capsys, "export", "--n-value", "19")
    assert code == 0
    circuit = parse(out)
    assert circuit.width == 14
    assert circuit.labels["grover_ancilla"] == (13,)

    path = tmp_path / "circuit.txt"
    code, _, _ = invoke(capsys, "export", "--n-value", "19", "--out", str(path))
    assert code == 0
    assert parse(path.read_text()) == circuit


def test_export_decomposed_has_no_mcx(capsys):
    code, out, _ = invoke(capsys, "export", "--n-value", "3", "--decompose")
    assert code == 0
    kinds = {line.split()[0] for line in out.splitlines()[1:] if line}
    assert "mcx" not in kinds
    assert "ccx" in kinds


def test_export_bad_path_exits_4(capsys):
    code, _, err = invoke(
        capsys, "export", "--n-value", "3",
        "--out", "/nonexistent-dir-for-sure/c.txt",
    )
    assert code == 4
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["obfuscate", "export"])
def test_unusable_out_exits_4_before_planning(tmp_path, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        pytest.fail("planned or ran although --out cannot be written")

    monkeypatch.setattr(obfuscator, "plan", refuse)
    monkeypatch.setattr(obfuscator, "run", refuse)
    (tmp_path / "plain").write_text("")
    for out in (tmp_path / "missing" / "h.txt", tmp_path, tmp_path / "plain" / "h.txt", ""):
        with pytest.raises(OSError) as opened:
            open(out, "w")
        code, stdout, err = invoke(capsys, command, "--n-value", "127", "--out", str(out))
        assert (code, stdout, err) == (4, "", f"error: {opened.value}\n")
    monkeypatch.setattr(os, "access", lambda path, mode: False)  # a read-only directory
    out = tmp_path / "h.txt"
    code, _, err = invoke(capsys, command, "--n-value", "127", "--out", str(out))
    assert code == 4 and "Permission denied" in err and str(out) in err
    assert [path.name for path in tmp_path.iterdir()] == ["plain"]


@pytest.mark.parametrize("command", ["obfuscate", "export"])
def test_existing_writable_out_in_read_only_directory_is_written(tmp_path, capsys,
                                                                 monkeypatch, command):
    out = tmp_path / "h.txt"
    out.write_text("old\n")
    real_access = os.access
    # only the directory reads as read-only; the file itself stays writable
    monkeypatch.setattr(os, "access", lambda path, mode: (
        False if os.fspath(path) == str(tmp_path) else real_access(path, mode)))
    argv = [command, "--n-value", "7", "--bits", "3"]
    code, stdout, err = invoke(capsys, *argv)
    assert code == 0 and err == ""
    assert invoke(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert out.read_text() == stdout
    out.chmod(0o444)
    monkeypatch.setattr(os, "access", lambda path, mode: False)  # and now the file too
    code, _, err = invoke(capsys, *argv, "--out", str(out))
    assert code == 4 and "Permission denied" in err and str(out) in err
    assert out.read_text() == stdout


def test_runs_that_fail_leave_the_out_file_alone(tmp_path, capsys):
    kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
    kept.write_text("kept\n")
    for argv, want in ((["obfuscate", "--n-value", "7", "--bits", "1"], 2),
                       (["obfuscate", "--n-value", "7", "--shots", str(MAX_SHOTS + 1)], 3),
                       (["export", "--n-value", "7", "--bits", "1"], 2)):
        for out in (kept, fresh):
            code, _, _ = invoke(capsys, *argv, "--out", str(out))
            assert code == want
    assert kept.read_text() == "kept\n"
    assert not fresh.exists()


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()


def run_alone(argv):
    """The call in a fresh interpreter: (exit code, stdout, stderr)."""
    src = str(Path(qobf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "qobf.cli", *argv], env=env,
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, done.stderr


def run_in_process(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_independent_calls(tmp_path, capsys):
    out_file = tmp_path / "histogram.json"
    calls = [
        ["obfuscate", "--n-value", "7", "--format", "json", "--out", str(out_file)],
        ["obfuscate", "--n-value", "7"],
        ["inspect", "--n-value", "19", "--bits", "8"],
        ["inspect", "--n-value", "19"],
        ["inspect"],  # a parse error: --n-value is required
        ["inspect", "--n-value", "19", "--format", "json"],
    ]
    alone = []
    for argv in calls:
        alone.append(run_alone(argv))
        if argv[-1] == str(out_file):
            alone_file = out_file.read_text()
            out_file.unlink()
    assert alone[4][0] == 2 and "--n-value" in alone[4][2]
    assert cli.build_parser() is cli.build_parser()
    for argv, want in zip(calls, alone):
        assert run_in_process(capsys, argv) == want, argv
    assert out_file.read_text() == alone_file
