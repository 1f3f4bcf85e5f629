"""Command-line front end.

Subcommands: obfuscate (run the pipeline and print a decoded histogram),
bench (benchmark table as CSV), count (solution counting), inspect
(circuit metrics for one target), export (circuit text format).

Exit codes: 0 success, 1 a ``count --verify`` mismatch, 2 constraint
violation, 3 resource limit or out of memory, 4 file I/O failure.
Error messages go to standard error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import stat
import sys

from . import arithmetic, circuit, grover, obfuscator, statevector
from .errors import ConstraintError, ResourceLimitError

BENCH_HEADER = "N,n,iterations,qubits,depth,gates,run_time_s,valid_solutions"
DEFAULT_TARGETS = "7,15,31,63"
TEXT_TOP_DEFAULT = 12
# count --verify loops over all 8^bits triplets in Python (about 1 s at 8 bits)
VERIFY_MAX_BITS = 8
BAR_WIDTH = 30


def _print(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.write(text)


def _check_out(out_path: str | None):
    """Raise, before any work, the OSError that writing ``out_path`` would raise after it.

    The file is not opened, so a run that fails later leaves it as it was.
    """
    if out_path is None:
        return
    try:  # stat raises what open would for a missing or non-directory component
        if stat.S_ISDIR(os.stat(out_path).st_mode):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), out_path)
        target, mode = out_path, os.W_OK  # an existing file: write permission on it alone
    except FileNotFoundError:
        target, mode = os.path.dirname(out_path) or ".", os.W_OK | os.X_OK  # a new one
        if not out_path or not os.path.isdir(target):  # open("") fails as os.stat("") did
            raise
    if not os.access(target, mode):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), out_path)


def _format_text(histogram, top: int) -> str:
    ranked = list(histogram.entries.rows(top))
    peak = ranked[0][3] if ranked else 1
    lines = [
        f"target {histogram.target}  bits {histogram.bits}  "
        f"iterations {histogram.iterations}  shots {histogram.shots}",
        f"{'x':>4} {'y':>4} {'z':>4} {'count':>7}",
    ]
    for xv, yv, zv, count in ranked:
        bar = "#" * max(1, round(BAR_WIDTH * count / peak))
        lines.append(f"{xv:>4} {yv:>4} {zv:>4} {count:>7}  {bar}")
    lines.append(f"valid_fraction {histogram.valid_fraction:.6f}")
    lines.append(f"exact_success {histogram.exact_success:.6f}")
    return "\n".join(lines) + "\n"


def _format_json(histogram) -> str:
    return json.dumps(obfuscator.to_json_dict(histogram), indent=2) + "\n"


def _format_csv(histogram) -> str:
    lines = ["x,y,z,count,valid"]
    for xv, yv, zv, count in histogram.entries.rows():
        valid = int(xv + yv + zv == histogram.target)
        lines.append(f"{xv},{yv},{zv},{count},{valid}")
    return "\n".join(lines) + "\n"


def cmd_obfuscate(args) -> int:
    if args.top < 1:
        raise ConstraintError(f"--top must be >= 1, got {args.top}")
    _check_out(args.out)
    obf_plan = obfuscator.plan(args.n_value, args.bits)
    histogram = obfuscator.run(obf_plan, shots=args.shots, seed=args.seed)
    if args.format == "json":
        text = _format_json(histogram)
    elif args.format == "csv":
        text = _format_csv(histogram)
    else:
        text = _format_text(histogram, args.top)
    _print(text, args.out)
    return 0


def _parse_targets(raw: str) -> list[int]:
    try:
        targets = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConstraintError(f"bad target list: {raw!r}") from None
    if not targets:
        raise ConstraintError("empty target list")
    return targets


def cmd_bench(args) -> int:
    targets = _parse_targets(args.targets)
    plans = [obfuscator.plan(target) for target in targets]
    if not args.plan_only:
        for obf_plan in plans:
            statevector.check_width(obf_plan.total_qubits)
    lines = [BENCH_HEADER]
    for obf_plan in plans:
        built = obfuscator.build_full_circuit(obf_plan)
        expanded = circuit.decompose_mcx(built)
        if args.plan_only:
            run_time = ""
        else:
            _, elapsed = obfuscator.simulate(obf_plan)
            run_time = f"{elapsed:.3f}"
        lines.append(
            f"{obf_plan.target},{obf_plan.bits},{obf_plan.iterations},"
            f"{obf_plan.total_qubits},{circuit.depth(expanded)},"
            f"{circuit.gate_counts(expanded)['total']},{run_time},"
            f"{obf_plan.solution_count}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_count(args) -> int:
    formula = grover.count_solutions(args.n_value, args.bits)
    if not args.verify:
        print(formula)
        return 0
    if args.bits > VERIFY_MAX_BITS:
        raise ResourceLimitError(
            f"--verify enumerates 8^{args.bits} triplets; the limit is "
            f"--bits {VERIFY_MAX_BITS}"
        )
    brute = grover.brute_force_solutions(args.n_value, args.bits)
    print(f"formula {formula}")
    print(f"brute_force {brute}")
    print("match" if formula == brute else "MISMATCH")
    return 0 if formula == brute else 1


def _counts_line(label: str, counts: dict) -> str:
    body = "  ".join(f"{kind}={counts[kind]}" for kind in circuit.GATE_KINDS)
    return f"{label} {body}  total={counts['total']}"


def cmd_inspect(args) -> int:
    obf_plan = obfuscator.plan(args.n_value, args.bits)
    built = obfuscator.build_full_circuit(obf_plan)
    expanded = circuit.decompose_mcx(built)
    bits = obf_plan.bits
    adder = arithmetic.build_half_adder(arithmetic.AdderLayout(
        tuple(range(bits)), tuple(range(bits, 2 * bits)), 2 * bits, 2 * bits + 1))
    report = {
        "target": obf_plan.target,
        "bits": bits,
        "qubits": obf_plan.total_qubits,
        "iterations": obf_plan.iterations,
        "solutions": obf_plan.solution_count,
        "space_size": obf_plan.space_size,
        "theoretical_success": obf_plan.theoretical_success,
        "gates": circuit.gate_counts(built),
        "depth": circuit.depth(built),
        "decomposed_gates": circuit.gate_counts(expanded),
        "decomposed_depth": circuit.depth(expanded),
        "decomposed_width": expanded.width,
        "adder_gates": {
            "measured": circuit.gate_counts(adder),
            "reference": arithmetic.cuccaro_reference_counts(bits),
        },
    }
    if args.format == "json":
        print(json.dumps(report, indent=2))
        return 0
    for key, value in report.items():
        if key == "adder_gates":
            measured, reference = value["measured"], value["reference"]
            print(
                f"adder ccx={measured['ccx']} cx={measured['cx']} "
                f"(reference construction: ccx={reference['ccx']} cx={reference['cx']})"
            )
        elif key == "theoretical_success":
            print(f"{key} {value:.6f}")
        elif isinstance(value, dict):
            print(_counts_line(key, value))
        else:
            print(f"{key} {value}")
    return 0


def cmd_export(args) -> int:
    _check_out(args.out)
    obf_plan = obfuscator.plan(args.n_value, args.bits)
    built = obfuscator.build_full_circuit(obf_plan)
    if args.decompose:
        built = circuit.decompose_mcx(built)
    _print(circuit.serialize(built), args.out)
    return 0


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qobf",
        description="Hide a natural number as amplified sum decompositions "
        "over three quantum registers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_target_flags(p):
        p.add_argument("--n-value", type=int, required=True,
                       help="natural number to decompose")
        p.add_argument("--bits", type=int, default=None,
                       help="bits per register (default: minimal width)")

    p_obf = sub.add_parser("obfuscate", help="run the pipeline and decode samples")
    add_target_flags(p_obf)
    p_obf.add_argument("--shots", type=int, default=obfuscator.DEFAULT_SHOTS)
    p_obf.add_argument("--seed", type=int, default=obfuscator.DEFAULT_SEED)
    p_obf.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_obf.add_argument("--top", type=int, default=TEXT_TOP_DEFAULT,
                       help="rows shown in text format")
    p_obf.add_argument("--out", default=None, help="write output to this file")
    p_obf.set_defaults(func=cmd_obfuscate)

    p_bench = sub.add_parser("bench", help="benchmark table as CSV")
    p_bench.add_argument("--targets", default=DEFAULT_TARGETS,
                         help="comma-separated target values")
    p_bench.add_argument("--plan-only", action="store_true",
                         help="skip simulation; run_time_s left empty")
    p_bench.set_defaults(func=cmd_bench)

    p_count = sub.add_parser("count", help="count valid triplets")
    p_count.add_argument("--n-value", type=int, required=True)
    p_count.add_argument("--bits", type=int, required=True)
    p_count.add_argument("--verify", action="store_true",
                         help="cross-check against brute force "
                         f"(bits <= {VERIFY_MAX_BITS})")
    p_count.set_defaults(func=cmd_count)

    p_inspect = sub.add_parser("inspect", help="circuit metrics for one target")
    add_target_flags(p_inspect)
    p_inspect.add_argument("--format", choices=("text", "json"), default="text",
                           help="output format (default: text)")
    p_inspect.set_defaults(func=cmd_inspect)

    p_export = sub.add_parser("export", help="write the circuit text format")
    add_target_flags(p_export)
    p_export.add_argument("--out", default=None, help="write to this file")
    p_export.add_argument("--decompose", action="store_true",
                          help="expand multi-controlled X gates first")
    p_export.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory (QOBF_MAX_QUBITS caps the circuit width)",
              file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
