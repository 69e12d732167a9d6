"""Command-line interface.

Subcommands: amp, prob, operator, eigvec, expect, simulate, verify.

Angles on the command line are degrees by default (--rad switches to
radians); angles inside scenario files are always degrees. Degree input is
converted to radians at exactly one point, so ``--deg X`` and
``--rad <X*pi/180>`` agree bit-for-bit.

Output modes: a human-readable table (default) and ``--machine``:
one record per line of space-separated ``key=value`` fields, floats with
17 significant digits (round-trip safe), complex values as ``re+imi``.

Exit codes: 0 success, 1 output closed by the reader, 2 usage error,
3 unreadable or invalid scenario file (including the stage cap),
4 invariant-suite failure in ``verify``.

Environment overrides (flags take precedence): ``POLAMP_TOLERANCE`` for
the numeric tolerance, ``POLAMP_STAGE_CAP`` for the simulation stage cap.
They pass the same validators as the flags; an invalid value is a usage
error naming the variable.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from .amplitudes import amplitude, probability
from .directions import DEFAULT_TOLERANCE, Branch, BranchLabel, Direction
from .operators import (
    Observable2,
    eigenvector_states,
    expectation_closed,
    observable_matrix,
)
from .scenario import ScenarioError, load_scenario_file
from .simulate import (
    DEFAULT_STAGE_CAP,
    StageCapError,
    exact_distribution,
    sample,
    sequence_labels,
)
from .verify import DEFAULT_DRAWS, run_all

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_VERIFY = 4

ENV_TOLERANCE = "POLAMP_TOLERANCE"
ENV_STAGE_CAP = "POLAMP_STAGE_CAP"

DEFAULT_TRIALS = 100_000


def _number(convert, text: str):
    """``convert(text)``; text that is no number is a usage error in plain words."""
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise argparse.ArgumentTypeError(f"{text!r} is not {kind}") from None


def _seed_u64(text: str) -> int:
    value = _number(int, text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _positive_int(text: str) -> int:
    value = _number(int, text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _non_negative_int(text: str) -> int:
    value = _number(int, text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _finite_float(text: str) -> float:
    value = _number(float, text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be a finite number")
    return value


def _positive_float(text: str) -> float:
    value = _number(float, text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be a finite positive number")
    return value


def _branch(text: str) -> Branch:
    try:
        return Branch.from_token(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


#: A negative number in any form ``float()`` reads, except with underscores:
#: ``-20``, ``-0.5``, ``-1e5``, ``-2.5E+1``, ``-inf``.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.I)


class _Parser(argparse.ArgumentParser):
    """Takes every ``_NEGATIVE_NUMBER`` for a value; argparse alone takes ``-1e5`` for a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER  # no polamp flag looks like a number


def _fmt_complex(z: complex, machine: bool) -> str:
    if machine:
        return f"{z.real:.17g}{z.imag:+.17g}i"
    return f"{z.real:.10g}{z.imag:+.10g}i"


def _env_value(name: str, validate):
    """The override ``$name`` passed through the validator of its flag, or None.

    An invalid value is a usage error, reported the way argparse reports a
    bad flag: a message on stderr and ``SystemExit(EXIT_USAGE)``.
    """
    text = os.environ.get(name)
    if text is None:
        return None
    try:
        return validate(text)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {name}={text!r}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _first(*values):
    """The first of ``values`` that is not None."""
    return next(v for v in values if v is not None)


def _resolve(flag, env_name: str, validate, *fallbacks):
    """A setting: its flag if given, else ``$env_name``, else the first fallback.

    The variable is read only when the flag is absent, so a flag overrides
    even an invalid value in the environment.
    """
    if flag is not None:
        return flag
    return _first(_env_value(env_name, validate), *fallbacks)


def _direction(args, prefix: str) -> Direction:
    """Direction ``prefix`` of the parsed arguments.

    The single degree-to-radian conversion point.
    """
    angles = (getattr(args, f"theta_{prefix}"), getattr(args, f"alpha_{prefix}"))
    return Direction(*(angles if args.rad else (math.radians(a) for a in angles)))


def _label(args, prefix: str) -> BranchLabel:
    return BranchLabel(_direction(args, prefix), getattr(args, f"branch_{prefix}"))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_amp(args) -> int:
    z = amplitude(_label(args, "a"), _label(args, "b"))
    if args.machine:
        print(
            f"amp re={z.real:.17g} im={z.imag:.17g} modulus2={abs(z) ** 2:.17g}"
        )
    else:
        print(f"amplitude   = {_fmt_complex(z, False)}")
        print(f"|amplitude|^2 = {abs(z) ** 2:.12g}")
    return EXIT_OK


def cmd_prob(args) -> int:
    p = probability(_label(args, "a"), _label(args, "b"))
    if args.machine:
        print(f"prob value={p:.17g}")
    else:
        print(f"probability = {p:.12g}")
    return EXIT_OK


def _eigvec_lines(obs: Observable2, machine: bool) -> list[str]:
    xi_plus, xi_minus = eigenvector_states(obs.measure_dir, obs.basis_dir)
    m = obs.as_array()
    lines = []
    for sign, xi, r in (("+", xi_plus, obs.r_plus), ("-", xi_minus, obs.r_minus)):
        v = xi.as_array()
        residual = float(np.max(np.abs(m @ v - r * v)))
        if machine:
            lines.append(
                f"eigvec branch={sign} eigenvalue={r:.17g}"
                f" c_plus={_fmt_complex(xi.c_plus, True)}"
                f" c_minus={_fmt_complex(xi.c_minus, True)}"
                f" residual={residual:.17g}"
            )
        else:
            lines.append(
                f"eigvec {sign} (eigenvalue {r:.12g}): "
                f"({_fmt_complex(xi.c_plus, False)}, {_fmt_complex(xi.c_minus, False)})"
                f"  residual = {residual:.3e}"
            )
    return lines


def cmd_operator(args) -> int:
    obs = observable_matrix(_direction(args, "b"), _direction(args, "c"), args.r_plus, args.r_minus)
    if args.machine:
        print(
            "matrix"
            f" m11={_fmt_complex(obs.m11, True)} m12={_fmt_complex(obs.m12, True)}"
            f" m21={_fmt_complex(obs.m21, True)} m22={_fmt_complex(obs.m22, True)}"
            f" r_plus={obs.r_plus:.17g} r_minus={obs.r_minus:.17g}"
        )
    else:
        print("observable matrix:")
        print(f"  [ {_fmt_complex(obs.m11, False)}  {_fmt_complex(obs.m12, False)} ]")
        print(f"  [ {_fmt_complex(obs.m21, False)}  {_fmt_complex(obs.m22, False)} ]")
        print(
            f"trace = {obs.trace.real:.12g}"
            f"  det = {obs.determinant.real:.12g}"
        )
    for line in _eigvec_lines(obs, args.machine):
        print(line)
    return EXIT_OK


def cmd_eigvec(args) -> int:
    obs = observable_matrix(_direction(args, "b"), _direction(args, "c"), 1.0, -1.0)
    for line in _eigvec_lines(obs, args.machine):
        print(line)
    return EXIT_OK


def cmd_expect(args) -> int:
    initial = _label(args, "a")
    value = expectation_closed(initial, _direction(args, "b"))
    if args.machine:
        print(f"expect value={value:.17g}")
    else:
        print(f"expectation = {value:.12g}")
    return EXIT_OK


#: The record of one sequence, ``(human, machine)`` so that ``args.machine``
#: picks one: its label, then its probability, or its count, expected count
#: and deviation in standard deviations.
_DISTRIBUTION_ROW = ("  %s  p = %.12g\n", "distribution seq=%s p=%.17g\n")
_SAMPLE_ROW = (
    "  %s  count = %d  expected = %.12g  deviation = %.2f sigma\n",
    "sample seq=%s count=%d expected=%.17g sigma=%.17g\n",
)


def _write_rows(template: str, n_stages: int, *columns) -> None:
    """``template % (label, *values)`` for every sequence, formatted as it is written."""
    # One write per line keeps each write below the pipe's atomic size, so a
    # reader that closes the pipe raises BrokenPipeError here; a multi-line
    # write to unbuffered stdout can instead be cut short without an error.
    sys.stdout.writelines(map(template.__mod__, zip(sequence_labels(n_stages), *columns)))


def cmd_simulate(args) -> int:
    try:
        loaded = load_scenario_file(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE

    tolerance = _resolve(
        args.tolerance, ENV_TOLERANCE, _positive_float, loaded.tolerance, DEFAULT_TOLERANCE
    )
    stage_cap = _resolve(args.stage_cap, ENV_STAGE_CAP, _positive_int, DEFAULT_STAGE_CAP)
    try:
        dist = exact_distribution(loaded.scenario, stage_cap=stage_cap)
    except StageCapError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_FILE

    total_dev = dist.total() - 1.0
    if abs(total_dev) > tolerance:
        print(f"warning: distribution sums to 1 {total_dev:+.3e}", file=sys.stderr)

    machine = args.machine
    if not machine:
        print(f"exact distribution over {dist.n_stages} stage(s):")
    _write_rows(_DISTRIBUTION_ROW[machine], dist.n_stages, dist.probs)

    if args.exact:
        return EXIT_OK

    seed = _first(args.seed, loaded.seed, 0)
    trials = _first(args.trials, loaded.trials, DEFAULT_TRIALS)
    report = sample(dist, seed=seed, trials=trials)
    if not machine:
        print(f"monte carlo: seed={report.seed} trials={report.trials}")
    _write_rows(_SAMPLE_ROW[machine], dist.n_stages, report.counts, report.expected, report.sigma)
    if machine:
        print(
            f"report seed={report.seed} trials={report.trials}"
            f" max_sigma={report.max_abs_deviation_sigma:.17g}"
        )
    else:
        print(f"max deviation = {report.max_abs_deviation_sigma:.2f} sigma")
    return EXIT_OK


def cmd_verify(args) -> int:
    tolerance = _resolve(args.tolerance, ENV_TOLERANCE, _positive_float, DEFAULT_TOLERANCE)
    report = run_all(draws=args.draws, seed=args.seed, tolerance=tolerance)
    machine = args.machine
    for s in report.suites:
        if machine:
            print(
                f"suite name={s.name} draws={s.draws} max_residual={s.max_residual:.17g}"
                f" tolerance={s.tolerance:.17g} pass={int(s.passed)}"
            )
        else:
            flag, relation = ("PASS", "<") if s.passed else ("FAIL", ">=")
            print(
                f"{flag} {s.name:<26} max residual {s.max_residual:.3e}"
                f" {relation} {s.tolerance:.0e} ({s.draws} draws)"
            )
    for e in report.errata:
        if machine:
            print(
                f"erratum equation={e.equation} element={e.element}"
                f" paper={_fmt_complex(e.paper_value, True)}"
                f" derived={_fmt_complex(e.derived_value, True)}"
                f" max_abs_diff={e.max_abs_diff:.17g}"
            )
        else:
            print(
                f"ERRATUM {e.equation} {e.element}: stated {_fmt_complex(e.paper_value, False)}"
                f" vs derived {_fmt_complex(e.derived_value, False)}"
                f" (max |diff| {e.max_abs_diff:.3e})"
            )
    n_pass = sum(s.passed for s in report.suites)
    if machine:
        print(
            f"verify pass={int(report.passed)} suites={len(report.suites)}"
            f" failed={len(report.suites) - n_pass} errata={len(report.errata)}"
        )
    else:
        verdict = "all invariant suites pass" if report.passed else "INVARIANT FAILURE"
        print(
            f"{verdict} ({n_pass}/{len(report.suites)});"
            f" {len(report.errata)} errata recorded"
        )
    return EXIT_OK if report.passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_unit_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--deg", action="store_true", default=True,
        help="angles are degrees (default)",
    )
    group.add_argument(
        "--rad", action="store_true", default=False,
        help="angles are radians",
    )


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machine", action="store_true", help="machine-readable output")


def _add_tolerance_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tolerance", type=_positive_float, default=None,
        help=f"numeric tolerance (default: ${ENV_TOLERANCE} or {DEFAULT_TOLERANCE})",
    )


def _add_direction_args(parser: argparse.ArgumentParser, prefix: str, what: str) -> None:
    parser.add_argument(f"theta_{prefix}", type=_finite_float, help=f"plane angle of {what}")
    parser.add_argument(f"alpha_{prefix}", type=_finite_float, help=f"relative phase of {what}")


def _add_label_args(parser: argparse.ArgumentParser, prefix: str) -> None:
    _add_direction_args(parser, prefix, f"direction {prefix}")
    parser.add_argument(
        f"branch_{prefix}", type=_branch, help=f"branch of direction {prefix}: + or -"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polamp",
        description="Generalized polarization amplitudes, operators and analyzer-chain simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("amp", help="transition amplitude between two branch labels")
    _add_label_args(p, "a")
    _add_label_args(p, "b")
    _add_unit_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_amp)

    p = sub.add_parser("prob", help="transition probability between two branch labels")
    _add_label_args(p, "a")
    _add_label_args(p, "b")
    _add_unit_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_prob)

    p = sub.add_parser("operator", help="observable matrix, eigenvectors and residuals")
    _add_direction_args(p, "b", "the measured direction")
    _add_direction_args(p, "c", "the basis direction")
    p.add_argument("--r-plus", type=_finite_float, default=1.0, help="value on the parallel branch")
    p.add_argument("--r-minus", type=_finite_float, default=-1.0, help="value on the perpendicular branch")
    _add_unit_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_operator)

    p = sub.add_parser("eigvec", help="eigenvector pair of the polarization operator")
    _add_direction_args(p, "b", "the measured direction")
    _add_direction_args(p, "c", "the basis direction")
    _add_unit_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_eigvec)

    p = sub.add_parser("expect", help="polarization expectation value")
    _add_label_args(p, "a")
    _add_direction_args(p, "b", "the measured direction")
    _add_unit_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_expect)

    p = sub.add_parser("simulate", help="exact and Monte Carlo analyzer-chain statistics")
    p.add_argument("scenario", help="scenario file (JSON, angles in degrees)")
    p.add_argument("--seed", type=_seed_u64, default=None, help="RNG seed (overrides the file)")
    p.add_argument("--trials", type=_positive_int, default=None, help="trial count (overrides the file)")
    p.add_argument("--exact", action="store_true", help="exact distribution only, no sampling")
    p.add_argument(
        "--stage-cap", type=_positive_int, default=None,
        help=f"maximum stage count (default: ${ENV_STAGE_CAP} or {DEFAULT_STAGE_CAP})",
    )
    _add_common_flags(p)
    _add_tolerance_flag(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("verify", help="run every invariant suite and report errata")
    p.add_argument("--draws", type=_non_negative_int, default=DEFAULT_DRAWS, help="random draws per suite")
    p.add_argument("--seed", type=_seed_u64, default=0, help="RNG seed for the draws")
    _add_common_flags(p)
    _add_tolerance_flag(p)
    p.set_defaults(handler=cmd_verify)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader is gone: send the rest, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED
    sys.exit(code)


if __name__ == "__main__":
    main()
