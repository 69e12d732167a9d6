"""Command-line interface.

Subcommands: amp, prob, operator, eigvec, expect, simulate, verify.

Angles on the command line are degrees unless ``--rad`` is given; angles
inside scenario files are always degrees. Degree input is converted to
radians at exactly one point, so an angle X in degrees and
``--rad <X*pi/180>`` agree bit-for-bit. A branch is exactly ``+`` or ``-``.

Output modes: a human-readable table (default) and ``--machine``:
one record per line, its kind followed by space-separated ``key=value``
fields. :func:`_record` writes every record but ``simulate``'s
per-sequence rows, whose ``%`` templates give the same bytes. A field is
formatted by its type: a float with 17 significant digits (``.17g``,
round-trip safe), a complex value as ``re+imi`` with both parts at
``.17g``, an integer in decimal, a bool as ``0``/``1`` and a string as is.

Exit codes: 0 success, 1 output closed by the reader, 2 usage error,
3 unreadable or invalid scenario file (including one of more stages than
``DEFAULT_STAGE_CAP``), 4 invariant-suite failure in ``verify``.

Every setting is a flag with its default in the parser; a scenario file is
the chain alone, and the environment sets nothing. Numbers pass the
library's checks (``check_seed``, ``check_count``, ``check_angle``,
``check_eigenvalue``, ``check_tolerance`` of :mod:`polamp.directions`); the
parser reports a rejected flag as a usage error.

The parser and the ``amp``, ``prob``, ``operator``, ``eigvec`` and
``expect`` handlers run without numpy. What the other commands need is
imported by the function that uses it: :mod:`polamp.simulate` and
:mod:`polamp.scenario` in :func:`cmd_simulate` and :func:`_write_rows`,
:mod:`polamp.verify` in :func:`cmd_verify`, and ``ctypes`` in
:func:`_keep_heap_resident`.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from .amplitudes import _probability_of, amplitude, probability
from .directions import (
    DEFAULT_DRAWS,
    DEFAULT_TOLERANCE,
    Branch,
    BranchLabel,
    Direction,
    check_angle,
    check_count,
    check_eigenvalue,
    check_seed,
    check_tolerance,
)
from .operators import (
    Observable2,
    eigenvector_states,
    expectation_closed,
    observable_matrix,
    polarization_operator,
)

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_VERIFY = 4

DEFAULT_TRIALS = 100_000


def _checked(convert, check, *args):
    """An argument type: ``check(convert(text), *args)``, whose ``ValueError`` is a usage error."""

    def validate(text: str):
        try:
            value = convert(text)
        except ValueError:  # the check rejects the text as it is
            value = text
        try:
            return check(value, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return validate


_seed_u64 = _checked(int, check_seed)
_positive_int = _checked(int, check_count, "count")
_non_negative_int = _checked(int, check_count, "count", 0)
_angle = _checked(float, check_angle)
_eigenvalue = _checked(float, check_eigenvalue)
_positive_float = _checked(float, check_tolerance)
_branch = _checked(str, Branch.from_token)


#: A negative number in any form ``float()`` reads, except with underscores:
#: ``-20``, ``-0.5``, ``-1e5``, ``-2.5E+1``, ``-inf``.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.I)


class _Parser(argparse.ArgumentParser):
    """Takes every ``_NEGATIVE_NUMBER`` for a value; argparse alone takes ``-1e5`` for a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER  # no polamp flag looks like a number


def _fmt_complex(z: complex) -> str:
    """``z`` for a human record: ``re+imi`` at 10 significant digits."""
    return f"{z.real:.10g}{z.imag:+.10g}i"


def _field(value) -> str:
    """One ``--machine`` field value, formatted by its type (module docstring)."""
    if isinstance(value, bool):  # str(True) is "True"
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}i"
    return str(value)


def _record(args, kind: str, human: str, **fields) -> None:
    """Print one record: ``human``, or under ``--machine`` ``kind`` and its ``key=value`` fields."""
    if args.machine:
        print(" ".join([kind, *(f"{key}={_field(value)}" for key, value in fields.items())]))
    else:
        print(human)


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
    p = _probability_of(z)  # the rule of ``probability``, so amp and prob agree
    human = f"amplitude   = {_fmt_complex(z)}\n|amplitude|^2 = {p:.12g}"
    _record(args, "amp", human, re=z.real, im=z.imag, modulus2=p)
    return EXIT_OK


def cmd_prob(args) -> int:
    p = probability(_label(args, "a"), _label(args, "b"))
    _record(args, "prob", f"probability = {p:.12g}", value=p)
    return EXIT_OK


def _eigvec_records(args, obs: Observable2) -> None:
    xi_plus, xi_minus = eigenvector_states(obs.measure_dir, obs.basis_dir)
    for sign, xi, r in (("+", xi_plus, obs.r_plus), ("-", xi_minus, obs.r_minus)):
        v1, v2 = xi.c_plus, xi.c_minus  # the residual is max |M v - r v| over both components
        residual = max(
            abs(obs.m11 * v1 + obs.m12 * v2 - r * v1), abs(obs.m21 * v1 + obs.m22 * v2 - r * v2)
        )
        human = (
            f"eigvec {sign} (eigenvalue {r:.12g}): "
            f"({_fmt_complex(xi.c_plus)}, {_fmt_complex(xi.c_minus)})  residual = {residual:.3e}"
        )
        _record(
            args, "eigvec", human,
            branch=sign, eigenvalue=r, c_plus=xi.c_plus, c_minus=xi.c_minus, residual=residual,
        )


def cmd_operator(args) -> int:
    obs = observable_matrix(_direction(args, "b"), _direction(args, "c"), args.r_plus, args.r_minus)
    human = (
        "observable matrix:\n"
        f"  [ {_fmt_complex(obs.m11)}  {_fmt_complex(obs.m12)} ]\n"
        f"  [ {_fmt_complex(obs.m21)}  {_fmt_complex(obs.m22)} ]\n"
        f"trace = {obs.trace.real:.12g}  det = {obs.determinant.real:.12g}"
    )
    _record(
        args, "matrix", human,
        m11=obs.m11, m12=obs.m12, m21=obs.m21, m22=obs.m22, r_plus=obs.r_plus, r_minus=obs.r_minus,
    )
    _eigvec_records(args, obs)
    return EXIT_OK


def cmd_eigvec(args) -> int:
    _eigvec_records(args, polarization_operator(_direction(args, "b"), _direction(args, "c")))
    return EXIT_OK


def cmd_expect(args) -> int:
    value = expectation_closed(_label(args, "a"), _direction(args, "b"))
    _record(args, "expect", f"expectation = {value:.12g}", value=value)
    return EXIT_OK


#: The record of one sequence, ``(human, machine)`` so that ``args.machine``
#: picks one: its label, then its probability, or its count, expected count
#: and deviation in standard deviations. The machine templates give the
#: bytes of :func:`_record` for the same fields, one ``%`` pass per row.
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
    from .simulate import sequence_labels

    sys.stdout.writelines(map(template.__mod__, zip(sequence_labels(n_stages), *columns)))


def cmd_simulate(args) -> int:
    from .scenario import ScenarioError, load_scenario_file
    from .simulate import StageCapError, exact_distribution, sample

    try:
        scenario = load_scenario_file(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE

    try:
        dist = exact_distribution(scenario)
    except StageCapError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_FILE

    machine = args.machine
    if not machine:
        print(f"exact distribution over {dist.n_stages} stage(s):")
    _write_rows(_DISTRIBUTION_ROW[machine], dist.n_stages, dist.probs)

    if args.exact:
        return EXIT_OK

    report = sample(dist, seed=args.seed, trials=args.trials)
    if not machine:
        print(f"monte carlo: seed={report.seed} trials={report.trials}")
    sigma = report.sigma
    _write_rows(_SAMPLE_ROW[machine], dist.n_stages, report.counts, report.expected, sigma)
    max_sigma = float(sigma.max())
    human = f"max deviation = {max_sigma:.2f} sigma"
    _record(args, "report", human, seed=report.seed, trials=report.trials, max_sigma=max_sigma)
    return EXIT_OK


def _keep_heap_resident() -> None:
    """Keep freed verify blocks in glibc's heap, not given back and faulted in again (README)."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no mallopt: macOS, Windows
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD at the cap of glibc's dynamic threshold
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD at twice that, as glibc's dynamic rule sets it


def cmd_verify(args) -> int:
    from .verify import run_all

    _keep_heap_resident()
    report = run_all(draws=args.draws, seed=args.seed, tolerance=args.tolerance)
    for s in report.suites:
        flag, relation = ("PASS", "<") if s.passed else ("FAIL", ">=")
        human = (
            f"{flag} {s.name:<26} max residual {s.max_residual:.3e}"
            f" {relation} {s.tolerance!r} ({s.draws} draws)"
        )
        _record(
            args, "suite", human, name=s.name, draws=s.draws, max_residual=s.max_residual,
            tolerance=s.tolerance, **{"pass": s.passed},
        )
    for e in report.errata:
        human = (
            f"ERRATUM {e.equation} {e.element}: stated {_fmt_complex(e.paper_value)}"
            f" vs derived {_fmt_complex(e.derived_value)} (max |diff| {e.max_abs_diff:.3e})"
        )
        _record(
            args, "erratum", human, equation=e.equation, element=e.element,
            paper=e.paper_value, derived=e.derived_value, max_abs_diff=e.max_abs_diff,
        )
    n_suites, n_errata = len(report.suites), len(report.errata)
    n_pass = sum(s.passed for s in report.suites)
    verdict = "all invariant suites pass" if report.passed else "INVARIANT FAILURE"
    human = f"{verdict} ({n_pass}/{n_suites}); {n_errata} errata recorded"
    _record(
        args, "verify", human,
        **{"pass": report.passed}, suites=n_suites, failed=n_suites - n_pass, errata=n_errata,
    )
    return EXIT_OK if report.passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polamp",
        description="Generalized polarization amplitudes, operators and analyzer-chain simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags that several subcommands share, each declared once
    machine, units = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    machine.add_argument("--machine", action="store_true", help="machine-readable output")
    units.add_argument("--rad", action="store_true", help="angles are radians (default: degrees)")

    # a subcommand reads the angles of its directions in order, each given as
    # (prefix, what); ``what`` None is branch label ``prefix``, which adds its branch
    a, b = ("a", None), ("b", None)
    measured, basis = ("b", "the measured direction"), ("c", "the basis direction")
    labels = [units, machine]
    for name, summary, handler, parents, *directions in (
        ("amp", "transition amplitude between two branch labels", cmd_amp, labels, a, b),
        ("prob", "transition probability between two branch labels", cmd_prob, labels, a, b),
        ("operator", "observable matrix, eigenvectors and residuals", cmd_operator, labels,
         measured, basis),
        ("eigvec", "eigenvector pair of the polarization operator", cmd_eigvec, labels,
         measured, basis),
        ("expect", "polarization expectation value", cmd_expect, labels, a, measured),
        ("simulate", "exact and Monte Carlo analyzer-chain statistics", cmd_simulate, [machine]),
        ("verify", "run every invariant suite and report errata", cmd_verify, [machine]),
    ):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(handler=handler)
        for prefix, what in directions:
            of = what or f"direction {prefix}"
            p.add_argument(f"theta_{prefix}", type=_angle, help=f"plane angle of {of}")
            p.add_argument(f"alpha_{prefix}", type=_angle, help=f"relative phase of {of}")
            if what is None:
                p.add_argument(f"branch_{prefix}", type=_branch, help=f"branch of {of}: + or -")

    p = sub.choices["operator"]
    p.add_argument(
        "--r-plus", type=_eigenvalue, default=1.0, help="value on the parallel branch (default: %(default)s)"
    )
    p.add_argument(
        "--r-minus", type=_eigenvalue, default=-1.0,
        help="value on the perpendicular branch (default: %(default)s)",
    )

    p = sub.choices["simulate"]
    p.add_argument("scenario", help="scenario file (JSON, angles in degrees)")
    p.add_argument("--seed", type=_seed_u64, default=0, help="RNG seed (default: %(default)s)")
    p.add_argument(
        "--trials", type=_positive_int, default=DEFAULT_TRIALS, help="trial count (default: %(default)s)"
    )
    p.add_argument("--exact", action="store_true", help="exact distribution only, no sampling")

    p = sub.choices["verify"]
    p.add_argument(
        "--tolerance", type=_positive_float, default=DEFAULT_TOLERANCE,
        help="numeric tolerance (default: %(default)s)",
    )
    p.add_argument(
        "--draws", type=_non_negative_int, default=DEFAULT_DRAWS,
        help="random draws per suite (default: %(default)s)",
    )
    p.add_argument("--seed", type=_seed_u64, default=0, help="RNG seed for the draws (default: %(default)s)")
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
