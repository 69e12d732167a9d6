"""The four benchmark workloads: inputs, one operation, and its output check.

Each workload draws every input from its own ``numpy`` generator seeded by
the benchmark's ``--seed``; polamp only receives the generated inputs.
Calls go through module attributes (``polamp.cli.run``, ``polamp.amplitude``)
looked up at call time, so the traced run sees the span wrappers.

``run`` is the timed operation. ``check`` compares its output with the
oracles in :mod:`oracles` and returns an error message, or ``None``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import oracles

import polamp
import polamp.cli

#: Absolute tolerance of every output check.
TOLERANCE = 1e-12

#: Marginal frequencies must lie within this many binomial sigmas.
MARGINAL_SIGMAS = 5.0

EXPECTED_ERRATA = {"Eq58", "Eq59", "Eq72"}


class CliOutput:
    """Exit code and captured standard output of one ``polamp.cli.run`` call."""

    def __init__(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.code = polamp.cli.run(argv)
        self.text = out.getvalue()

    @property
    def lines(self) -> int:
        return self.text.count("\n")

    @property
    def nbytes(self) -> int:
        return len(self.text.encode())


class Verify:
    """``polamp verify --machine`` at the default draws, one generated seed per op."""

    name = "verify"

    def __init__(self, rng, workdir: Path, small: bool):
        self.rng = rng
        # The full-size op relies on the CLI default of 1e5 draws; the check
        # reads the draws back from every suite line.
        self.draws = 200 if small else 100_000
        self.extra = ["--draws", "200"] if small else []
        self.sizes = {"draws": self.draws, "suites": 11}

    def next_input(self):
        return str(int(self.rng.integers(0, 2**63)))

    def run(self, seed):
        return CliOutput(["verify", "--machine", "--seed", seed, *self.extra])

    def check(self, seed, out: CliOutput):
        if out.code != 0:
            return f"verify --seed {seed}: exit code {out.code}"
        lines = out.text.splitlines()
        if not lines or not lines[-1].startswith("verify pass=1 suites=11 failed=0"):
            return f"verify --seed {seed}: summary {lines[-1:]!r}"
        suites = [ln for ln in lines if ln.startswith("suite ")]
        if len(suites) != 11 or not all(
            f" draws={self.draws} " in ln and ln.endswith(" pass=1") for ln in suites
        ):
            return f"verify --seed {seed}: suite lines {suites!r}"
        errata = {
            ln.split()[1].removeprefix("equation=") for ln in lines if ln.startswith("erratum ")
        }
        if errata != EXPECTED_ERRATA:
            return f"verify --seed {seed}: errata {sorted(errata)}"
        return None


class Chain:
    """``polamp simulate --machine`` on a generated analyzer chain, one chain per op."""

    def __init__(self, rng, workdir: Path, stages: int, trials: int, first_equals_initial: bool):
        self.rng = rng
        self.path = workdir / f"{self.name}.json"
        self.n_stages = stages
        self.trials = trials
        self.first_equals_initial = first_equals_initial
        self.bits = oracles.sequence_bits(stages)
        self.labels = ["".join("+-"[b] for b in row) for row in self.bits]
        self.sizes = {"stages": stages, "trials": trials, "sequences": 2**stages}

    def next_input(self):
        rng = self.rng
        # Non-zero phases: alpha in [1, 359] degrees.
        initial = {
            "theta_deg": float(rng.uniform(0.0, 180.0)),
            "alpha_deg": float(rng.uniform(1.0, 359.0)),
            "branch": "+" if rng.random() < 0.5 else "-",
        }
        stages = [
            {"theta_deg": float(t), "alpha_deg": float(a)}
            for t, a in zip(
                rng.uniform(0.0, 180.0, self.n_stages), rng.uniform(1.0, 359.0, self.n_stages)
            )
        ]
        if self.first_equals_initial:
            stages[0] = {"theta_deg": initial["theta_deg"], "alpha_deg": initial["alpha_deg"]}
        document = {"initial": initial, "stages": stages}
        self.path.write_text(json.dumps(document))
        return document, str(int(rng.integers(0, 2**63)))

    def run(self, inputs):
        _, seed = inputs
        return CliOutput(
            ["simulate", str(self.path), "--machine", "--trials", str(self.trials), "--seed", seed]
        )

    def check(self, inputs, out: CliOutput):
        document, seed = inputs
        if out.code != 0:
            return f"simulate --seed {seed}: exit code {out.code}"
        n_seq = 2**self.n_stages
        lines = out.text.splitlines()
        if len(lines) != 2 * n_seq + 1:
            return f"simulate --seed {seed}: {len(lines)} lines, expected {2 * n_seq + 1}"
        dist, samples, report = lines[:n_seq], lines[n_seq:-1], lines[-1]

        if [ln.split()[1] for ln in dist] != [f"seq={s}" for s in self.labels]:
            return f"simulate --seed {seed}: distribution sequences out of order"
        if [ln.split()[1] for ln in samples] != [f"seq={s}" for s in self.labels]:
            return f"simulate --seed {seed}: sample sequences out of order"
        if report.split()[:3] != ["report", f"seed={seed}", f"trials={self.trials}"]:
            return f"simulate --seed {seed}: report {report!r}"

        p = np.array([float(ln.rpartition("p=")[2]) for ln in dist])
        counts = np.array([int(ln.split()[2].removeprefix("count=")) for ln in samples])

        deg = math.radians
        init = document["initial"]
        oracle = oracles.chain_distribution(
            (deg(init["theta_deg"]), deg(init["alpha_deg"]), init["branch"] == "+"),
            [(deg(s["theta_deg"]), deg(s["alpha_deg"])) for s in document["stages"]],
        )
        worst = float(np.max(np.abs(p - oracle)))
        if worst > TOLERANCE:
            return f"simulate --seed {seed}: exact p differs from the oracle by {worst:.3e}"
        if int(counts.sum()) != self.trials:
            return f"simulate --seed {seed}: counts sum to {counts.sum()}, not {self.trials}"
        if np.any(counts[p == 0.0]):
            return f"simulate --seed {seed}: a sequence with p = 0 was sampled"

        plus = self.bits == 0
        exact = oracle @ plus
        observed = counts @ plus / self.trials
        sigma = np.sqrt(np.clip(exact * (1.0 - exact), 0.0, None) / self.trials)
        excess = np.abs(observed - exact) - MARGINAL_SIGMAS * sigma
        if np.any(excess > TOLERANCE):
            stage = int(np.argmax(excess))
            return (
                f"simulate --seed {seed}: stage {stage} marginal {observed[stage]:.6f}"
                f" vs exact {exact[stage]:.6f} beyond {MARGINAL_SIGMAS} sigma"
            )
        return None


class ChainShallow(Chain):
    """2-stage chain at 1e7 trials: bound by ``sample``."""

    name = "chain_shallow"

    def __init__(self, rng, workdir: Path, small: bool):
        super().__init__(rng, workdir, 2, 10_000 if small else 10_000_000, False)


class ChainDeep(Chain):
    """16-stage chain at 1e6 trials, first stage equal to the preparation:
    half the sequences have probability exactly 0, and the op is bound by
    per-sequence labelling and formatting in the CLI."""

    name = "chain_deep"

    def __init__(self, rng, workdir: Path, small: bool):
        super().__init__(rng, workdir, 6 if small else 16, 10_000 if small else 1_000_000, True)


class ScalarApi:
    """A batch of generated label queries through the scalar API."""

    name = "scalar_api"

    def __init__(self, rng, workdir: Path, small: bool):
        self.rng = rng
        self.queries = 20 if small else 2000
        self.sizes = {"queries": self.queries}

    def next_input(self):
        n, rng = self.queries, self.rng
        angles = rng.uniform(0.0, 2 * np.pi, (10, n))
        branches = rng.random((2, n)) < 0.5
        r_plus = rng.uniform(-3.0, 3.0, n)
        r_minus = r_plus - rng.uniform(0.5, 3.0, n) * np.where(rng.random(n) < 0.5, 1.0, -1.0)
        # Each column: (ta, aa, tb, ab, tv, av, tm, am, tc, ac), a's branch,
        # b's branch, r_plus, r_minus; as Python scalars, as a user passes them.
        return {
            "angles": angles,
            "branches": branches,
            "r": np.stack([r_plus, r_minus]),
            "rows": list(
                zip(*angles.tolist(), *branches.tolist(), r_plus.tolist(), r_minus.tolist())
            ),
        }

    def run(self, inputs):
        p = polamp
        plus, minus, direction = p.plus, p.minus, p.Direction
        amplitude, probability, chain = p.amplitude, p.probability, p.chain
        state_vector, observable_matrix = p.state_vector, p.observable_matrix
        eigenvector_states, expectation = p.eigenvector_states, p.expectation
        polarization_operator, expectation_closed = p.polarization_operator, p.expectation_closed
        standard_operator = p.standard_operator
        out = []
        for ta, aa, tb, ab, tv, av, tm, am, tc, ac, sa, sb, rp, rm in inputs["rows"]:
            a = plus(ta, aa) if sa else minus(ta, aa)
            b = plus(tb, ab) if sb else minus(tb, ab)
            via, measure, basis = direction(tv, av), direction(tm, am), direction(tc, ac)
            sv = state_vector(a, basis)
            obs = observable_matrix(measure, basis, rp, rm)
            xi_plus, xi_minus = eigenvector_states(measure, basis)
            standard = standard_operator(measure)
            out.append(
                (
                    amplitude(a, b),
                    probability(a, b),
                    chain(a, b, via),
                    sv.c_plus,
                    sv.c_minus,
                    obs.trace,
                    obs.determinant,
                    xi_plus.c_plus,
                    xi_plus.c_minus,
                    xi_minus.c_plus,
                    xi_minus.c_minus,
                    expectation(sv, polarization_operator(measure, basis)),
                    expectation_closed(a, measure),
                    standard.m11,
                    standard.m12,
                )
            )
        return out

    def check(self, inputs, out):
        ta, aa, tb, ab, _tv, _av, tm, am, tc, ac = inputs["angles"]
        sa, sb = inputs["branches"]
        r_plus, r_minus = inputs["r"]
        if len(out) != self.queries:
            return f"scalar_api: {len(out)} results for {self.queries} queries"
        (amp, prob, chained, s1, s2, trace, det, xp1, xp2, xm1, xm2, e_matrix, e_closed, s11, s12) = (
            np.array(column) for column in zip(*out)
        )
        oracle_amp = oracles.amplitude(ta, aa, sa, tb, ab, sb)
        residuals = {
            "amplitude vs oracle": np.abs(amp - oracle_amp),
            "probability vs oracle": np.abs(prob - np.abs(oracle_amp) ** 2),
            "chain vs amplitude": np.abs(chained - amp),
            "state_vector+ vs oracle": np.abs(s1 - oracles.amplitude(ta, aa, sa, tc, ac, True)),
            "state_vector- vs oracle": np.abs(s2 - oracles.amplitude(ta, aa, sa, tc, ac, False)),
            "trace vs r+ + r-": np.abs(trace - (r_plus + r_minus)),
            "determinant vs r+ r-": np.abs(det - r_plus * r_minus),
            "eigenvector+ vs oracle": np.maximum(
                np.abs(xp1 - oracles.amplitude(tm, am, True, tc, ac, True)),
                np.abs(xp2 - oracles.amplitude(tm, am, True, tc, ac, False)),
            ),
            "eigenvector- vs oracle": np.maximum(
                np.abs(xm1 - oracles.amplitude(tm, am, False, tc, ac, True)),
                np.abs(xm2 - oracles.amplitude(tm, am, False, tc, ac, False)),
            ),
            "matrix vs closed expectation": np.abs(e_matrix - e_closed),
            "closed expectation vs oracle": np.abs(
                e_closed - oracles.expectation(ta, aa, sa, tm, am)
            ),
            "standard operator m11 vs cos 2tb": np.abs(s11 - np.cos(2 * tm)),
            "standard operator m12 vs sin 2tb e^-iab": np.abs(s12 - np.sin(2 * tm) * np.exp(-1j * am)),
        }
        # Matrix elements scale with |r| <= 6, so its invariants get that much room.
        scale = {"trace vs r+ + r-": 10.0, "determinant vs r+ r-": 100.0}
        for what, residual in residuals.items():
            worst = float(np.max(residual))
            if not worst <= TOLERANCE * scale.get(what, 1.0):
                return f"scalar_api: {what} off by {worst:.3e}"
        return None


WORKLOADS = {w.name: w for w in (Verify, ChainShallow, ChainDeep, ScalarApi)}
