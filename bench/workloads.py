"""The four benchmark workloads: inputs, one timed run, and verification.

Each workload runs through qfridge's public entry points: the CLI's
``main`` for sweeps and scans (what ``qfridge sweep`` / ``qfridge scan``
execute after interpreter start-up) and the library functions for time
evolution.  Library calls go through module attributes, so the tracer's
wrappers see them.

- ``figure_sweep``: the shipped 200-point hot-bath sweep with a thermal
  background; every point has 12 dissipators and a unique state, so
  Liouvillian assembly dominates.
- ``census_all``: ``scan --mode all`` over 216 masks without background;
  every row is a different mask, so the load is class decomposition,
  per-class solves and reporting-state selection.
- ``cold_edge``: eight 25-point sweeps of the REVIVAL mask down to
  T_C = 0.01, where rates span about 40 decades; checked against a
  high-precision reference, and the only workload where the seed code
  gives wrong rows.
- ``relaxation``: seeded random initial states propagated to convergence
  on a unique-state and a multistable generator, plus ``branch_weights``
  and one ``run_steady``; the only workload that evolves states in time.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import verify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIGS = ROOT / "configs"
REFERENCE = BENCH / "reference"
OUT = BENCH / "out"


@dataclass
class Output:
    """What one run produced: the rows it emitted and what verifies them."""

    rows_emitted: int
    verdicts: list


def _cli(args: list[str]) -> None:
    """Run the qfridge CLI in-process; its warnings go to a buffer."""
    from qfridge import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(args)
    if code != 0:
        raise RuntimeError(f"qfridge {' '.join(args)} exited {code}: {err.getvalue()}")


def failed_run(keys: list[str], exc: Exception) -> Output:
    """Every row of a run that raised counts as failed."""
    reason = f"run failed: {type(exc).__name__}: {exc}"
    return Output(0, [verify.Verdict(k, False, reason) for k in keys])


# ---------------------------------------------------------------------------
# figure_sweep and census_all: the shipped configs
# ---------------------------------------------------------------------------


class FigureSweep:
    name = "figure_sweep"
    reference = REFERENCE / "figure_sweep.csv"

    def prepare(self, seed: int) -> list[Path]:
        return [CONFIGS / "figure_sweep.ini"]

    def execute(self, configs: list[Path], parallel: int) -> Path:
        out = OUT / f"{self.name}-p{parallel}.csv"
        out.unlink(missing_ok=True)
        _cli(["sweep", "--config", str(configs[0]), "--out", str(out),
              "--parallel", str(parallel)])
        return out

    def check(self, out: Path) -> Output:
        verdicts = verify.verify_sweep(out, self.reference)
        return Output(len(verdicts), verdicts)

    def keys(self) -> list[str]:
        return [str(i) for i in range(len(verify.read_table(self.reference)[2]))]


class CensusAll:
    name = "census_all"
    reference = REFERENCE / "census_all.csv"

    def prepare(self, seed: int) -> list[Path]:
        return [CONFIGS / "filter_census.ini"]

    def execute(self, configs: list[Path], parallel: int) -> Path:
        out = OUT / f"{self.name}-p{parallel}.csv"
        out.unlink(missing_ok=True)
        _cli(["scan", "--config", str(configs[0]), "--mode", "all",
              "--out", str(out), "--parallel", str(parallel)])
        return out

    def check(self, out: Path) -> Output:
        verdicts = verify.verify_scan(out, self.reference)
        return Output(len(verdicts), verdicts)

    def keys(self) -> list[str]:
        return [r[0] for r in verify.read_table(self.reference)[2]]


# ---------------------------------------------------------------------------
# cold_edge: REVIVAL mask, T_R = 4 T_C, T_C from 0.1 down to 0.01
# ---------------------------------------------------------------------------

COLD_EDGE_TC = [float(t) for t in np.geomspace(0.1, 0.01, 8)]


def cold_edge_config(t_c: float) -> str:
    return "\n".join((
        "[system]", "omega_c = 1.0", "omega_h = 3.0", "g = 0.25", "gamma = 0.05",
        "[reservoirs]", "t_h = 0.5", f"t_r = {4.0 * t_c!r}", f"t_c = {t_c!r}",
        "[filter]", "h = 3", "r = 2", "c = 1",
        "[sweep]", "variable = t_h", "start = 0.5", "stop = 12.0", "points = 25",
    )) + "\n"


def write_cold_edge_configs(directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, t_c in enumerate(COLD_EDGE_TC):
        path = directory / f"tc{k}.ini"
        path.write_text(cold_edge_config(t_c), encoding="utf-8")
        paths.append(path)
    return paths


class ColdEdge:
    name = "cold_edge"
    reference_path = REFERENCE / "cold_edge.json"

    def __init__(self):
        self.reference = verify.load_cold_edge_reference(self.reference_path)
        self.known_failures = dict(self.reference["known_failures"])

    def prepare(self, seed: int) -> list[Path]:
        return write_cold_edge_configs(OUT / self.name)

    def execute(self, configs: list[Path], parallel: int) -> list[Path]:
        outs = [OUT / self.name / f"tc{k}-p{parallel}.csv" for k in range(len(configs))]
        for config, out in zip(configs, outs):
            out.unlink(missing_ok=True)
            _cli(["sweep", "--config", str(config), "--out", str(out),
                  "--parallel", str(parallel)])
        return outs

    def check(self, outs: list[Path]) -> Output:
        verdicts = verify.verify_cold_edge(outs, self.reference)
        return Output(len(verdicts), verdicts)

    def keys(self) -> list[str]:
        return [f"tc{r['tc_index']}/{r['th_index']}" for r in self.reference["rows"]]


# ---------------------------------------------------------------------------
# relaxation: propagate + branch_weights from seeded initial states
# ---------------------------------------------------------------------------

#: The README's multistable REVIVAL scenario.
REVIVAL_CONFIG = "\n".join((
    "[system]", "omega_c = 1.0", "omega_h = 3.0", "g = 9/17", "gamma = 0.6",
    "[reservoirs]", "t_h = 6.6", "t_r = 4.0", "t_c = 1.0",
    "[filter]", "h = 3", "r = 2", "c = 1",
)) + "\n"

#: Initial states per generator and run: each vacuum_transport state takes
#: about 15k RK4 steps, each REVIVAL state about 600.  Short runs give a
#: run of the benchmark many samples, which a noisy shared host needs.
N_VACUUM_STATES = 1
N_REVIVAL_STATES = 12
T_FINAL = 1e4


@dataclass(frozen=True)
class Relaxed:
    scenario: str
    index: int
    state: np.ndarray
    converged: bool
    weights: np.ndarray
    steady: tuple  # per closed class: (support, density matrix)


def relax(configs: dict, vacuum: list, revival: list) -> tuple[list, str]:
    """Relax the initial states (``(index, populations)`` pairs) on their
    scenario's generator, built once per scenario, then run ``run_steady``
    on the vacuum scenario."""
    from qfridge import cli, dynamics

    out = []
    for scenario, states in (("vacuum", vacuum), ("revival", revival)):
        config = cli.load_config(str(configs[scenario]))
        gen = dynamics.build_generator(config.params, config.filter,
                                       config.reservoirs, config.background)
        steady = tuple((tuple(sorted(s.support)), s.state.matrix)
                       for s in dynamics.steady_states_numeric(gen))
        for index, pops in states:
            rho0 = gen.eigen.diagonal_state(pops)
            result = dynamics.propagate(rho0, gen, t_final=T_FINAL)
            weights = dynamics.branch_weights(rho0, gen)
            out.append(Relaxed(scenario, index, result.state, result.converged,
                               weights, steady))
    return out, cli.run_steady(cli.load_config(str(configs["vacuum"])))


class Relaxation:
    name = "relaxation"
    reference = REFERENCE / "vacuum_transport_steady.txt"
    #: qfridge has no parallel path for time evolution: every run is serial.
    has_parallel = False

    def __init__(self):
        self._references: dict[str, tuple] = {}

    def prepare(self, seed: int) -> list[Path]:
        OUT.mkdir(parents=True, exist_ok=True)
        revival = OUT / "relaxation_revival.ini"
        revival.write_text(REVIVAL_CONFIG, encoding="utf-8")
        rng = np.random.default_rng(seed)
        self.configs = {"vacuum": CONFIGS / "vacuum_transport.ini", "revival": revival}
        self.vacuum = [(i, rng.dirichlet(np.ones(8))) for i in range(N_VACUUM_STATES)]
        self.revival = [(i, rng.dirichlet(np.ones(8))) for i in range(N_REVIVAL_STATES)]
        return list(self.configs.values())

    def execute(self, paths: list[Path], parallel: int) -> tuple[list, str]:
        return relax(dict(zip(self.configs, paths)), self.vacuum, self.revival)

    def check(self, result: tuple[list, str]) -> Output:
        relaxed, report = result
        verdicts = [self._check(r) for r in relaxed]
        verdicts.append(verify.verify_steady_report(report, self.reference))
        return Output(report.count("] stage = "), verdicts)

    def keys(self) -> list[str]:
        return ([f"vacuum/{i}" for i, _ in self.vacuum]
                + [f"revival/{i}" for i, _ in self.revival] + ["steady"])

    def _reference(self, scenario: str):
        """Tolerance and closed-form class states, keyed by support, of a
        scenario; computed once outside the timed region.

        ``propagate`` stops once ||L vec(rho)|| < eps_ss, which leaves rho
        within about eps_ss / gap of the steady state (gap: the slowest
        nonzero decay rate of L); the tolerance allows ten times that.
        """
        if scenario not in self._references:
            import qfridge as qf
            from qfridge import cli

            config = cli.load_config(str(self.configs[scenario]))
            gen = qf.build_generator(config.params, config.filter,
                                     config.reservoirs, config.background)
            rates = -np.linalg.eigvals(gen.liouvillian).real
            gap = rates[rates > 1e-9 * rates.max()].min()
            tol = 10.0 * qf.dynamics.DEFAULT_EPS_SS / gap
            if scenario == "vacuum":
                pops = qf.steady_state_vacuum_background_analytic(
                    config.params, config.reservoirs).populations
                exact = [(tuple(i for i, p in enumerate(pops) if p > 0), pops)]
            else:
                exact = [(tuple(sorted(support)), pops) for support, pops in
                         qf.steady_state_branches_analytic(
                             config.params, config.reservoirs, config.filter).states]
            self._references[scenario] = (
                tol, {support: gen.eigen.diagonal_state(p) for support, p in exact})
        return self._references[scenario]

    def _check(self, r: Relaxed) -> verify.Verdict:
        key = f"{r.scenario}/{r.index}"
        tol, exact = self._reference(r.scenario)
        if not r.converged:
            return verify.Verdict(key, False, "propagation did not converge")
        got = dict(r.steady)
        if set(got) != set(exact) or len(got) != len(r.steady):
            return verify.Verdict(key, False, "steady-state supports differ from closed form")
        # branch_weights orders the closed classes by their smallest level
        classes = sorted(exact, key=min)
        if len(r.weights) != len(classes):
            return verify.Verdict(key, False, "wrong number of branch weights")
        if abs(r.weights.sum() - 1.0) > 1e-12 or r.weights.min() < -1e-12:
            return verify.Verdict(key, False, f"branch weights {r.weights} not a distribution")
        for support in classes:
            if np.abs(got[support] - exact[support]).max() > 1e-9:
                return verify.Verdict(key, False, "steady state differs from closed form")
        mixture = sum(w * exact[s] for w, s in zip(r.weights, classes))
        dist = float(np.linalg.norm(r.state - mixture))
        if not dist <= tol:
            return verify.Verdict(key, False, f"final state {dist:.2e} from the "
                                              f"weighted mixture (tol {tol:.2e})")
        return verify.Verdict(key, True)


WORKLOADS = {w.name: w for w in (FigureSweep, CensusAll, ColdEdge, Relaxation)}
