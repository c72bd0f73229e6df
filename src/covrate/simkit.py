"""Seeded sampling, Monte Carlo validation, and reproducible experiments.

Everything random flows through :class:`RngStream` (counter-based Philox keyed
by ``(seed, stream)``), so any experiment is reproducible from its recorded
seed alone, and parallel roles can draw from provably independent streams.
The experiment runners recompute every analytic quantity from the core
modules at run time and emit CSV rows plus a JSON summary.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.linalg import toeplitz

from .errors import GenerationStalled, InvalidParam
from .fusion import (
    Allocation,
    FusionNetwork,
    SensorNode,
    coding_noise_cov,
    highrate_allocate,
    nld_filter,
    output_snr,
    random_valid_allocations,
    scalar_allocate,
)
from .model import JointGaussianModel, analyze
from .rdf import mmse_decoder, rate_distortion, test_channel
from .spd import psd_leq, sym_eig_desc, sym_part

@dataclass(frozen=True)
class RngStream:
    """A named, platform-stable random stream: Philox keyed by (seed, stream)."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidParam("seed must fit in 64 bits")
        if not 0 <= int(self.stream) < 2**64:
            raise InvalidParam("stream index must fit in 64 bits")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, stream: int) -> "RngStream":
        return RngStream(seed=self.seed, stream=stream)


def _as_generator(stream: RngStream | np.random.Generator | int) -> np.random.Generator:
    if isinstance(stream, RngStream):
        return stream.generator()
    if isinstance(stream, (int, np.integer)):
        return RngStream(seed=int(stream)).generator()
    return stream


# --------------------------------------------------------------------------
# Covariance and model generators
# --------------------------------------------------------------------------


def exp_cov(n: int, nu: float, rho: float) -> np.ndarray:
    """Exponentially correlated covariance: entry ``(i, j)`` is ``nu * rho^|i-j|``."""
    if n < 1:
        raise InvalidParam("dimension must be >= 1")
    if not nu > 0:
        raise InvalidParam("variance scale nu must be positive")
    if not -1.0 < rho < 1.0:
        raise InvalidParam("correlation rho must be in (-1, 1)")
    return toeplitz(nu * rho ** np.arange(n))


def random_spd(n: int, rng: np.random.Generator, jitter: float = 0.1) -> np.ndarray:
    """Random well-conditioned SPD matrix ``G G^T / n + jitter * I``."""
    G = rng.standard_normal((n, n))
    return sym_part(G @ G.T / n + jitter * np.eye(n))


def random_model(
    n_x: int,
    n_y: int,
    n_z: int,
    rng: np.random.Generator,
) -> JointGaussianModel:
    """Random joint Gaussian model: blocks sliced from one random SPD joint."""
    m = n_x + n_y + n_z
    J = random_spd(m, rng)
    sx = slice(0, n_x)
    sy = slice(n_x, n_x + n_y)
    sz = slice(n_x + n_y, m)
    return JointGaussianModel(
        Sigma_x=J[sx, sx],
        Sigma_y=J[sy, sy],
        Sigma_z=J[sz, sz],
        Sigma_xy=J[sx, sy],
        Sigma_xz=J[sx, sz],
        Sigma_yz=J[sy, sz],
    )


def sample_gaussian(
    Sigma: np.ndarray, N: int, stream: RngStream | np.random.Generator | int
) -> np.ndarray:
    """``N`` zero-mean rows with population covariance ``Sigma`` (PSD allowed)."""
    if N < 1:
        raise InvalidParam("sample count must be >= 1")
    rng = _as_generator(stream)
    Sigma = np.asarray(Sigma, dtype=float)
    try:
        L = np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError:
        U, lam = sym_eig_desc(Sigma)
        L = U.T * np.sqrt(np.clip(lam, 0.0, None))[None, :]
    return rng.standard_normal((N, Sigma.shape[0])) @ L.T


# --------------------------------------------------------------------------
# Monte Carlo validators
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class McRdfReport:
    """Empirical decoder-error covariance vs the analytic one."""

    rate: float
    emp_error_cov: np.ndarray
    error_cov: np.ndarray
    frob_rel_dev: float
    dominated: bool
    N: int


#: Dominance slack of the empirical error covariance (fraction of ``|D|_2``).
MC_DOMINANCE_SLACK = 0.05


def mc_validate_rdf(
    model: JointGaussianModel,
    D: np.ndarray,
    N: int,
    stream: RngStream | np.random.Generator | int,
) -> McRdfReport:
    """Simulate the test channel end to end and compare error covariances.

    Samples ``(x, y, z)`` jointly, adds the channel's Gaussian coding noise,
    decodes with the MMSE decoder, and reports the empirical error covariance,
    its relative Frobenius deviation from the analytic value, and whether it
    is dominated by ``D`` within :data:`MC_DOMINANCE_SLACK`.
    """
    rng = _as_generator(stream)
    stats = analyze(model)
    chan = test_channel(stats, D)
    C, G = mmse_decoder(stats, chan)
    rr = rate_distortion(stats, D)

    samples = sample_gaussian(model.joint(), N, rng)
    n_x, n_y = model.n_x, model.n_y
    x = samples[:, :n_x]
    y = samples[:, n_x : n_x + n_y]
    z = samples[:, n_x + n_y :]

    g = np.diag(chan.noise_cov) if chan.n_active else np.empty(0)
    u = y @ chan.encoder_map.T + rng.standard_normal((N, chan.n_active)) * np.sqrt(g)
    err = x - (u @ C.T + z @ G.T)
    emp = sym_part(err.T @ err / N)

    dev = float(np.linalg.norm(emp - rr.error_cov) / np.linalg.norm(rr.error_cov))
    return McRdfReport(
        rate=rr.rate,
        emp_error_cov=emp,
        error_cov=rr.error_cov,
        frob_rel_dev=dev,
        dominated=psd_leq(emp, np.asarray(D, dtype=float), tol=MC_DOMINANCE_SLACK),
        N=N,
    )


@dataclass(frozen=True, eq=False)
class McSnrReport:
    """Empirical fused SNR vs the analytic formula."""

    emp_snr_db: float
    analytic_snr_db: float
    abs_db_dev: float
    N: int


def mc_validate_snr(
    network: FusionNetwork,
    alloc: Allocation,
    N: int,
    stream: RngStream | np.random.Generator | int,
) -> McSnrReport:
    """Simulate per-node coding plus fusion and compare SNRs.

    Each node's decoded observation behaves as ``y_i`` plus independent coding
    noise with covariance ``(D_i^{-1} - Sigma_y_i^{-1})^{-1}``; the fusion
    center applies the no-linear-distortion filter built from the equivalent
    noise blocks, so the residual is pure filtered noise.
    """
    rng = _as_generator(stream)
    sigma_v = [
        sym_part(node.Sigma_n + coding_noise_cov(Syi, Di))
        for node, Syi, Di in zip(network.nodes, network.sigma_y, alloc.D)
    ]
    H = nld_filter(network, sigma_v)

    x_d = sample_gaussian(network.Sigma_xd, N, rng)
    decoded = []
    for node, Syi, Di in zip(network.nodes, network.sigma_y, alloc.D):
        noise = sample_gaussian(node.Sigma_n, N, rng)
        coding = sample_gaussian(coding_noise_cov(Syi, Di), N, rng)
        decoded.append(x_d @ node.W + noise + coding)
    err = np.hstack(decoded) @ H.T - x_d

    emp_linear = float(np.mean(np.sum(x_d**2, axis=1)) / np.mean(np.sum(err**2, axis=1)))
    emp_db = 10.0 * float(np.log10(emp_linear))
    analytic_db = output_snr(network, alloc).db
    return McSnrReport(
        emp_snr_db=emp_db,
        analytic_snr_db=analytic_db,
        abs_db_dev=abs(emp_db - analytic_db),
        N=N,
    )


# --------------------------------------------------------------------------
# Network builders for the standard experiment setups
# --------------------------------------------------------------------------


def two_node_network(
    n: int,
    R: float,
    rhos: tuple[float, float],
    nus: tuple[float, float],
    alphas: tuple[float, float] = (0.5, 0.5),
    signal_nu: float = 1.0,
    signal_rho: float = 0.9,
) -> FusionNetwork:
    """Two sensors observing an exponentially correlated source directly."""
    Sigma_xd = exp_cov(n, signal_nu, signal_rho)
    nodes = tuple(
        SensorNode(W=np.eye(n), Sigma_n=exp_cov(n, nu, rho), alpha=a)
        for rho, nu, a in zip(rhos, nus, alphas)
    )
    return FusionNetwork(Sigma_xd=Sigma_xd, nodes=nodes, R=R)


def four_node_network(
    n: int,
    R: float,
    rhos: tuple[float, float],
    nus: tuple[float, float],
) -> FusionNetwork:
    """Four equal-weight sensors: two of each of the two-node noise types."""
    Sigma_xd = exp_cov(n, 1.0, 0.9)
    nodes = tuple(
        SensorNode(W=np.eye(n), Sigma_n=exp_cov(n, nus[k], rhos[k]), alpha=0.25)
        for k in (0, 0, 1, 1)
    )
    return FusionNetwork(Sigma_xd=Sigma_xd, nodes=nodes, R=R)


def uniform_allocation(network: FusionNetwork) -> Allocation:
    """The budget-exact uniform shrinkage ``D_i = exp(-2R/n) Sigma_y_i``.

    Always a valid, strictly interior allocation that spends the budget
    exactly (each node codes at ``R`` nats, and the weights sum to one), so it
    serves as a deterministic reference point on any network.
    """
    t = float(np.exp(-2.0 * network.R / network.n))
    return Allocation(D=tuple(t * Syi for Syi in network.sigma_y))


def scalar_example_network(R: float) -> FusionNetwork:
    """The two-node scalar worked example (unit source, noises 0.2 and 0.1)."""
    return FusionNetwork(
        Sigma_xd=np.array([[1.0]]),
        nodes=(
            SensorNode(W=np.array([[1.0]]), Sigma_n=np.array([[0.2]]), alpha=0.5),
            SensorNode(W=np.array([[1.0]]), Sigma_n=np.array([[0.1]]), alpha=0.5),
        ),
        R=R,
    )


#: The four (alpha, rho, nu) parameterizations of the two-node population study.
TWO_NODE_VARIANTS: dict[str, dict[str, tuple[float, float]]] = {
    "a": {"alphas": (0.5, 0.5), "rhos": (0.9, 0.3), "nus": (0.01, 0.02)},
    "b": {"alphas": (0.5, 0.5), "rhos": (0.0, 0.0), "nus": (0.01, 0.02)},
    "c": {"alphas": (0.7, 0.3), "rhos": (0.9, 0.3), "nus": (0.01, 0.02)},
    "d": {"alphas": (0.3, 0.7), "rhos": (0.9, 0.3), "nus": (0.01, 0.02)},
}


# --------------------------------------------------------------------------
# Experiments
# --------------------------------------------------------------------------

Runner = Callable[[dict[str, Any], RngStream], tuple[list[str], list[list[Any]], dict[str, Any]]]


def _population_rows(
    network: FusionNetwork,
    beta_w: float,
    eta_w: float,
    L: int,
    stream: RngStream,
    variant: str,
) -> tuple[list[list[Any]], dict[str, Any]]:
    """High-rate optimum plus an L-trial population, as CSV rows + summary.

    Populations are drawn at the optimum's *achieved* sum-rate so the
    comparison is rate-matched (the high-rate construction undershoots the
    nominal budget by its approximation error).  When the construction is
    invalid (distortion inverses indefinite — the vector analogue of the
    scalar mid-rate regime where the stationary point leaves the feasible
    set), no perturbed population exists: near-copies of an infeasible base
    are rejected with probability one.  A fully random population (eta = 1)
    only borrows the base's eigenbasis, so it is still drawn, at the nominal
    budget, and the summary records the degraded status.
    """
    result = highrate_allocate(network)
    star_db = output_snr(network, result.allocation, validate=False).db
    rows = [[variant, -1, repr(float(star_db)), 1]]
    summary: dict[str, Any] = {
        "optimal_snr_db": star_db,
        "achieved_rate_nats": result.achieved_rate,
        "highrate_valid": result.valid,
        "r_min_nats": result.r_min,
    }
    if result.valid:
        pop_net = replace(network, R=result.achieved_rate)
        summary["status"] = "ok"
        summary["population_rate_nats"] = result.achieved_rate
    elif beta_w == 0.0:
        pop_net = network
        summary["status"] = "highrate-invalid; random population at nominal budget"
        summary["population_rate_nats"] = network.R
    else:
        summary["status"] = "highrate-invalid; perturbed population unattainable"
        return rows, summary
    try:
        if not result.valid:
            # Cheap probe: around a degraded base, give up after 10^4
            # consecutive rejections instead of burning the full stall budget.
            random_valid_allocations(
                pop_net, result.allocation, beta_w, eta_w, 1,
                stream.substream(10**6).generator(),
                max_consecutive_failures=10**4,
            )
        pop = random_valid_allocations(
            pop_net, result.allocation, beta_w, eta_w, L, stream.generator()
        )
    except GenerationStalled as exc:
        summary["status"] = f"population generation stalled: {exc}"
        return rows, summary
    snrs = np.array([output_snr(network, alloc).db for alloc in pop])
    rows.extend([variant, t, repr(float(v)), 0] for t, v in enumerate(snrs))
    summary.update(
        population_max_db=float(snrs.max()),
        population_min_db=float(snrs.min()),
        population_mean_db=float(snrs.mean()),
        gap_db=star_db - float(snrs.max()),
    )
    return rows, summary


def _run_two_node_populations(params: dict[str, Any], base: RngStream):
    rows: list[list[Any]] = []
    summary: dict[str, Any] = {"variants": {}}
    for k, key in enumerate(sorted(TWO_NODE_VARIANTS)):
        net = two_node_network(
            n=int(params["n"]), R=float(params["R"]), **TWO_NODE_VARIANTS[key]
        )
        vrows, vsummary = _population_rows(
            net,
            float(params["beta_w"]),
            float(params["eta_w"]),
            int(params["L"]),
            base.substream(k),
            key,
        )
        rows.extend(vrows)
        summary["variants"][key] = vsummary
    return ["variant", "trial", "snr_db", "is_optimal"], rows, summary


def _run_scaling_4(params: dict[str, Any], base: RngStream):
    variant = TWO_NODE_VARIANTS["a"]
    net2 = two_node_network(n=int(params["n"]), R=float(params["R"]), **variant)
    net4 = four_node_network(
        n=int(params["n"]),
        R=float(params["R"]),
        rhos=variant["rhos"],
        nus=variant["nus"],
    )
    rows, s4 = _population_rows(
        net4, 0.0, 1.0, int(params["L"]), base.substream(0), "four"
    )
    two_star_db = output_snr(
        net2, highrate_allocate(net2).allocation, validate=False
    ).db
    summary = {
        "four_sensor": s4,
        "two_sensor_optimal_snr_db": two_star_db,
        "snr_gain_db": s4["optimal_snr_db"] - two_star_db,
    }
    return ["variant", "trial", "snr_db", "is_optimal"], rows, summary


def _run_highrate_accuracy(params: dict[str, Any], base: RngStream):
    grid = np.arange(
        float(params["R_start"]),
        float(params["R_stop"]) + 0.5 * float(params["R_step"]),
        float(params["R_step"]),
    )
    rows = []
    errors = []
    n_invalid = 0
    for t, R in enumerate(grid):
        net = two_node_network(
            n=int(params["n"]), R=float(R), rhos=(0.8, 0.8), nus=(0.1, 0.2)
        )
        res = highrate_allocate(net)
        n_invalid += not res.valid
        err = abs(res.achieved_rate - float(R))
        errors.append(err)
        rows.append([t, repr(float(R)), repr(res.achieved_rate), repr(err), 0])
    finite = [e for e in errors if np.isfinite(e)]
    summary = {
        "R_grid": [float(R) for R in grid],
        "rate_error_nats": errors,
        "n_invalid": n_invalid,
        "error_at_start": errors[0],
        "max_finite_error": max(finite) if finite else None,
        "nonincreasing_within_1e-3": bool(
            all(b <= a + 1e-3 for a, b in zip(finite, finite[1:]))
        ),
    }
    return ["trial", "R_nats", "achieved_nats", "rate_error_nats", "is_optimal"], rows, summary


def _run_scalar_sweep(params: dict[str, Any], base: RngStream):
    rows = []
    summary = {"rates": {}}
    for R in params["rates"]:
        res = scalar_allocate(
            scalar_example_network(float(R)), sweep_points=int(params["sweep_points"])
        )
        label = repr(float(R))
        for t, (d1, d2, v) in enumerate(
            zip(res.sweep_d1, res.sweep_d2, res.sweep_snr_db)
        ):
            rows.append([label, t, repr(float(d1)), repr(float(d2)), repr(float(v)), 0])
        if res.stationary_feasible:
            rows.append(
                [label, -1, repr(res.D1), repr(res.D2), repr(float(res.stationary_snr_db)), 1]
            )
        summary["rates"][label] = {
            "regime": res.regime,
            "r_max": res.r_max,
            "r_min": res.r_min,
            "stationary_feasible": res.stationary_feasible,
            "D1": res.D1,
            "D2": res.D2,
            "stationary_snr_db": res.stationary_snr_db,
            "best_d1": res.best_d1,
            "best_d2": res.best_d2,
            "best_snr_db": res.best_snr_db,
        }
    return ["variant", "trial", "d1", "d2", "snr_db", "is_optimal"], rows, summary


def _run_mc_validate(params: dict[str, Any], base: RngStream):
    rows = []
    devs = []
    dominated_all = True
    for t in range(int(params["models"])):
        rng = base.substream(t).generator()
        n_x = int(rng.integers(2, 5))
        n_y = n_x + int(rng.integers(0, 3))
        n_z = int(rng.integers(0, 3))
        model = random_model(n_x, n_y, n_z, rng)
        stats = analyze(model)
        D = sym_part(
            stats.Sigma_x_given_yz + 0.5 * random_spd(n_x, rng, jitter=0.3)
        )
        rep = mc_validate_rdf(model, D, int(params["N"]), rng)
        devs.append(rep.frob_rel_dev)
        dominated_all = dominated_all and rep.dominated
        rows.append([t, "rdf_frob_rel_dev", repr(rep.frob_rel_dev), 0])
    net = two_node_network(
        n=int(params["n"]), R=float(params["R"]), **TWO_NODE_VARIANTS["a"]
    )
    alloc = uniform_allocation(net)
    snr_rep = mc_validate_snr(net, alloc, int(params["N"]), base.substream(1000))
    rows.append([0, "snr_abs_db_dev", repr(float(snr_rep.abs_db_dev)), 1])
    summary = {
        "max_frob_rel_dev": max(devs),
        "all_dominated": dominated_all,
        "snr_allocation": "uniform exact-rate shrinkage of Sigma_y",
        "snr_emp_db": snr_rep.emp_snr_db,
        "snr_analytic_db": snr_rep.analytic_snr_db,
        "snr_abs_db_dev": snr_rep.abs_db_dev,
    }
    return ["trial", "kind", "value", "is_optimal"], rows, summary


#: The named experiments: each name's default parameters and its runner,
#: which maps ``(params, RngStream(seed))`` to ``(csv header, rows, summary)``.
EXPERIMENTS: dict[str, tuple[dict[str, Any], Runner]] = {
    "local-max": (
        {"n": 32, "R": 80.0, "L": 1000, "beta_w": 0.999, "eta_w": 0.001},
        _run_two_node_populations,
    ),
    "global-max": (
        {"n": 32, "R": 80.0, "L": 1000, "beta_w": 0.0, "eta_w": 1.0},
        _run_two_node_populations,
    ),
    "scaling-4": ({"n": 32, "R": 80.0, "L": 1000}, _run_scaling_4),
    "highrate-accuracy": (
        {"n": 32, "R_start": 25.0, "R_stop": 160.0, "R_step": 5.0},
        _run_highrate_accuracy,
    ),
    "scalar-sweep": ({"rates": (0.5, 1.0, 2.0), "sweep_points": 1000}, _run_scalar_sweep),
    "mc-validate": ({"models": 10, "N": 100_000, "n": 32, "R": 80.0}, _run_mc_validate),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment plus its seed and (optional) parameter overrides."""

    name: str
    seed: int
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise InvalidParam(
                f"unknown experiment {self.name!r}; expected one of {tuple(EXPERIMENTS)}"
            )

    def merged_params(self) -> dict[str, Any]:
        out = dict(EXPERIMENTS[self.name][0])
        for key, value in self.params.items():
            if key not in out:
                raise InvalidParam(f"unknown parameter {key!r} for {self.name!r}")
            out[key] = value
        return out


def run_experiment(spec: ExperimentSpec, out_dir: str | Path) -> dict[str, Any]:
    """Run one named experiment; write ``<name>.csv`` and ``<name>.json``.

    Returns the JSON summary (which includes the output paths).  Output is
    deterministic: identical spec and seed produce byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = spec.merged_params()
    runner = EXPERIMENTS[spec.name][1]
    header, rows, summary = runner(params, RngStream(seed=spec.seed))

    csv_path = out_dir / f"{spec.name}.csv"
    json_path = out_dir / f"{spec.name}.json"
    meta = {
        "experiment": spec.name,
        "seed": spec.seed,
        "rng": "philox",
        "params": params,
    }
    with csv_path.open("w", newline="") as fh:
        fh.write(f"# {json.dumps(meta, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    summary_doc = {**meta, "summary": _json_safe(summary), "csv": csv_path.name}
    with json_path.open("w") as fh:
        json.dump(summary_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary_doc


def _json_safe(value: Any) -> Any:
    """Recursively map non-finite floats to None (strict-JSON friendliness)."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value) if np.isfinite(value) else None
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    return value
