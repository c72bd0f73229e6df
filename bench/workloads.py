"""The benchmark's three closed-loop workloads.

Each workload turns a seed into a fixed list of operations.  ``build`` makes
the inputs (timed as set-up), ``run`` performs one operation (timed),
``check`` verifies its output (not timed) and ``fingerprint`` serializes the
output for the run's digest.  Every call into covrate goes through a module
attribute (``fusion.output_snr``), so the tracer's wrappers see it.

``check`` returns ``(status, reason)``.  The status is ``"ok"``; ``"unmet"``
when the program reported through its own flags that it could not meet the
request (these ops count as failed, as do ops that raise a covrate error); or
``"wrong"`` when an output the program presented as valid fails its check
(the run is then not correct).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from covrate import fusion, jsonio, model, rdf, simkit, spd, special
from covrate.errors import CovrateError

#: Errors that make an op count as failed; such ops are never dropped.
OP_ERRORS = (CovrateError,)

#: Relative tolerance of the criterion-3 cross-checks and the budget check.
XCHECK_RTOL = 1e-9
#: Allowed high-rate budget miss, as a share of the budget (criterion 8).
BUDGET_SHARE = 0.02
#: KKT multiplier and budget residual limit (criterion 10).
KKT_TOL = 1e-9

OK = ("ok", "")


def _floats(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _arrays(*arrays: np.ndarray) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)


# --------------------------------------------------------------------------
# population
# --------------------------------------------------------------------------


class Population:
    """Budget-exact random allocations on the n = 32, R = 80 two-node networks.

    Five streams take turns: random populations (beta 0, eta 1) on variants
    a, b, c and d, and a perturbed population (beta 0.999, eta 0.001) on
    variant b.  Each stream draws around the base allocation and at the
    budget the ``global-max``/``local-max`` experiments use, from its own
    Philox stream carried across calls.  Variant c rejects almost every
    draw, so ``psd_leq`` sets the throughput and the tail, while
    ``output_snr`` sets the median.
    """

    name = "population"
    STREAMS = (("a", 0.0, 1.0), ("b", 0.0, 1.0), ("b", 0.999, 0.001), ("c", 0.0, 1.0), ("d", 0.0, 1.0))
    ROUND = len(STREAMS)
    RATE = 50.0
    PASSES = 1

    def op_class(self, i: int) -> str:
        key, beta_w, _ = self.STREAMS[i % self.ROUND]
        return f"{key}-perturbed" if beta_w else key

    def build(self, seed: int, n_ops: int):
        bases = {}
        for key, variant in simkit.TWO_NODE_VARIANTS.items():
            net = simkit.two_node_network(n=32, R=80.0, **variant)
            res = fusion.highrate_allocate(net)
            # As in the experiments: populations are drawn at the optimum's
            # achieved rate when the construction is valid, else at nominal.
            pop_net = replace(net, R=res.achieved_rate) if res.valid else net
            bases[key] = (net, pop_net, res.allocation)
        streams = []
        for k, (key, beta_w, eta_w) in enumerate(self.STREAMS):
            net, pop_net, base = bases[key]
            rng = simkit.RngStream(seed=seed, stream=k).generator()
            streams.append((net, pop_net, base, beta_w, eta_w, rng))
        return streams

    def run(self, streams, i: int):
        net, pop_net, base, beta_w, eta_w, rng = streams[i % len(streams)]
        alloc = fusion.random_valid_allocations(pop_net, base, beta_w, eta_w, 1, rng)[0]
        return alloc, fusion.output_snr(net, alloc)

    def check(self, streams, i: int, result) -> tuple[str, str]:
        _, pop_net, *_ = streams[i % len(streams)]
        alloc, snr = result
        if not fusion.allocation_valid(pop_net, alloc):
            return "wrong", "allocation is not valid"
        rate = fusion.weighted_sum_rate(pop_net, alloc)
        if abs(rate - pop_net.R) > XCHECK_RTOL * pop_net.R:
            return "wrong", f"sum-rate {rate!r} misses budget {pop_net.R!r}"
        if not math.isfinite(snr.db):
            return "wrong", "SNR is not finite"
        return OK

    def fingerprint(self, result) -> bytes:
        alloc, snr = result
        return _floats(snr.linear) + _arrays(*alloc.D)


# --------------------------------------------------------------------------
# rdf-solve
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RdfRequest:
    model_doc: dict
    D_doc: dict
    D: np.ndarray
    D_scalar: float
    R_I: float


class RdfSolve:
    """One request along the CLI's call path, run in-process.

    Documents are parsed from memory, the model analysed, and the rate,
    test channel, channel rate, MMSE decoder, MSE curve point and relay
    point computed.  Three in four requests are small (n_x 2..6), where
    validation overhead dominates; one in four has n_x = 32, where the
    eigensolves dominate.  Ops cycle through a pool of ``POOL`` requests.
    """

    name = "rdf-solve"
    POOL = 64
    ROUND = 4
    RATE = 280.0
    PASSES = 3

    def op_class(self, i: int) -> str:
        return "n32" if i % 4 == 3 else "small"

    def build(self, seed: int, n_ops: int):
        rng = simkit.RngStream(seed=seed, stream=0).generator()
        pool = []
        for j in range(min(self.POOL, n_ops)):
            n_x = 32 if self.op_class(j) == "n32" else int(rng.integers(2, 7))
            n_y = n_x + int(rng.integers(0, 3))
            n_z = int(rng.integers(0, 3))
            m = simkit.random_model(n_x, n_y, n_z, rng)
            stats = model.analyze(m)
            D = spd.sym_part(stats.Sigma_x_given_yz + 0.5 * simkit.random_spd(n_x, rng, jitter=0.3))
            lam_sum = float(np.trace(stats.Sigma_x_given_z - stats.Sigma_x_given_yz))
            d_lo = float(np.trace(stats.Sigma_x_given_yz)) / n_x
            pool.append(
                RdfRequest(
                    model_doc=jsonio.model_to_json(m),
                    D_doc=jsonio.matrix_to_json(D),
                    D=D,
                    D_scalar=d_lo + float(rng.uniform(0.05, 0.9)) * lam_sum / n_x,
                    R_I=float(rng.uniform(0.1, 0.9)) * special.relay_supremum(stats),
                )
            )
        return pool

    def run(self, pool, i: int):
        req = pool[i % len(pool)]
        stats = model.analyze(jsonio.model_from_json(req.model_doc))
        D = jsonio.matrix_from_json(req.D_doc)
        rr = rdf.rate_distortion(stats, D)
        chan = rdf.test_channel(stats, D)
        chan_rate = rdf.channel_rate(stats, chan)
        C, G = rdf.mmse_decoder(stats, chan)
        mse = special.mse_rdf(stats, req.D_scalar)
        relay = special.relay_solve(stats, req.R_I)
        return stats, rr, chan, chan_rate, C, G, mse, relay

    def check(self, pool, i: int, result) -> tuple[str, str]:
        req = pool[i % len(pool)]
        stats, rr, chan, chan_rate, _, _, mse, relay = result
        m = stats.model

        def close(a: float, b: float) -> bool:
            return abs(a - b) <= XCHECK_RTOL * max(1.0, abs(b))

        # Criterion 3 (b): the channel carries exactly the rate, both by the
        # analytic formula and through the extended joint covariance.
        if not close(chan_rate, rr.rate):
            return "wrong", f"channel rate {chan_rate!r} != rate {rr.rate!r}"
        mi = 0.0
        if chan.n_active:
            J = _extended_joint(m, chan)
            nxyz = m.n_x + m.n_y + m.n_z
            iu = list(range(nxyz, nxyz + chan.n_active))
            iy = list(range(m.n_x, m.n_x + m.n_y))
            iz = list(range(m.n_x + m.n_y, nxyz))
            mi = rdf.cond_mutual_info_gaussian(
                model.conditional_cov(J, iu, iz), model.conditional_cov(J, iu, iy + iz)
            )
        if not close(mi, rr.rate):
            return "wrong", f"extended-joint MI {mi!r} != rate {rr.rate!r}"
        # Criterion 3 (c) and (d): the specializations' distortion targets
        # reproduce their rates through the matrix rate function.
        mse_back = rdf.rate_distortion(stats, mse.d_star).rate
        if not close(mse_back, mse.rate):
            return "wrong", f"MSE round trip {mse_back!r} != {mse.rate!r}"
        relay_back = rdf.rate_distortion(stats, relay.d_star).rate
        if not close(relay_back, relay.rate):
            return "wrong", f"relay round trip {relay_back!r} != {relay.rate!r}"
        if not spd.psd_leq(rr.error_cov, req.D):
            return "wrong", "error covariance is not dominated by D"
        return OK

    def fingerprint(self, result) -> bytes:
        _, rr, chan, chan_rate, C, G, mse, relay = result
        return _floats(rr.rate, chan_rate, mse.rate, relay.rate) + _arrays(
            rr.error_cov, chan.noise_cov, C, G, mse.d_star, relay.d_star
        )


def _extended_joint(m, channel) -> np.ndarray:
    """Joint covariance of ``(x, y, z, u)`` for ``u = E y + nu``."""
    E = channel.encoder_map
    Jxyz = m.joint()
    lift = np.zeros((E.shape[0], Jxyz.shape[0]))
    lift[:, m.n_x : m.n_x + m.n_y] = E
    Su = lift @ Jxyz @ lift.T + channel.noise_cov
    return np.block([[Jxyz, Jxyz @ lift.T], [lift @ Jxyz, Su]])


# --------------------------------------------------------------------------
# allocate
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AllocRequest:
    Sigma_xd: np.ndarray
    W: np.ndarray
    Sigma_n: tuple[np.ndarray, np.ndarray]
    alphas: tuple[float, float]
    R: float
    scalar: bool


class Allocate:
    """High-rate allocation of a fresh n = 32 two-node network.

    Each op builds the network from seed-drawn (rho, nu, alpha) with a budget
    between its high-rate threshold and 160 nats, allocates, and scores the
    allocation (validated SNR, KKT residuals at the achieved budget).  One op
    in 29 instead runs the scalar allocator's 1000-point sweep on a
    seed-drawn scalar two-node network.  Near the threshold the high-rate
    construction is often invalid or misses the budget by more than 2%;
    those ops count as failed.  Ops cycle through a pool of ``POOL`` requests.
    """

    name = "allocate"
    POOL = 435
    ROUND = 29
    RATE = 120.0
    PASSES = 2
    R_MAX = 160.0

    def op_class(self, i: int) -> str:
        return "scalar" if i % 29 == 28 else "vector"

    def build(self, seed: int, n_ops: int):
        rng = simkit.RngStream(seed=seed, stream=0).generator()
        size = min(self.POOL, n_ops)
        # Budgets sit at stratified fractions of [threshold, R_MAX]: each
        # vector request gets its own stratum, in seeded order, so a pool
        # covers the range evenly and the share of failing ops is steady.
        n_vector = sum(self.op_class(j) == "vector" for j in range(size))
        strata = iter(rng.permutation(n_vector))
        pool = []
        for j in range(size):
            if self.op_class(j) == "scalar":
                Sn = (float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.05, 0.5)))
                pool.append(
                    AllocRequest(
                        Sigma_xd=np.array([[1.0]]),
                        W=np.array([[1.0]]),
                        Sigma_n=(np.array([[Sn[0]]]), np.array([[Sn[1]]])),
                        alphas=(0.5, 0.5),
                        R=float(rng.uniform(0.25, 3.0)),
                        scalar=True,
                    )
                )
                continue
            while True:
                rhos = (float(rng.uniform(0.0, 0.95)), float(rng.uniform(0.0, 0.95)))
                nus = (float(rng.uniform(0.005, 0.3)), float(rng.uniform(0.005, 0.3)))
                a1 = float(rng.uniform(0.2, 0.8))
                net = simkit.two_node_network(32, self.R_MAX, rhos, nus, (a1, 1.0 - a1))
                lo = max(fusion.highrate_rmin(net), 0.0)
                if lo < self.R_MAX:
                    break
            pool.append(
                AllocRequest(
                    Sigma_xd=net.Sigma_xd,
                    W=np.eye(32),
                    Sigma_n=(net.nodes[0].Sigma_n, net.nodes[1].Sigma_n),
                    alphas=(a1, 1.0 - a1),
                    R=lo + (self.R_MAX - lo) * (next(strata) + float(rng.uniform())) / n_vector,
                    scalar=False,
                )
            )
        return pool

    def run(self, pool, i: int):
        req = pool[i % len(pool)]
        nodes = tuple(
            fusion.SensorNode(W=req.W, Sigma_n=Sn, alpha=a) for Sn, a in zip(req.Sigma_n, req.alphas)
        )
        net = fusion.FusionNetwork(Sigma_xd=req.Sigma_xd, nodes=nodes, R=req.R)
        if req.scalar:
            return fusion.scalar_allocate(net)
        res = fusion.highrate_allocate(net)
        if not res.valid:
            return res, None, None
        snr = fusion.output_snr(net, res.allocation)
        state = fusion.highrate_state(net, res)
        log_beta = net.log_beta + 2.0 * (net.R - res.achieved_rate)
        return res, snr, fusion.kkt_residuals(net, state, log_beta=log_beta)

    def check(self, pool, i: int, result) -> tuple[str, str]:
        req = pool[i % len(pool)]
        if req.scalar:
            return self._check_scalar(result)
        res, snr, kkt = result
        if not res.valid:
            return "unmet", "high-rate construction invalid"
        if abs(res.achieved_rate - req.R) > BUDGET_SHARE * req.R:
            return "unmet", "high-rate achieved rate misses the budget by more than 2%"
        if kkt.multiplier > KKT_TOL or kkt.budget > KKT_TOL:
            return "wrong", f"KKT residuals {kkt.multiplier:.3e}, {kkt.budget:.3e}"
        if not math.isfinite(snr.db):
            return "wrong", "SNR is not finite"
        return OK

    @staticmethod
    def _check_scalar(res) -> tuple[str, str]:
        # Criterion 5: where the stationary point is feasible, no sweep point
        # beats it in the maximizer regime, and none falls below it in the
        # minimizer regime.
        if res.stationary_feasible and res.regime == fusion.REGIME_MAXIMIZER:
            if not res.best_snr_db <= res.stationary_snr_db + XCHECK_RTOL:
                return "wrong", "sweep beats the stationary maximizer"
        if res.stationary_feasible and res.regime == fusion.REGIME_MINIMIZER:
            if not float(np.min(res.sweep_snr_db)) >= res.stationary_snr_db - XCHECK_RTOL:
                return "wrong", "sweep falls below the stationary minimizer"
        if not np.all(np.isfinite(res.sweep_snr_db)):
            return "wrong", "sweep SNR is not finite"
        return OK

    def fingerprint(self, result) -> bytes:
        if isinstance(result, fusion.ScalarAllocationResult):
            return result.regime.encode() + _floats(result.D1, result.D2) + _arrays(result.sweep_snr_db)
        res, snr, kkt = result
        out = _floats(res.achieved_rate, res.lambda_mult) + _arrays(*res.allocation.D)
        if snr is not None:
            out += _floats(snr.linear, kkt.stationarity, kkt.multiplier, kkt.budget)
        return out


WORKLOADS = {w.name: w for w in (Population(), RdfSolve(), Allocate())}
