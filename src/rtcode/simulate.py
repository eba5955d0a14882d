"""Monte Carlo simulation of solved policies on the true random system.

This is the cross-check for every dynamic-programming gain: it replays
the actual per-step mechanics (fresh symbols, channel draws, memory
updates, table lookups) with no reference to the solver's transition
tensors, and reports empirical averages with standard errors.

Every scenario runs through one loop over a step table built from the
bundle's mechanics: memory tables, the channel or vending kernel, and
belief projections made one grid point at a time.

Replication r of a run seeded s draws from the dedicated stream (s, r),
so reports are bit-reproducible and replications are independent.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SpecValidationError
from .lookahead import build_markov_kernel
from .models import ProblemSpec
from .scenarios import (MemorySpec, ScenarioSolveReport, _checked_decoder,
                        encoder_action_tables)
from .simplex import SimplexGrid, project, simplex_grid

BURN_IN = 1000

_SCENARIO_TAGS = {
    "feedback-finite": "feedback-finite",
    "nofeedback-finite": "nofeedback",
    "vending-feedback": "vending-feedback",
    "vending-nofeedback": "vending-nofeedback",
}


@dataclass(frozen=True)
class PolicyBundle:
    """Everything needed to run a solved policy forward in time."""

    scenario: str
    encoder: tuple
    decoder: tuple
    memory: Optional[MemorySpec] = None
    memory_x: Optional[MemorySpec] = None
    memory_y: Optional[MemorySpec] = None
    vending_action_map: Optional[tuple] = None
    grid_resolution: Optional[int] = None

    @classmethod
    def from_report(cls, report: ScenarioSolveReport) -> "PolicyBundle":
        tag = _SCENARIO_TAGS.get(report.scenario)
        if tag is None:
            raise SpecValidationError(
                [f"no simulator for scenario {report.scenario!r}"]
            )
        params = report.params

        def mem(key):
            block = params.get(key)
            if block is None:
                return None
            return MemorySpec(int(block["num_states"]),
                              np.asarray(block["table"], dtype=int))

        grid_resolution = params.get("grid_resolution")
        return cls(
            scenario=tag,
            encoder=tuple(int(a) for a in report.encoder_policy),
            decoder=report.decoder,
            memory=mem("memory"),
            memory_x=mem("memory_x"),
            memory_y=mem("memory_y"),
            vending_action_map=report.vending_action_map,
            grid_resolution=(None if grid_resolution is None
                             else int(grid_resolution)),
        )


@dataclass(frozen=True)
class SimReport:
    """Empirical averages over replications of a fixed-horizon run."""

    horizon: int
    replications: int
    mean_distortion: float
    std_error: float
    mean_action_cost: Optional[float]
    seed: int

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "replications": self.replications,
            "mean_distortion": self.mean_distortion,
            "std_error": self.std_error,
            "mean_action_cost": self.mean_action_cost,
            "seed": self.seed,
        }


def _cdf_rows(matrix) -> list:
    return [np.cumsum(np.asarray(row, dtype=float)).tolist()
            for row in np.asarray(matrix, dtype=float)]


def _pick(cdf_row, r: float) -> int:
    for j, c in enumerate(cdf_row):
        if r < c:
            return j
    return len(cdf_row) - 1


def _fail(msg: str):
    raise SpecValidationError([msg])


def _check_encoder(encoder, num_states: int, num_actions: int) -> np.ndarray:
    enc = np.asarray(encoder, dtype=int)
    if enc.shape != (num_states,):
        _fail(f"encoder addresses {enc.shape} states, expected ({num_states},)")
    if enc.min(initial=0) < 0 or enc.max(initial=0) >= num_actions:
        _fail(f"encoder actions outside 0..{num_actions - 1}")
    return enc


def _memory_projection(memory: MemorySpec, grid: SimplexGrid,
                       weights) -> np.ndarray:
    """Grid-to-grid projection of the belief pushforward, one column per
    conditioning symbol k; weights[k, b] weights observation branch b."""
    table = np.asarray(memory.table)
    weights = np.asarray(weights)
    out = np.empty((grid.size, weights.shape[0]), dtype=int)
    for sym, row in enumerate(weights):
        pushed = np.zeros((grid.size, memory.num_states))
        for z in range(memory.num_states):
            for br in range(table.shape[1]):
                pushed[:, table[z, br]] += grid.points[:, z] * row[br]
        for g in range(grid.size):
            out[g, sym] = project(grid, pushed[g])
    return out


def _initial_grid_index(grid: SimplexGrid) -> int:
    point = np.zeros(grid.dim)
    point[0] = 1.0
    return project(grid, point)


def _step_table(bundle: PolicyBundle, spec: ProblemSpec, d: int):
    """Per-step mechanics of the bundle as (table, start state).

    table[v][c][u] describes one step from tuple v when the fresh symbol
    is u.  c is the joint state of the encoder's belief grid point g (0
    with feedback, where the encoder sees the memory) and the decoder
    memory mem, c = g * n_mem + mem.  Each entry is (next tuple, output
    CDF row, [(loss, next c) per output], action cost).
    """
    kernel = build_markov_kernel(spec.source, d)
    codec = kernel.codec
    n_v, n_u = codec.size, codec.base
    n_x, n_y = spec.num_channel_inputs, spec.num_channel_outputs
    atab = encoder_action_tables(n_v, n_x).tolist()
    shift = codec.shift_table().tolist()
    first = codec.components_table()[:, 0]
    loss_first = np.asarray(spec.distortion.loss)[first].tolist()  # (V, C)
    first = first.tolist()
    feedback = "nofeedback" not in bundle.scenario
    if not feedback and bundle.grid_resolution is None:
        _fail("the open-loop scenario needs a grid resolution")
    n_g, g0 = 1, 0                      # with feedback, a single grid point

    if bundle.scenario.startswith("vending"):
        if spec.vending is None:
            _fail("vending scenarios need vending data in the problem")
        if bundle.memory_x is None or bundle.memory_y is None:
            _fail("vending scenarios need both memory specs")
        if bundle.vending_action_map is None:
            _fail("vending scenarios need an actuator map")
        mem_x, mem_y = bundle.memory_x, bundle.memory_y
        n_m, n_n = mem_x.num_states, mem_y.num_states
        n_av = spec.vending.num_actions
        n_ys = spec.vending.kernel.num_outputs
        if mem_x.check(n_x) or mem_y.check(n_ys):
            _fail("vending memory tables do not match the alphabets")
        av = np.asarray(bundle.vending_action_map, dtype=int)
        if av.shape != (n_x,) or av.min() < 0 or av.max() >= n_av:
            _fail(f"actuator map must send {n_x} inputs to 0..{n_av - 1}")
        dec = _checked_decoder(bundle.decoder, (n_x, n_ys, n_m, n_n),
                               spec.num_reconstructions).tolist()
        vk = np.asarray(spec.vending.kernel.rows).reshape(n_u, n_av, n_ys)
        cdf_vend = [_cdf_rows(vk[u]) for u in range(n_u)]
        costs = np.asarray(spec.vending.costs.cost).tolist()
        mx = np.asarray(mem_x.table).tolist()
        ny = np.asarray(mem_y.table).tolist()
        av = av.tolist()
        n_mem = n_m * n_n

        def outputs(mem, vt, x):
            m, n = divmod(mem, n_n)
            act = av[x]
            return cdf_vend[first[vt]][act], costs[act], [
                (loss_first[vt][dec[x][y][m][n]], mx[m][x] * n_n + ny[n][y])
                for y in range(n_ys)]

        if not feedback:
            grid_m = simplex_grid(n_m, bundle.grid_resolution)
            grid_n = simplex_grid(n_n, bundle.grid_resolution)
            n_g = grid_m.size * grid_n.size
            g0 = (_initial_grid_index(grid_m) * grid_n.size
                  + _initial_grid_index(grid_n))
            proj_m = _memory_projection(mem_x, grid_m, np.eye(n_x)).tolist()
            # belief over the y-memory advances with weights P(y | u, a_v)
            proj_n = _memory_projection(mem_y, grid_n,
                                        vk.reshape(n_u * n_av, n_ys))
            proj_n = proj_n.reshape(grid_n.size, n_u, n_av).tolist()

            def grid_step(g, vt, x):
                gm, gn = divmod(g, grid_n.size)
                return (proj_m[gm][x] * grid_n.size
                        + proj_n[gn][first[vt]][av[x]])
    else:
        if bundle.memory is None:
            _fail("this scenario needs a decoder memory spec")
        memory = bundle.memory
        n_mem = memory.num_states
        if memory.check(n_y):
            _fail("memory table does not match the channel outputs")
        dec = _checked_decoder(bundle.decoder, (n_y, n_mem),
                               spec.num_reconstructions).tolist()
        mem_t = np.asarray(memory.table).tolist()
        cdf_w = _cdf_rows(spec.channel.rows)

        def outputs(z, vt, x):
            return cdf_w[x], 0.0, [(loss_first[vt][dec[y][z]], mem_t[z][y])
                                   for y in range(n_y)]

        if not feedback:
            grid = simplex_grid(n_mem, bundle.grid_resolution)
            n_g, g0 = grid.size, _initial_grid_index(grid)
            proj = _memory_projection(memory, grid,
                                      spec.channel.rows).tolist()

            def grid_step(g, vt, x):
                return proj[g][x]

    # with feedback the encoder sees the memory, without it the grid point
    n_seen = n_mem if feedback else n_g
    enc = _check_encoder(bundle.encoder, n_v * n_seen, len(atab))
    enc = enc.reshape(n_v, n_seen).tolist()
    table = [[None] * (n_g * n_mem) for _ in range(n_v)]
    for v in range(n_v):
        for g in range(n_g):
            for mem in range(n_mem):
                a = enc[v][mem if feedback else g]
                row = []
                for u in range(n_u):
                    vt = shift[v][u]
                    x = atab[a][vt]
                    base = 0 if feedback else grid_step(g, vt, x) * n_mem
                    cdf, cost, outs = outputs(mem, vt, x)
                    row.append((vt, cdf, [(loss, base + nxt)
                                          for loss, nxt in outs], cost))
                table[v][g * n_mem + mem] = row
    return table, g0 * n_mem


def simulate(bundle: PolicyBundle, spec: ProblemSpec, d: int, horizon: int,
             replications: int, seed: int) -> SimReport:
    """Run the bundle on the true system and report empirical averages.

    Each replication starts from the all-zeros configuration, discards a
    fixed burn-in, then averages the per-symbol loss (and action cost for
    vending scenarios) over `horizon` further steps.
    """
    if horizon < 1:
        _fail(f"horizon {horizon} must be at least 1")
    if replications < 1:
        _fail(f"replications {replications} must be at least 1")
    if bundle.scenario not in _SCENARIO_TAGS.values():
        _fail(f"unknown scenario tag {bundle.scenario!r}")
    table, start = _step_table(bundle, spec, d)
    cdf_u = np.cumsum(np.asarray(spec.source.p)).tolist()

    loss_means = []
    cost_means = []
    for rep in range(replications):
        rng = np.random.default_rng([seed, rep])
        ru = rng.random(horizon + BURN_IN).tolist()
        ry = rng.random(horizon + BURN_IN).tolist()
        v, c = 0, start
        tot = 0.0
        cost_tot = 0.0
        for t in range(horizon + BURN_IN):
            v, cdf, outs, cost = table[v][c][_pick(cdf_u, ru[t])]
            loss, c = outs[_pick(cdf, ry[t])]
            if t >= BURN_IN:
                tot += loss
                cost_tot += cost
        loss_means.append(tot / horizon)
        cost_means.append(cost_tot / horizon)

    mean = float(np.mean(loss_means))
    if replications > 1:
        se = float(np.std(loss_means, ddof=1) / np.sqrt(replications))
    else:
        se = 0.0
    vending = bundle.scenario.startswith("vending")
    cost = float(np.mean(cost_means)) if vending else None
    return SimReport(
        horizon=int(horizon),
        replications=int(replications),
        mean_distortion=mean,
        std_error=se,
        mean_action_cost=cost,
        seed=int(seed),
    )
