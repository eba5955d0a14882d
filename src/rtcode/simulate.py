"""Monte Carlo simulation of solved policies on the true random system.

This is the cross-check for every dynamic-programming gain: it replays
the actual per-step mechanics (fresh symbols, channel draws, memory
updates, table lookups) with no reference to the solver's transition
tensors, and reports empirical averages with standard errors.

Every scenario runs through one loop over a step table built from the
bundle's mechanics in the terms of the solvers' one chain compiler: two
decoder memories, an observation law, action costs, and, for the
open-loop bundles, the projections of the encoder's grid belief over the
y-memory; the encoder always knows the x-memory.  A coding bundle is a
vending bundle whose x-memory has one state, whose law is the channel
row of the sent input, and whose actions cost nothing.

Replication r of a run seeded s draws from the dedicated stream (s, r),
so reports are bit-reproducible and replications are independent.  The
draws come in blocks of DRAW_BLOCK steps, so a run's memory does not grow
with its horizon.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SpecValidationError
from .models import ProblemSpec
from .scenarios import (MemorySpec, ScenarioSolveReport, _checked_decoder,
                        _coding_decoders, _coding_law, _project_pushforward,
                        _successor_policy, _tuple_chain)
from .simplex import project, simplex_grid
from .vending import _decoder_shape, _vending_law

BURN_IN = 1000
# Steps per block of random draws: a run holds one block of each stream,
# however long its horizon.
DRAW_BLOCK = 1 << 16

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


def _check_encoder(encoder, num_states: int, num_maps: int) -> list:
    """The encoder's whole-map indices as Python ints, which do not
    overflow however many maps there are."""
    enc = [int(a) for a in encoder]
    if len(enc) != num_states:
        _fail(f"encoder addresses ({len(enc)},) states, "
              f"expected ({num_states},)")
    if any(not 0 <= a < num_maps for a in enc):
        _fail(f"encoder actions outside 0..{num_maps - 1}")
    return enc


def _mechanics(bundle: PolicyBundle, spec: ProblemSpec) -> tuple:
    """The bundle as a vending chain: (x-memory, y-memory, observation law
    (rows, stride, act) of scenarios._memory_chain, decoder indexed
    [x, y, m, n], action cost per input).  A coding bundle has a one-state
    x-memory, the channel row of x as its law, and zero cost."""
    n_x, n_y = spec.num_channel_inputs, spec.num_channel_outputs
    n_r = spec.num_reconstructions
    if bundle.scenario.startswith("vending"):
        if bundle.memory_x is None or bundle.memory_y is None:
            _fail("vending scenarios need both memory specs")
        if bundle.vending_action_map is None:
            _fail("vending scenarios need an actuator map")
        mem_x, mem_y = bundle.memory_x, bundle.memory_y
        law = _vending_law(spec, bundle.vending_action_map)
        cost = np.asarray(spec.vending.costs.cost)[law[2]]
        dec = _checked_decoder(bundle.decoder,
                               _decoder_shape(spec, mem_x, mem_y), n_r)
    else:
        if bundle.memory is None:
            _fail("this scenario needs a decoder memory spec")
        mem_y = bundle.memory
        mem_x, law = _coding_law(spec)
        cost = np.zeros(n_x)
        dec = _coding_decoders(_checked_decoder(
            bundle.decoder, (n_y, mem_y.num_states), n_r)[None], n_x)[0]
    if mem_x.check(n_x) or mem_y.check(n_y):
        _fail("memory tables do not match the alphabets")
    return mem_x, mem_y, law, dec, cost


def _step_table(bundle: PolicyBundle, spec: ProblemSpec, d: int):
    """Per-step mechanics of the bundle as (table, start state).

    table[v][c][u] describes one step from tuple v when the fresh symbol
    is u.  c is the joint state of the decoder's x-memory m, the
    encoder's grid point g over the y-memory (0 with feedback) and the
    decoder's y-memory n, c = (m * n_g + g) * n_n + n.  The encoder sees
    m, and n with feedback or g without it, as the chain compiler does.
    Each entry is (next tuple, observation CDF row, [(loss, next c) per
    observation], action cost).
    """
    mem_x, mem_y, (rows, stride, act), dec, cost = _mechanics(bundle, spec)
    kernel, shift_arr, x_sent = _tuple_chain(spec, d, 1, [])
    codec = kernel.codec
    n_v, n_u = codec.size, codec.base
    n_x, n_y = spec.num_channel_inputs, spec.num_channel_outputs
    loc, shift = x_sent[:, 0].tolist(), shift_arr.tolist()
    first = codec.components_table()[:, 0]
    loss_first = np.asarray(spec.distortion.loss)[first].tolist()  # (V, C)
    first, act, cost, dec = (first.tolist(), act.tolist(), cost.tolist(),
                             dec.tolist())
    n_m, n_n = mem_x.num_states, mem_y.num_states
    cdf = _cdf_rows(rows)
    mx = np.asarray(mem_x.table).tolist()
    ny = np.asarray(mem_y.table).tolist()
    feedback = "nofeedback" not in bundle.scenario
    n_g, g0 = 1, 0                      # with feedback, a single grid point
    if not feedback:
        if bundle.grid_resolution is None:
            _fail("the open-loop scenario needs a grid resolution")
        grid = simplex_grid(n_n, bundle.grid_resolution)
        n_g, g0 = grid.size, project(grid, np.eye(n_n)[0])
        proj = _project_pushforward(grid, mem_y.table, rows).tolist()

    n_seen = n_n if feedback else n_g
    enc = _check_encoder(bundle.encoder, n_v * n_m * n_seen, n_x**n_v)
    enc = _successor_policy(enc, shift_arr, n_x)
    table = [[None] * (n_m * n_g * n_n) for _ in range(n_v)]
    for v in range(n_v):
        for m in range(n_m):
            for g in range(n_g):
                for n in range(n_n):
                    a = enc[(v * n_m + m) * n_seen + (n if feedback else g)]
                    row = []
                    for u in range(n_u):
                        vt = shift[v][u]
                        x = loc[a][u]
                        r = first[vt] * stride + act[x]
                        base = (mx[m][x] * n_g
                                + (0 if feedback else proj[g][r])) * n_n
                        row.append((vt, cdf[r], [
                            (loss_first[vt][dec[x][y][m][n]], base + ny[n][y])
                            for y in range(n_y)], cost[x]))
                    table[v][(m * n_g + g) * n_n + n] = row
    return table, g0 * n_n


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

    steps = horizon + BURN_IN
    loss_means = []
    cost_means = []
    for rep in range(replications):
        # the stream (seed, rep) gives the steps' source draws, then their
        # observation draws: a second generator starts where the first ends
        draw_u = np.random.default_rng([seed, rep])
        draw_y = np.random.default_rng([seed, rep])
        draw_y.bit_generator.advance(steps)
        v, c = 0, start
        # the burn-in, then the averaged steps, in blocks of draws
        for first, stop in ((0, BURN_IN), (BURN_IN, steps)):
            tot = cost_tot = 0.0
            for lo in range(first, stop, DRAW_BLOCK):
                k = min(DRAW_BLOCK, stop - lo)
                for ru, ry in zip(draw_u.random(k).tolist(),
                                  draw_y.random(k).tolist()):
                    v, cdf, outs, cost = table[v][c][_pick(cdf_u, ru)]
                    loss, c = outs[_pick(cdf, ry)]
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
