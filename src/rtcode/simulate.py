"""Monte Carlo simulation of solved policies on the true random system.

This is the cross-check for every dynamic-programming gain: it replays
the actual per-step mechanics (fresh symbols, channel draws, memory
updates, table lookups) with no reference to the solver's transition
tensors, and reports empirical averages with standard errors.

Every scenario runs through one loop over one step table, numpy arrays
built by `_step_table` from the bundle's mechanics in the terms of the
solvers' one chain compiler: two decoder memories, an observation law,
action costs, and, for the open-loop bundles, the projections of the
encoder's grid belief over the y-memory; the encoder always knows the
x-memory.  A coding bundle is a vending bundle whose x-memory has one
state, whose law is the channel row of the sent input, and whose
actions cost nothing.  Over states s = v * n_c + c (tuple v, memory
state c) and fresh symbols u, the arrays give the next state and loss
per observation y, the action cost, and the law's row that y is drawn
from.

The loop walks that table gathered once per run into one flat list
(`_flat_table`).  A step's two uniform draws become one draw code: the
fresh symbol u, and the interval q of the sorted union B of the used
CDF rows' values that the observation draw falls in, code
u * (len(B) + 1) + q.  Between two neighbouring breakpoints every row
gives the same output, so the code fixes the step for every row at
once.  With K codes per state, entry s * K + code holds the step's next
state (times K), loss and action cost.  A block's codes take two
vectorised searches (`_draw_codes`); a step is then one list lookup.
Losses and costs are added one step at a time, in step order, so a
report has the bits of a scalar walk of the step table that draws each
symbol and output as the first whose CDF value exceeds its draw, or
else the last.

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


def _step_table(bundle: PolicyBundle, spec: ProblemSpec, d: int):
    """Per-step mechanics of the bundle as arrays (nxt, loss, cost, obs,
    rows, start) over simulator states s and fresh symbols u.

    The bundle runs as a vending chain: a coding bundle has a one-state
    x-memory, the channel row of the sent input as its law, and zero
    cost.  State s = v * n_c + c pairs the tuple v with the joint state
    c = (m * n_g + g) * n_n + n of the decoder's x-memory m, the
    encoder's grid point g over the y-memory (0 with feedback) and the
    decoder's y-memory n.  The encoder sees m, and n with feedback or g
    without it, as the chain compiler does.  A step from s with fresh
    symbol u draws the observation y from the law's row rows[obs[s, u]],
    moves to nxt[s, u, y] with loss loss[s, u, y], and costs cost[s, u].
    start is the state of the all-zeros tuple and memories.
    """
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
    rows, stride, act = law
    kernel, shift, x_sent = _tuple_chain(spec, d, 1, [])
    n_v, n_u = shift.shape
    n_m, n_n = mem_x.num_states, mem_y.num_states
    feedback = "nofeedback" not in bundle.scenario
    n_g, g0 = 1, 0                      # with feedback, a single grid point
    if not feedback:
        if bundle.grid_resolution is None:
            _fail("the open-loop scenario needs a grid resolution")
        grid = simplex_grid(n_n, bundle.grid_resolution)
        n_g, g0 = grid.size, project(grid, np.eye(n_n)[0])
        proj = _project_pushforward(grid, mem_y.table, rows)

    n_seen = n_n if feedback else n_g
    enc = _check_encoder(bundle.encoder, n_v * n_m * n_seen, n_x**n_v)
    enc = np.array(_successor_policy(enc, shift, n_x))
    # the (S, 1) state axes against the (U,) symbol and (Y,) output axes
    v, m, g, n = (i.reshape(-1, 1) for i in np.indices((n_v, n_m, n_g, n_n)))
    u, y = np.arange(n_u), np.arange(n_y)
    x = x_sent[enc[(v * n_m + m) * n_seen + (n if feedback else g)], 0, u]
    vt = shift[v, u]
    first = kernel.codec.components_table()[vt, 0]   # the symbol decoded
    obs = first * stride + act[x]
    g_next = 0 if feedback else proj[g, obs]
    c_next = ((np.asarray(mem_x.table)[m, x] * n_g + g_next)[..., None] * n_n
              + np.asarray(mem_y.table)[n[..., None], y])
    loss = np.asarray(spec.distortion.loss)[
        first[..., None], dec[x[..., None], y, m[..., None], n[..., None]]]
    return (vt[..., None] * (n_m * n_g * n_n) + c_next, loss, cost[x], obs,
            rows, g0 * n_n)


def _flat_table(bundle: PolicyBundle, spec: ProblemSpec, d: int):
    """The step table gathered into one flat list walked by draw codes:
    (entries, breakpoints B, start index).

    B is the sorted set of the CDF values of the rows that obs uses.
    entries[s * K + code] = (next state * K, loss, action cost) for
    code u * (len(B) + 1) + q, K = n_u * (len(B) + 1).  Interval q of
    the draws in [0, 1) starts at 0 (q = 0) or at B[q - 1].  Its entry
    takes the row's output at that left end, min(searchsorted(cdf_row,
    left, "right"), n_y - 1), the rule `_draw_codes` applies to the
    source symbol; it is the row's output anywhere in the interval.
    """
    nxt, loss, cost, obs, rows, start = _step_table(bundle, spec, d)
    cdf = np.cumsum(rows, axis=1)
    breaks = np.unique(cdf[np.unique(obs)])
    lefts = np.concatenate([[0.0], breaks])     # the draws lie in [0, 1)
    outs = np.minimum([np.searchsorted(row, lefts, "right") for row in cdf],
                      rows.shape[1] - 1)[obs]  # (S, U, len(B) + 1)
    n_k = outs.shape[1] * outs.shape[2]
    return list(zip(
        (np.take_along_axis(nxt, outs, 2) * n_k).ravel().tolist(),
        np.take_along_axis(loss, outs, 2).ravel().tolist(),
        np.broadcast_to(cost[..., None], outs.shape).ravel().tolist(),
    )), breaks, start * n_k


def _draw_codes(cdf_u, breaks, ru, ry) -> list:
    """The draw codes of `_flat_table` for arrays of source draws ru and
    observation draws ry.  The source symbol u is the count of CDF
    entries at most ru, clamped to the last symbol, and the interval q
    is the count of breakpoints at most ry."""
    u = np.minimum(np.searchsorted(cdf_u, ru, "right"), len(cdf_u) - 1)
    return (u * (len(breaks) + 1)
            + np.searchsorted(breaks, ry, "right")).tolist()


def simulate(bundle: PolicyBundle, spec: ProblemSpec, d: int, horizon: int,
             replications: int, seed: int) -> SimReport:
    """Run the bundle on the true system and report empirical averages.

    Each replication starts from the all-zeros configuration, discards a
    fixed burn-in, then averages the per-symbol loss (and action cost for
    vending scenarios) over `horizon` further steps.  Each block of draws
    becomes draw codes (`_draw_codes`), and each step is one lookup in
    the flat table of `_flat_table`; the losses and costs are added one
    step at a time, in step order.
    """
    if horizon < 1:
        _fail(f"horizon {horizon} must be at least 1")
    if replications < 1:
        _fail(f"replications {replications} must be at least 1")
    if bundle.scenario not in _SCENARIO_TAGS.values():
        _fail(f"unknown scenario tag {bundle.scenario!r}")
    entries, breaks, start = _flat_table(bundle, spec, d)
    cdf_u = np.cumsum(np.asarray(spec.source.p))

    steps = horizon + BURN_IN
    loss_means = []
    cost_means = []
    for rep in range(replications):
        # the stream (seed, rep) gives the steps' source draws, then their
        # observation draws: a second generator starts where the first ends
        draw_u = np.random.default_rng([seed, rep])
        draw_y = np.random.default_rng([seed, rep])
        draw_y.bit_generator.advance(steps)
        j = start
        # the burn-in, then the averaged steps, in blocks of draws
        for first, stop in ((0, BURN_IN), (BURN_IN, steps)):
            tot = cost_tot = 0.0
            for lo in range(first, stop, DRAW_BLOCK):
                k = min(DRAW_BLOCK, stop - lo)
                for code in _draw_codes(cdf_u, breaks, draw_u.random(k),
                                        draw_y.random(k)):
                    j, loss, cost = entries[j + code]
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
