"""Problem data: sources, channels, loss matrices, vending costs.

All alphabets are dense 0-based integer ranges.  Probability data is
validated against a fixed simplex tolerance and renormalized exactly once,
at construction; downstream code may then rely on rows summing to 1.
"""
from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SpecValidationError

SIMPLEX_TOL = 1e-12
DEFAULT_STATE_LIMIT = 10**6


def state_limit() -> int:
    """Capacity guard for enumerated spaces; RTC_MAX_STATES overrides it."""
    raw = os.environ.get("RTC_MAX_STATES", "").strip()
    return int(raw) if raw else DEFAULT_STATE_LIMIT


def _float_array(values, name, ndim):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise SpecValidationError([f"{name} must be {ndim}-dimensional"])
    return arr


@dataclass(frozen=True)
class ProbVector:
    """Probability distribution over a dense 0-based alphabet."""

    p: np.ndarray

    @classmethod
    def make(cls, values) -> "ProbVector":
        arr = _float_array(values, "probability vector", 1)
        problems = cls(arr).check()
        if problems:
            raise SpecValidationError(problems)
        return cls(arr / arr.sum())

    def check(self) -> list[str]:
        out = []
        p = np.asarray(self.p)
        if p.ndim != 1 or p.size < 1:
            return ["probability vector must be 1-dimensional and nonempty"]
        if not np.all(np.isfinite(p)):
            out.append("non-finite probability entry")
            return out
        if np.any(p < 0):
            out.append("negative probability entry")
        if abs(p.sum() - 1.0) > SIMPLEX_TOL:
            out.append(f"probabilities sum to {p.sum():.17g}, not 1")
        return out

    def __len__(self) -> int:
        return self.p.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.p, dtype=dtype)


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic conditional law; rows index the conditioning symbol."""

    rows: np.ndarray

    @classmethod
    def make(cls, values) -> "StochasticMatrix":
        arr = _float_array(values, "stochastic matrix", 2)
        problems = cls(arr).check()
        if problems:
            raise SpecValidationError(problems)
        return cls(arr / arr.sum(axis=1, keepdims=True))

    def check(self) -> list[str]:
        out = []
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            return ["stochastic matrix must be 2-dimensional and nonempty"]
        if not np.all(np.isfinite(rows)):
            return ["non-finite entry in stochastic matrix"]
        for i, row in enumerate(rows):
            if np.any(row < 0):
                out.append(f"negative entry in row {i}")
            if abs(row.sum() - 1.0) > SIMPLEX_TOL:
                out.append(f"non-stochastic row {i}")
        return out

    @property
    def num_inputs(self) -> int:
        return self.rows.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class DistortionMatrix:
    """Per-symbol loss table, rows = source symbols, columns = reconstructions."""

    loss: np.ndarray

    @classmethod
    def make(cls, values) -> "DistortionMatrix":
        arr = _float_array(values, "distortion matrix", 2)
        problems = cls(arr).check()
        if problems:
            raise SpecValidationError(problems)
        return cls(arr)

    def check(self) -> list[str]:
        loss = np.asarray(self.loss)
        if loss.ndim != 2 or loss.shape[0] < 1 or loss.shape[1] < 1:
            return ["distortion matrix must be 2-dimensional and nonempty"]
        out = []
        if not np.all(np.isfinite(loss)):
            out.append("non-finite loss entry")
        elif np.any(loss < 0):
            bad = np.argwhere(loss < 0)[0]
            out.append(f"negative loss at ({bad[0]}, {bad[1]})")
        return out

    @property
    def max_loss(self) -> float:
        return float(np.max(self.loss))


@dataclass(frozen=True)
class ActionCostVector:
    """Per-action cost of acquiring side information, plus the average budget."""

    cost: np.ndarray
    budget: float

    @classmethod
    def make(cls, cost, budget) -> "ActionCostVector":
        arr = _float_array(cost, "action cost vector", 1)
        obj = cls(arr, float(budget))
        problems = obj.check()
        if problems:
            raise SpecValidationError(problems)
        return obj

    def check(self) -> list[str]:
        out = []
        cost = np.asarray(self.cost)
        if cost.ndim != 1 or cost.size < 1:
            return ["action cost vector must be 1-dimensional and nonempty"]
        if not np.all(np.isfinite(cost)):
            out.append("non-finite action cost")
            return out
        if np.any(cost < 0):
            out.append("negative action cost")
        if not np.any(cost == 0):
            out.append("no zero-cost action")
        cmax = float(cost.max())
        if not (0.0 <= self.budget <= cmax):
            out.append(f"budget {self.budget:.17g} outside [0, {cmax:.17g}]")
        return out


@dataclass(frozen=True)
class VendingSpec:
    """Side-information kernel and costs for the vending-machine setting.

    Kernel rows are indexed by the flattened pair u * num_actions + a, so
    row(u, a) is the law of the side observation when the source symbol is
    u and the vending action is a.
    """

    kernel: StochasticMatrix
    costs: ActionCostVector

    @property
    def num_actions(self) -> int:
        return self.costs.cost.size

    def row(self, u: int, action: int) -> np.ndarray:
        return self.kernel.rows[u * self.num_actions + action]


@dataclass(frozen=True)
class ProblemSpec:
    """One coding problem: source, channel, loss, optional vending data."""

    source: ProbVector
    channel: StochasticMatrix
    distortion: DistortionMatrix
    vending: Optional[VendingSpec] = None

    @property
    def num_source_symbols(self) -> int:
        return len(self.source)

    @property
    def num_channel_inputs(self) -> int:
        return self.channel.num_inputs

    @property
    def num_channel_outputs(self) -> int:
        return self.channel.num_outputs

    @property
    def num_reconstructions(self) -> int:
        return self.distortion.loss.shape[1]

    def check(self) -> list[str]:
        out = []
        out.extend(self.source.check())
        out.extend(self.channel.check())
        out.extend(self.distortion.check())
        n_u = np.asarray(self.source.p).size
        if np.asarray(self.distortion.loss).ndim == 2:
            rows = self.distortion.loss.shape[0]
            if rows != n_u:
                out.append(
                    f"dimension mismatch: distortion has {rows} rows, "
                    f"source has {n_u} symbols"
                )
        if self.vending is not None:
            out.extend(self.vending.kernel.check())
            out.extend(self.vending.costs.check())
            n_a = self.vending.num_actions
            krows = np.asarray(self.vending.kernel.rows)
            if krows.ndim == 2:
                if krows.shape[0] != n_u * n_a:
                    out.append(
                        f"dimension mismatch: vending kernel has {krows.shape[0]} "
                        f"rows, expected {n_u} * {n_a}"
                    )
                if krows.shape[1] != self.channel.num_outputs:
                    out.append(
                        f"dimension mismatch: vending kernel has {krows.shape[1]} "
                        f"columns, channel has {self.channel.num_outputs} outputs"
                    )
        return out


def validate(spec: ProblemSpec) -> list[str]:
    """Every invariant violated by spec, as human-readable strings."""
    return spec.check()


def bernoulli_source(p: float) -> ProbVector:
    """Binary source with P(1) = p."""
    if not 0.0 <= p <= 1.0:
        raise SpecValidationError([f"bernoulli parameter {p:.17g} outside [0, 1]"])
    return ProbVector.make([1.0 - p, p])


def bsc(delta: float) -> StochasticMatrix:
    """Binary symmetric channel with crossover probability delta."""
    if not 0.0 <= delta <= 1.0:
        raise SpecValidationError([f"crossover {delta:.17g} outside [0, 1]"])
    return StochasticMatrix.make([[1.0 - delta, delta], [delta, 1.0 - delta]])


def hamming(n: int = 2) -> DistortionMatrix:
    """0-1 loss on an n-symbol alphabet."""
    if n < 1:
        raise SpecValidationError([f"alphabet size {n} must be at least 1"])
    return DistortionMatrix.make(1.0 - np.eye(n))


def binary_problem(p: float, delta: float) -> ProblemSpec:
    """Bernoulli(p) source over a BSC(delta) with Hamming loss."""
    return ProblemSpec(bernoulli_source(p), bsc(delta), hamming(2))


def spec_from_dict(data: dict) -> ProblemSpec:
    """Build a validated ProblemSpec from parsed JSON-style data."""
    problems = []
    for key in ("source", "channel", "distortion"):
        if key not in data:
            problems.append(f"missing field: {key}")
    if problems:
        raise SpecValidationError(problems)

    def arr(values, name, ndim):
        try:
            return _float_array(values, name, ndim)
        except SpecValidationError as err:
            problems.extend(err.problems)
            return None

    source = arr(data["source"], "source", 1)
    channel = arr(data["channel"], "channel", 2)
    distortion = arr(data["distortion"], "distortion", 2)
    vending_raw = data.get("vending")
    kernel = costs = None
    budget = 0.0
    if vending_raw is not None:
        if "kernel" not in vending_raw or "costs" not in vending_raw:
            problems.append("vending block needs both kernel and costs")
        else:
            kernel = arr(vending_raw["kernel"], "vending kernel", 2)
            costs = arr(vending_raw["costs"], "vending costs", 1)
            budget = float(vending_raw.get("budget", 0.0))
    if problems:
        raise SpecValidationError(problems)

    vending = None
    if kernel is not None:
        vending = VendingSpec(StochasticMatrix(kernel), ActionCostVector(costs, budget))
    raw = ProblemSpec(
        ProbVector(source), StochasticMatrix(channel), DistortionMatrix(distortion),
        vending,
    )
    problems = raw.check()
    if problems:
        raise SpecValidationError(problems)

    vending_norm = None
    if vending is not None:
        vending_norm = VendingSpec(
            StochasticMatrix.make(kernel), ActionCostVector.make(costs, budget)
        )
    return ProblemSpec(
        ProbVector.make(source),
        StochasticMatrix.make(channel),
        DistortionMatrix.make(distortion),
        vending_norm,
    )


def load_spec(path) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def with_budget(spec: ProblemSpec, budget: float) -> ProblemSpec:
    """Copy of spec with the vending budget replaced and revalidated."""
    if spec.vending is None:
        raise SpecValidationError(["cannot set a budget without vending data"])
    costs = ActionCostVector.make(spec.vending.costs.cost, budget)
    vending = VendingSpec(spec.vending.kernel, costs)
    return dataclasses.replace(spec, vending=vending)
