"""The five workloads: what each runs, and how its answers are checked.

Every workload is a list of rtcode command lines (one round) that the
runner repeats.  The seed picks the order of the round and, where it
leaves the work per round unchanged, some of its inputs; see README.md.
Checks compare the printed answers with oracle.py.  Each check is also
run on the same answer moved by 1e-3, and must reject it.
"""
from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

INPUTS = Path(__file__).resolve().parent / "inputs"
PERTURB = 1e-3
SIM_BAND_SE = 5.0


@dataclass(frozen=True)
class Op:
    """One command line.  count is how many operations it attempts; work
    is how many units the throughput metric counts."""

    argv: tuple
    count: int = 1
    work: float = 1.0
    known_fault: bool = False


@dataclass
class Result:
    """What one command printed, its exit code and its wall time; tapped
    holds the return values recorded for the checks."""

    op: Op
    rc: int
    out: str
    seconds: float
    warnings: int
    tapped: list


class Verdict:
    """Problems found, per op and for the workload as a whole, and notes:
    recorded observations that do not fail an operation."""

    def __init__(self):
        self.op_problems = {}
        self.problems = []
        self.notes = []

    def op(self, res: Result, problems: list[str]) -> None:
        if problems:
            self.op_problems.setdefault(id(res), []).extend(problems)

    def failed(self, rounds) -> int:
        return sum(r.op.count for rnd in rounds for r in rnd
                   if id(r) in self.op_problems)

    def unexpected(self, rounds) -> list[str]:
        out = list(self.problems)
        for rnd in rounds:
            for r in rnd:
                if id(r) in self.op_problems and not r.op.known_fault:
                    out.extend(f"{' '.join(r.op.argv)}: {p}"
                               for p in self.op_problems[id(r)])
        return out

    def self_test(self, name: str, rejected: bool) -> None:
        if not rejected:
            self.problems.append(f"self-test: {name} accepted an answer "
                                 f"moved by {PERTURB:g}")


def _problem_flags(p: float, delta: float) -> list[str]:
    return ["--source", f"bernoulli:{p:g}", "--channel", f"bsc:{delta:g}",
            "--distortion", "hamming"]


def _repeat_first_round(rounds, verdict: Verdict) -> None:
    """Later rounds repeat the first round's command lines.  Each must
    print the same bytes again, and then shares the first round's
    verdict."""
    for rnd in rounds[1:]:
        for first, res in zip(rounds[0], rnd):
            if res.out != first.out or res.rc != first.rc:
                verdict.op(res, ["output differs from the first round"])
            else:
                verdict.op(res, verdict.op_problems.get(id(first), []))


def _check_tables(p, delta, d, m, report) -> list[str]:
    """The reported distortion against the exact average loss of its
    (encoder, decoder) tables, worst over recurrent classes."""
    trans, loss = oracle.feedback_chain(p, delta, d, m,
                                        report["encoder_policy"],
                                        report["decoder"])
    gap = max(abs(report["distortion"] - g)
              for g in oracle.class_gains(trans, loss))
    if gap > 1e-8:
        return [f"distortion {report['distortion']:.12g} is {gap:.3g} from "
                f"the exact loss of its tables"]
    return []


def _moved(report: dict, key: str, by: float) -> dict:
    out = dict(report)
    out[key] = report[key] + by
    return out


class Workload:
    """A round of command lines, the warm-up command for set-up, the
    functions whose return values the checks need, and the checks."""

    name = ""
    work_name = ""
    work_unit = ""
    warmup: tuple = ()
    taps: tuple = ()

    def plan(self, rng) -> list[Op]:
        raise NotImplementedError

    def round_ops(self, plan: list[Op], rng) -> list[Op]:
        return plan

    def verify(self, rounds) -> Verdict:
        raise NotImplementedError


# ------------------------------------------------------------------ region

REGION_GRID = ("0:0.45:0.15", "0:0.45:0.15")
REGION_CORNER = ("0", "0.025")


def _grid_values(token: str) -> list[float]:
    """The values of a start:stop:step range as rtcode reads it."""
    if ":" not in token:
        return [float(token)]
    a, b, s = (float(t) for t in token.split(":"))
    return [a + k * s for k in range(int(math.floor((b - a) / s + 1e-9)) + 1)]


class Region(Workload):
    """Solve-bound: the region scan at d = 1, m = 2 with one worker."""

    name = "region"
    work_name = "points_per_s"
    work_unit = "points/s"
    warmup = ("region", "--d", "1", "--m", "2", "--workers", "1",
              "--p", "0.3", "--delta", "0.3")
    taps = (("rtcode.cli", "suboptimality_region"),)

    def plan(self, rng):
        ops = []
        for ps, ds in (REGION_GRID, REGION_CORNER):
            n = len(_grid_values(ps)) * len(_grid_values(ds))
            ops.append(Op(("region", "--d", "1", "--m", "2", "--workers", "1",
                           "--p", ps, "--delta", ds), count=n, work=n))
        interior = [(p, x) for p in _grid_values(REGION_GRID[0])[1:]
                    for x in _grid_values(REGION_GRID[1])[1:]]
        for p, x in rng.sample(interior, 2):
            ops.append(Op(("solve", *_problem_flags(p, x), "--d", "1",
                           "--memory", "last:2")))
        rng.shuffle(ops)
        return ops

    def verify(self, rounds):
        v = Verdict()
        ddm_at = {}
        for res in rounds[0]:
            if res.rc != 0:
                v.op(res, [f"exit code {res.rc}"])
                continue
            if res.op.argv[0] == "region":
                probs, values = self._check_region(res, v)
                v.op(res, probs)
                ddm_at.update(values)
        for res in rounds[0]:
            if res.op.argv[0] == "solve" and res.rc == 0:
                p, x = _params(res.op.argv)
                report = json.loads(res.out)
                probs = _check_tables(p, x, 1, 2, report)
                key = (round(p, 9), round(x, 9))
                if key in ddm_at and abs(ddm_at[key] - report["distortion"]) \
                        > 1e-12:
                    probs.append("solve and region disagree on D(1, 2)")
                v.op(res, probs)
                v.self_test("table evaluation",
                            bool(_check_tables(p, x, 1, 2, _moved(
                                report, "distortion", PERTURB))))
        _repeat_first_round(rounds, v)
        return v

    def _check_region(self, res, v):
        if len(res.tapped) != 1:
            return ["suboptimality_region was not observed once"], {}
        rep = res.tapped[0]
        lines = res.out.splitlines()
        rows = [ln.split(",") for ln in lines[1:] if ln and ln[0].isdigit()]
        summary = json.loads("\n".join(ln for ln in lines
                                       if not (ln and ln[0].isdigit())
                                       and not ln.startswith("p,")))
        probs = []
        if summary["errors"] != 0 or rep.errors:
            probs.append(f"{summary['errors']} points failed to solve")
        values = {}
        flagged = 0
        checked = []
        for row in rows:
            p, x, flag = float(row[0]), float(row[1]), float(row[5])
            i = rep.p_grid.index(min(rep.p_grid, key=lambda q: abs(q - p)))
            j = rep.delta_grid.index(min(rep.delta_grid,
                                         key=lambda q: abs(q - x)))
            d0, ddm = float(rep.d0[i, j]), float(rep.ddm[i, j])
            values[(round(p, 9), round(x, 9))] = ddm
            flagged += flag == 1.0
            probs += self._point_problems(p, x, d0, ddm, flag)
            checked.append((p, x, d0, ddm, flag))
        p, x, d0, ddm, flag = checked[0]
        v.self_test("D0 closed form", bool(self._point_problems(
            p, x, d0 + PERTURB, ddm, flag)))
        p, x, d0, ddm, flag = next(c for c in checked if not c[4])
        v.self_test("D(1, 2) bracket", bool(self._point_problems(
            p, x, d0, ddm + PERTURB, flag)))
        if flagged != summary["count"]:
            probs.append("flag rows disagree with the summary count")
        return probs, values

    @staticmethod
    def _point_problems(p, x, d0, ddm, flag):
        out = []
        where = f"at (p, delta) = ({p:g}, {x:g})"
        if abs(d0 - min(p, x)) > 1e-9:
            out.append(f"D0 {d0:.12g} is not min(p, delta) {where}")
        lo = oracle.dinf_binary(p, x)
        if not lo - 1e-9 <= ddm <= d0 + 1e-9:
            out.append(f"D(1, 2) {ddm:.12g} outside [D(inf) {lo:.12g}, "
                       f"D0 {d0:.12g}] {where}")
        if flag != float(ddm < d0 - 1e-6):
            out.append(f"flag {flag:g} disagrees with D0 - D(1, 2) {where}")
        if flag and (p == 0.0 or x == 0.0):
            out.append(f"flagged on a boundary line {where}")
        return out


def _params(argv) -> tuple[float, float]:
    args = list(argv)
    p = float(args[args.index("--source") + 1].split(":")[1])
    x = float(args[args.index("--channel") + 1].split(":")[1])
    return p, x


# ----------------------------------------------------------------- certify

CERTIFY_VIOLATED = ((0.3, 0.3), (0.2, 0.1))
LINE_PS = tuple(round(0.05 * k, 2) for k in range(1, 10))


class Certify(Workload):
    """Certify-bound: the symbol-by-symbol check on a grid of 10."""

    name = "certify"
    work_name = "checks_per_s"
    work_unit = "checks/s"
    warmup = ("check-s2s", *_problem_flags(0.3, 0.1), "--d", "1",
              "--grid", "3")

    def plan(self, rng):
        points = list(CERTIFY_VIOLATED)
        points.append((rng.choice(LINE_PS), 0.0))
        points.append((rng.choice(LINE_PS), 0.5))
        rng.shuffle(points)
        return [Op(("check-s2s", *_problem_flags(p, x), "--d", "1",
                    "--grid", "10")) for p, x in points]

    def verify(self, rounds):
        from rtcode.scenarios import memory_last_m, solve_feedback_finite
        from rtcode.models import binary_problem

        v = Verdict()
        for res in rounds[0]:
            if res.rc != 0:
                v.op(res, [f"exit code {res.rc}"])
                continue
            p, x = _params(res.op.argv)
            report = json.loads(res.out)
            # On the lines delta = 0 and delta = 0.5, D(1, 2) >= min(p,
            # delta) always.  Elsewhere D(1, 2) comes from the program's
            # solver, taken as the exact loss of the tables it returns, so
            # it is an achievable value.
            d12 = min(p, x)
            if 0.0 < x < 0.5:
                sol = solve_feedback_finite(binary_problem(p, x), 1,
                                            memory_last_m(2, 2)).to_dict()
                trans, loss = oracle.feedback_chain(p, x, 1, 2,
                                                    sol["encoder_policy"],
                                                    sol["decoder"])
                d12 = max(oracle.class_gains(trans, loss))
            v.op(res, self._problems(p, x, report, d12))
            v.self_test("identity gap", bool(self._problems(
                p, x, _moved(report, "max_identity_gap", PERTURB), d12)))
        _repeat_first_round(rounds, v)
        return v

    @staticmethod
    def _problems(p, x, report, d12):
        out = []
        where = f"at (p, delta) = ({p:g}, {x:g})"
        if not report["max_identity_gap"] <= 1e-9:
            out.append(f"identity gap {report['max_identity_gap']:.3g} "
                       f"{where}")
        if report["holds_on_grid"] != (report["max_gap"] <= 1e-9):
            out.append(f"verdict disagrees with max_gap {where}")
        if x in (0.0, 0.5) and not report["holds_on_grid"]:
            out.append(f"check violated on a boundary line {where}")
        if d12 < min(p, x) - 1e-6 and report["holds_on_grid"]:
            out.append(f"check holds although D(1, 2) = {d12:.9g} beats "
                       f"min(p, delta) {where}")
        return out


# ---------------------------------------------------------------- simulate

SIM_POINT = _problem_flags(0.3, 0.3)
SIM_BUNDLES = (
    ("feedback d=1 last:2", (*SIM_POINT, "--d", "1", "--memory", "last:2"),
     500_000),
    ("no-feedback d=1 last:1 grid 10",
     (*SIM_POINT, "--d", "1", "--memory", "last:1", "--no-feedback",
      "--grid", "10"), 100_000),
    ("vending toy budget 0.5",
     ("--spec", str(INPUTS / "toy.json"), "--vending",
      str(INPUTS / "toy_vending.json"), "--budget", "0.5", "--d", "0"),
     100_000),
)
SIM_REPS = 10
# The main bundle runs twice a round, as two commands of 5 million steps:
# pooled, that is 1e7 steps a round, and the speed calibration between
# commands stays a few seconds apart.
SIM_MAIN_COPIES = 2


class Simulate(Workload):
    """Simulate-bound: Monte Carlo of solved tables, mostly the main
    feedback bundle."""

    name = "simulate"
    work_name = "steps_per_s"
    work_unit = "steps/s"
    warmup = ("simulate", *SIM_BUNDLES[0][1], "--horizon", "1000",
              "--replications", "2", "--seed", "1")

    def plan(self, rng):
        ops = [Op(("simulate", *flags, "--horizon", str(h),
                   "--replications", str(SIM_REPS)), work=h * SIM_REPS)
               for _, flags, h in SIM_BUNDLES]
        ops += [ops[0]] * (SIM_MAIN_COPIES - 1)
        rng.shuffle(ops)
        return ops

    def round_ops(self, plan, rng):
        return [Op((*op.argv, "--seed", str(rng.randrange(1, 2**31))),
                   op.count, op.work) for op in plan]

    def verify(self, rounds):
        v = Verdict()
        results = [r for rnd in rounds for r in rnd]
        for res in results:
            if res.rc != 0:
                v.op(res, [f"exit code {res.rc}"])
        for label, flags, _ in SIM_BUNDLES:
            group = [r for r in results
                     if r.rc == 0 and r.op.argv[1:1 + len(flags)] == flags]
            if not group:
                v.problems.append(f"no simulation of {label} ran")
                continue
            reports = [json.loads(r.out) for r in group]
            if len({json.dumps(rep["solve"]) for rep in reports}) != 1:
                v.problems.append(f"{label}: the solve differs between "
                                  f"rounds")
            solve = reports[0]["solve"]
            value = solve["distortion"]
            if solve["scenario"].startswith("vending"):
                # the simulator runs the deterministic refit policy, whose
                # loss is the base gain, not the dual value
                value = -solve["diagnostics"]["gain_at_lambda_star"]
            sims = [rep["simulation"] for rep in reports]
            mean = statistics.fmean(s["mean_distortion"] for s in sims)
            se = math.sqrt(sum(s["std_error"] ** 2 for s in sims)) / len(sims)
            probs = self._problems(label, mean, se, value)
            if label == SIM_BUNDLES[0][0]:
                away = PERTURB if value >= mean else -PERTURB
                v.self_test("simulation band",
                            bool(self._problems(label, mean, se,
                                                value + away)))
                p, x = _params(group[0].op.argv)
                probs += _check_tables(p, x, 1, 2, solve)
                v.self_test("table evaluation", bool(_check_tables(
                    p, x, 1, 2, _moved(solve, "distortion", PERTURB))))
            for r in group:
                v.op(r, probs)
        return v

    @staticmethod
    def _problems(label, mean, se, value):
        if not se > 0.0:
            return [f"{label}: standard error {se:g} is not positive"]
        if abs(mean - value) > SIM_BAND_SE * se:
            return [f"{label}: mean {mean:.6g} is {abs(mean - value) / se:.2f}"
                    f" standard errors from the solver value {value:.9g}"]
        return []


# ----------------------------------------------------------------- vending

VENDING_BUDGETS = (0.0, 0.25, 0.5, 0.6, 0.75, 1.0)
TOY_FAULT_BUDGET = 0.75


def _vending_op(spec: str, vend: str, budget: float, known_fault=False):
    data = json.loads((INPUTS / spec).read_text())
    n_x = len(data["channel"])
    n_y = len(data["channel"][0])
    n_rec = len(data["distortion"][0])
    n_act = len(json.loads((INPUTS / vend).read_text())["costs"])
    pairs = n_rec ** (n_x * n_y) * n_act ** n_x
    return Op(("solve", "--spec", str(INPUTS / spec), "--vending",
               str(INPUTS / vend), "--budget", f"{budget:g}", "--d", "0"),
              work=pairs, known_fault=known_fault)


class Vending(Workload):
    """Select-bound: a budget trajectory of the ternary instance, plus the
    gate-7 toy at the budget where the winning pair cannot meet it."""

    name = "vending"
    work_name = "pairs_per_s"
    work_unit = "pairs/s"
    warmup = _vending_op("toy.json", "toy_vending.json", 0.5).argv

    def plan(self, rng):
        ops = [_vending_op("ternary.json", "ternary_vending.json", b)
               for b in VENDING_BUDGETS]
        ops.append(_vending_op("toy.json", "toy_vending.json",
                               TOY_FAULT_BUDGET, known_fault=True))
        rng.shuffle(ops)
        return ops

    def verify(self, rounds):
        v = Verdict()
        trajectory = []
        for res in rounds[0]:
            if res.rc != 0:
                v.op(res, [f"exit code {res.rc}"])
                continue
            argv = list(res.op.argv)
            spec = json.loads(Path(argv[argv.index("--spec") + 1]).read_text())
            vend = json.loads(Path(argv[argv.index("--vending") + 1])
                              .read_text())
            budget = float(argv[argv.index("--budget") + 1])
            report = json.loads(res.out)
            chain = oracle.vending_chain(spec["source"], vend["kernel"],
                                         vend["costs"], spec["distortion"],
                                         report["decoder"],
                                         report["vending_action_map"])
            best = oracle.occupation_lp(*chain, budget)
            v.op(res, self._problems(report, best, budget))
            if best is not None:
                v.self_test("occupation-measure LP", bool(self._problems(
                    _moved(report, "distortion", PERTURB), best, budget)))
            if "ternary" in argv[argv.index("--spec") + 1]:
                trajectory.append((budget, report["distortion"]))
        trajectory.sort()
        v.problems += self._monotone(trajectory)
        if len(trajectory) > 1:
            worse = trajectory[:-1] + [(trajectory[-1][0],
                                        trajectory[-2][1] + PERTURB)]
            v.self_test("budget monotonicity", bool(self._monotone(worse)))
        _repeat_first_round(rounds, v)
        return v

    @staticmethod
    def _problems(report, best, budget):
        if best is None:
            return [f"reports {report['distortion']:.9g} at budget "
                    f"{budget:g}, but no policy of its (decoder, actuator) "
                    f"pair meets the budget (average action cost "
                    f"{report['diagnostics']['avg_constraint_cost']:.9g})"]
        if abs(report["distortion"] - best) > 1e-6:
            return [f"reports {report['distortion']:.9g} at budget "
                    f"{budget:g}; the LP optimum of its pair is {best:.9g}"]
        return []

    @staticmethod
    def _monotone(trajectory):
        return [f"distortion rises from {a:.9g} at budget {ba:g} to {b:.9g} "
                f"at budget {bb:g}"
                for (ba, a), (bb, b) in zip(trajectory, trajectory[1:])
                if b > a + 1e-9]


# ------------------------------------------------------------------ belief

BELIEF_GRID = 14
BELIEF_POINTS = ((0.3, 0.2), (0.2, 0.3), (0.15, 0.1), (0.35, 0.25),
                 (0.25, 0.15), (0.1, 0.05))
BELIEF_PER_ROUND = 3


class Belief(Workload):
    """Compile-bound: feedback with complete memory on a belief grid."""

    name = "belief"
    work_name = "grid_solves_per_s"
    work_unit = "solves/s"
    warmup = ("solve", *_problem_flags(0.3, 0.3), "--d", "1", "--memory",
              "complete", "--grid", "4")
    taps = (("rtcode.scenarios", "build_feedback_complete_discretized"),)

    def plan(self, rng):
        points = rng.sample(BELIEF_POINTS, BELIEF_PER_ROUND)
        return [Op(("solve", *_problem_flags(p, x), "--d", "1", "--memory",
                    "complete", "--grid", str(BELIEF_GRID)))
                for p, x in points]

    def verify(self, rounds):
        v = Verdict()
        for res in rounds[0]:
            if res.rc != 0:
                v.op(res, [f"exit code {res.rc}"])
                continue
            if len(res.tapped) != 1:
                v.op(res, ["the grid chain build was not observed once"])
                continue
            p, x = _params(res.op.argv)
            report = json.loads(res.out)
            mdp = res.tapped[0]
            ns = np.asarray(mdp.next_states)
            near = self._nearest(p, x)
            probs, off_rule = self._chain_problems(p, x, ns, mdp, near)
            if off_rule:
                v.notes.append(f"{' '.join(res.op.argv)}: {off_rule} tied "
                               f"projections pick a point after the "
                               f"lexicographically first one")
            v.op(res, probs + self._gain_problems(report, mdp))
            v.self_test("exact gain", bool(self._gain_problems(
                _moved(report, "distortion", PERTURB), mdp)))
            bad = ns.copy()
            n_g = ns.shape[0] // 4
            bad[0, 0, 0] = (bad[0, 0, 0] + n_g // 2) % n_g
            v.self_test("nearest grid point",
                        bool(self._chain_problems(p, x, bad, mdp, near)[0]))
        _repeat_first_round(rounds, v)
        return v

    @staticmethod
    def _nearest(p, x):
        """near[a, y, g, h]: grid point h is L1-nearest to the Bayes
        posterior from grid point g after encoder map a and output y."""
        points = oracle.compositions(4, BELIEF_GRID)
        kern = oracle.tuple_kernel(p, 1)
        return np.array([[oracle.nearest_mask(
            points, oracle.posteriors(points, kern, x, a, y))
            for y in (0, 1)] for a in range(16)])

    @staticmethod
    def _chain_problems(p, x, next_states, mdp, near):
        """Successors, probabilities and rewards of the grid chain against
        the brute-force projections in near.  Returns the problems and the
        number of tied projections that do not go to the lexicographically
        first nearest point."""
        points = oracle.compositions(4, BELIEF_GRID)
        n_g = points.shape[0]
        n_v, n_a = 4, 16
        if next_states.shape != (n_v * n_g, n_a, 4):
            return [f"grid chain has shape {next_states.shape}"], 0
        bits = np.array([[(a >> (3 - v)) & 1 for v in range(n_v)]
                         for a in range(n_a)])                 # (A, V)
        src = np.array([1.0 - p, p])
        chan = np.array([[1.0 - x, x], [x, 1.0 - x]])
        shift = np.array([[(v % 2) * 2 + u for u in (0, 1)]
                          for v in range(n_v)])                # (V, U)
        # window 0 followed by bit 0 is window 0 again: these slots hold
        # the projection itself
        chosen = next_states[:n_g, :, :2]                      # (G, A, Y)
        pick = chosen.transpose(1, 2, 0)                       # (A, Y, G)
        hit = np.take_along_axis(near, pick[..., None], axis=3)[..., 0]
        off_rule = int((near.argmax(axis=3) != pick).sum())
        out = []
        if not hit.all():
            out.append(f"{int((~hit).sum())} projections are not an "
                       f"L1-nearest grid point to the Bayes posterior")
        # (V, G, A, U, Y)
        want = (shift[:, None, None, :, None] * n_g
                + chosen[None, :, :, None, :])
        if not np.array_equal(next_states, want.reshape(-1, n_a, 4)):
            out.append("successor windows or projections differ between "
                       "states that share a grid point")
        x_sent = bits[:, shift]                                # (A, V, U)
        prob = src[None, None, :, None] * chan[x_sent]         # (A, V, U, Y)
        prob = np.broadcast_to(prob.transpose(1, 0, 2, 3)[:, None],
                               (n_v, n_g, n_a, 2, 2)).reshape(-1, n_a, 4)
        if np.abs(np.asarray(mdp.next_probs) - prob).max() > 1e-12:
            out.append("transition probabilities differ from the source "
                       "and channel laws")
        marg = points.reshape(n_g, 2, 2).sum(axis=2)
        reward = -np.broadcast_to(marg.min(axis=1)[None, :, None],
                                  (n_v, n_g, n_a)).reshape(-1, n_a)
        if np.abs(np.asarray(mdp.rewards) - reward).max() > 1e-12:
            out.append("rewards differ from the Bayes envelope of the first "
                       "marginal")
        return out, off_rule

    @staticmethod
    def _gain_problems(report, mdp):
        trans, reward = oracle.policy_chain(mdp.next_states, mdp.next_probs,
                                            mdp.rewards,
                                            report["encoder_policy"])
        gains = oracle.class_gains(trans, reward)
        gap = max(abs(report["distortion"] + g) for g in gains)
        if gap > 1e-7:
            return [f"distortion {report['distortion']:.12g} is {gap:.3g} "
                    f"from the exact gain of its policy on the grid chain "
                    f"({len(gains)} recurrent classes)"]
        return []


WORKLOADS = {w.name: w for w in (Region(), Certify(), Simulate(), Vending(),
                                 Belief())}

