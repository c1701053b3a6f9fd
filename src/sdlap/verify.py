"""Randomized verification suites.

Each suite checks one identity on a seeded stream of random graphs and
returns a SuiteReport; the CLI `verify` verb and the acceptance tests are
both thin wrappers over these functions. Every suite is deterministic for
a fixed seed, its signature holds its default sizes, and it raises
ValueError at sizes that would test nothing. The spectral suites also
fail on a distance Laplacian that is not positive semidefinite.

Every suite cuts its stream of instances into runs (_runs) and checks a
run in stacks, one per order: the spectral suites build one distance
table per order of a run by one signed BFS (distance._tables) and sign it
through distance._signed, once per kind; the others group graphs by order
(_by_order). The suites form the Laplacians, incidence products and
entrywise identities on whole stacks, with one eigensolve per stack, and
then check each instance in turn, its determinants included, so that
failures are recorded in instance order wherever a run ends.
balance-equivalence gives Laplacians with equal entries one determinant
and one spectrum.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import signal
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .balance import SizeBoundError, det_exact, forest_det, is_balanced_switching
from .core import MIN_VERIFY_N, SUITE_NAMES, SignedGraph, generate, switch
from .distance import DistanceTable, _laplacian, _signed, _tables, transmission
from .matrices import _incidence_stack, _laplacian_stack
from .spectra import _eigenvalues, cycle_spectrum, odd_cycle_formula_spectrum

# Largest deviation of an eigensolver spectrum from cycle_spectrum.
_SPECTRUM_TOL = 1e-8
# An eigenvalue below -_PSD_TOL * max(1, largest eigenvalue) is negative.
_PSD_TOL = 1e-8
_ORIENTATIONS_PER_GRAPH = 3
_WEIGHT_RANGE = (1, 5)
_MAX_FAILURES_KEPT = 10
# A run of instances checked in stacks (_runs) ends once the n x n matrices
# it stacks, Laplacians or H @ H.T products, hold this many entries (512 KiB
# as float64): at the default sizes one run holds every instance.
_CHUNK_ENTRIES = 1 << 16


@dataclass
class SuiteReport:
    suite: str
    passed: bool
    instances: int
    details: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def record_failure(self, message: str) -> None:
        self.passed = False
        if len(self.failures) < _MAX_FAILURES_KEPT:
            self.failures.append(message)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v}" for k, v in self.details.items())
        line = f"{status} {self.suite}: {self.instances} instances"
        if extras:
            line += f", {extras}"
        if self.failures:
            line += f" ({self.failures[0]}"
            if len(self.failures) > 1:
                line += f" and {len(self.failures) - 1} more"
            line += ")"
        return line

    def to_json_obj(self) -> dict:
        return asdict(self)


def _check_sizes(n_max: int, count: int = 1) -> None:
    if count < 1:
        raise ValueError(f"instance count must be at least 1, got {count}")
    if n_max < MIN_VERIFY_N:
        raise ValueError(f"vertex count bound must be at least {MIN_VERIFY_N}, got {n_max}")


def _random_connected(rng: random.Random, n_max: int) -> SignedGraph:
    """Mixed stream of balanced and unbalanced connected signed graphs."""
    n = rng.randint(2, n_max)
    p = 1.0 if n <= 2 else rng.uniform(0.3, 0.95)
    seed = rng.getrandbits(32)
    if rng.random() < 0.25:
        # balanced by construction: a switched all-positive graph
        g = generate("random", n, signs="allpos", seed=seed, p=p)
        zeta = [rng.choice((1, -1)) for _ in range(n)]
        return switch(g, zeta)
    sign_p = rng.choice((0.15, 0.3, 0.5, 0.7, 1.0))
    return generate("random", n, signs=sign_p, seed=seed, p=p)


def _random_weighted(rng: random.Random, n_max: int) -> SignedGraph:
    """_random_connected with integral float weights, valid by construction."""
    g = _random_connected(rng, n_max)
    return SignedGraph._trusted(g.n, g.edges, tuple(
        float(rng.randint(*_WEIGHT_RANGE)) for _ in range(g.m)))


def _worst(pick, *values):
    """pick(values) for pick min or max, or NaN where a value is NaN, which
    min and max can drop."""
    return math.nan if any(map(math.isnan, values)) else pick(values)


def _extremes(eigenvalues: np.ndarray) -> list:
    """Each row's smallest and largest value, both NaN where it holds a NaN."""
    return np.stack((eigenvalues.min(axis=1), eigenvalues.max(axis=1)), axis=1).tolist()


def _psd_minimum(report: SuiteReport, values, label: str) -> float:
    """Smallest of a distance Laplacian's ascending eigenvalues, or NaN if the
    first or last is NaN; records a failure in report if it is negative or NaN."""
    low = math.nan if math.isnan(values[-1]) else values[0]
    if math.isnan(low):
        report.record_failure(f"{label}: NaN eigenvalue")
    elif low < -_PSD_TOL * max(1.0, values[-1]):
        report.record_failure(f"{label}: negative eigenvalue {low:g}")
    return low


def _runs(instances, laplacians: int):
    """Cut a stream of instances, each a tuple whose first value is a graph
    of order n, into runs: a run ends once its instances may stack
    _CHUNK_ENTRIES entries, in laplacians matrices of order n each."""
    run, entries = [], 0
    for instance in instances:
        run.append(instance)
        entries += laplacians * instance[0].n ** 2
        if entries >= _CHUNK_ENTRIES:
            yield run
            run, entries = [], 0
    if run:
        yield run


def _by_order(run) -> dict:
    """A run's instances grouped by the order of their first value, a
    graph: for each order, one column per value, in instance order."""
    groups: dict[int, list] = {}
    for instance in run:
        groups.setdefault(instance[0].n, []).append(instance)
    return {n: list(zip(*members)) for n, members in groups.items()}


def forest_theorem_suite(count: int = 200, n_max: int = 6, seed: int = 1) -> SuiteReport:
    """det_exact(weighted Laplacian) == forest_det, exactly, on random
    connected graphs with integer weights that forest_det does not refuse."""
    _check_sizes(n_max, count)
    rng = random.Random(seed)
    report = SuiteReport("forest-theorem", True, count)
    kept = []
    for i in range(count):
        wg = _random_weighted(rng, n_max)
        try:
            kept.append((wg, forest_det(wg), i))
        except SizeBoundError:
            pass
    max_diff = 0
    for run in _runs(kept, 1):
        dets = {n: iter([det_exact(lap) for lap in _laplacian_stack(graphs)])
                for n, (graphs, *_) in _by_order(run).items()}
        for wg, rhs, i in run:
            lhs = next(dets[wg.n])
            diff = abs(lhs - rhs)
            max_diff = max(max_diff, diff)
            if diff != 0:
                report.record_failure(f"instance {i}: det {lhs} != forest sum {rhs}")
    skipped = count - len(kept)
    report.details["max_abs_difference"] = max_diff
    if skipped:
        report.details["skipped"] = skipped
    if skipped == count:
        report.record_failure("forest_det refused every instance")
    return report


def balance_equivalence_suite(count: int = 500, n_max: int = 8, seed: int = 1) -> SuiteReport:
    """The four balance verdicts agree on every instance: switching,
    det L^max == 0, det L^min == 0, and (compatible and det L^pm == 0).

    Also verifies every certificate, checks that D^max - D^min is
    nonnegative and zero exactly on the compatible pairs, that
    L^pm == L^max on a compatible graph, and that both
    distance Laplacians are positive semidefinite, reporting the smallest
    eigenvalue seen. Each run's tables, signs, Laplacians and entrywise
    checks are formed in stacks, one per order; D^pm is signed on the
    stack of the order's compatible members only.
    Laplacians with equal entries share one determinant and one spectrum.
    """
    _check_sizes(n_max, count)
    rng = random.Random(seed)
    report = SuiteReport("balance-equivalence", True, count)
    balanced_count = 0
    min_eig = float("inf")
    for run in _runs(((_random_connected(rng, n_max), i) for i in range(count)), 2):
        stacked = {}
        for n, table in _tables([g for g, _ in run]).items():
            dist, both = table.dist, table.pos & table.neg
            dmax, dmin = _signed(table, "max"), _signed(table, "min")
            compatible = ~both.any(axis=(1, 2))
            # an incompatible member has no D^pm: D^max stands in, unused
            dpm = dmax.copy()
            dpm[compatible] = _signed(DistanceTable(
                dist[compatible], table.pos[compatible], table.neg[compatible]), "pm")
            lmax, lmin = _laplacian(dist, dmax), _laplacian(dist, dmin)
            # D^max - D^min is 2d on a pair with shortest paths of both signs
            # and 0 on any other: nonnegative, and zero exactly on the
            # compatible pairs. It is also L^min - L^max.
            gap = dmax - dmin
            differs = gap.any(axis=(1, 2))
            # the smallest and largest eigenvalue of each L^max, then of each
            # L^min that differs from it; an equal L^min shares its spectrum
            extremes = _extremes(_eigenvalues(np.concatenate((lmax, lmin[differs]))))
            rest = iter(extremes[len(lmax):])
            stacked[n] = iter(zip(
                lmax, lmin, differs.tolist(), (gap != 2 * dist * both).any(axis=(1, 2)).tolist(),
                compatible.tolist(), (dpm == dmax).all(axis=(1, 2)).tolist(), dpm, dist,
                extremes, [next(rest) if d else e for d, e in zip(differs, extremes)]))
        for g, i in run:
            (lmax, lmin, distinct, wrong_gap, compatible, pm_same, dpm, dist,
             max_pair, min_pair) = next(stacked[g.n])
            sw = is_balanced_switching(g)
            balanced_count += sw.balanced
            if not sw.verify(g):
                report.record_failure(f"instance {i}: certificate failed to verify")
            if wrong_gap:
                report.record_failure(f"instance {i}: D^max - D^min is not 2d on the pairs "
                                      f"with shortest paths of both signs and 0 elsewhere")
            if compatible and not pm_same:
                report.record_failure(f"instance {i}: L^pm != L^max on a compatible graph")
            det_max = det_exact(lmax)
            det_min = det_exact(lmin) if distinct else det_max
            pm_verdict = compatible and (
                det_max if pm_same else det_exact(_laplacian(dist, dpm))) == 0
            verdicts = (sw.balanced, det_max == 0, det_min == 0, pm_verdict)
            if len(set(verdicts)) != 1:
                report.record_failure(
                    f"instance {i}: verdicts {verdicts} disagree "
                    f"(det_max={det_max}, det_min={det_min}, compatible={compatible})"
                )
            if det_max < 0 or det_min < 0:
                report.record_failure(f"instance {i}: negative determinant")
            min_eig = _worst(min, min_eig, _psd_minimum(report, max_pair, f"instance {i} lmax"),
                             _psd_minimum(report, min_pair, f"instance {i} lmin"))
    report.details["balanced"] = balanced_count
    report.details["unbalanced"] = count - balanced_count
    report.details["min_eigenvalue"] = min_eig
    return report


def cospectrality_suite(count: int = 100, n_max: int = 8, seed: int = 1) -> SuiteReport:
    """A balanced graph is a switch of its all-positive original g, so
    L(switch(g, ζ)) = Z·L(g)·Z with Z = diag(ζ), and the two are
    cospectral. Checks that identity on L^pm entrywise in int64, reporting
    the largest entry difference, and that L(switch(g, ζ)) is positive
    semidefinite. Each run's tables of both graphs, signs, Laplacians and
    checks are formed in stacks, one per order."""
    _check_sizes(n_max, count)
    rng = random.Random(seed)
    report = SuiteReport("cospectrality", True, count)

    def instances():
        for i in range(count):
            n = rng.randint(2, n_max)
            p = 1.0 if n <= 2 else rng.uniform(0.3, 0.95)
            g_pos = generate("random", n, signs="allpos", seed=rng.getrandbits(32), p=p)
            zeta = [rng.choice((1, -1)) for _ in range(n)]
            yield switch(g_pos, zeta), g_pos, zeta, i

    max_dev = 0
    min_eig = float("inf")
    for run in _runs(instances(), 1):
        zetas = _by_order(run)
        stacked = {}
        # each order's switched graphs, then their originals
        for n, table in _tables([g for g, *_ in run] + [g_pos for _, g_pos, *_ in run]).items():
            lap, lap_pos = np.split(_laplacian(table.dist, _signed(table, "pm")), 2)
            z = np.array(zetas[n][2], dtype=np.int64)
            zlz = z[:, :, None] * lap_pos * z[:, None, :]
            stacked[n] = iter(zip(np.abs(lap - zlz).max(axis=(1, 2)).tolist(),
                                  _extremes(_eigenvalues(lap))))
        for g, *_, i in run:
            dev, extremes = next(stacked[g.n])
            max_dev = max(max_dev, dev)
            if dev:
                report.record_failure(f"instance {i}: L differs from Z·L·Z by {dev}")
            min_eig = _worst(min, min_eig, _psd_minimum(report, extremes, f"instance {i}"))
    report.details["max_deviation"] = max_dev
    report.details["min_eigenvalue"] = min_eig
    return report


def transmission_shift_suite(n_max: int = 12, seed: int = 1) -> SuiteReport:
    """On cycles of both uniform signatures and both kinds, every
    transmission is k(k+1) for odd n = 2k+1 and k^2 for even n = 2k, and
    the distance Laplacian spectrum is positive semidefinite and within
    _SPECTRUM_TOL of cycle_spectrum, the closed form that needs no
    eigensolver. The cycles are fixed, so seed is unused. A run's tables
    come from one BFS, one stacked table per order, and the spectra of an
    order's cycles, both kinds, from one stacked call.

    Also reports, without requiring agreement, how far the printed
    odd-cycle formula (odd_cycle_formula_spectrum) is from the spectrum
    of the all-negative odd cycles.
    """
    _check_sizes(n_max)
    report = SuiteReport("transmission-shift", True, 0)
    max_dev = 0.0
    min_eig = float("inf")
    printed_dev = 0.0
    cycles = ((generate("cycle", n, signs), n, sign, signs) for n in range(MIN_VERIFY_N, n_max + 1)
              for sign, signs in ((1, "allpos"), (-1, "allneg")))
    for run in _runs(cycles, 2):
        stacked = {}
        for n, table in _tables([g for g, *_ in run]).items():
            # each cycle's L^max, then each one's L^min
            values = _eigenvalues(np.concatenate([_laplacian(table.dist, _signed(table, kind))
                                                  for kind in ("max", "min")])).tolist()
            k = len(table.dist)
            stacked[n] = iter(zip(transmission(table).tolist(), values[:k], values[k:]))
        for _, n, sign, signs in run:
            transmissions, *spectra = next(stacked[n])
            expected_t = (n // 2) * (n // 2 + 1) if n % 2 else (n // 2) ** 2
            found_t = sorted(set(transmissions))
            if found_t != [expected_t]:
                report.record_failure(f"C{n} {signs}: transmissions {found_t} != {expected_t}")
            expected = cycle_spectrum(n, sign).eigenvalues
            for kind, values in zip(("max", "min"), spectra):
                report.instances += 1
                label = f"C{n} {signs} {kind}"
                dev = _worst(max, *(abs(x - y) for x, y in zip(values, expected)))
                if not dev <= _SPECTRUM_TOL:
                    report.record_failure(f"{label}: deviation {dev:g} from cycle_spectrum")
                max_dev = _worst(max, max_dev, dev)
                min_eig = _worst(min, min_eig, _psd_minimum(report, values, label))
            if sign < 0 and n % 2:
                printed = odd_cycle_formula_spectrum(n // 2).eigenvalues
                printed_dev = max(printed_dev, *(abs(x - y) for x, y in zip(expected, printed)))
    report.details["max_deviation"] = max_dev
    report.details["min_eigenvalue"] = min_eig
    report.details["printed_formula_max_deviation"] = printed_dev
    return report


def incidence_factorization_suite(count: int = 500, n_max: int = 8,
                                  seed: int = 1) -> SuiteReport:
    """H @ H.T reproduces the weighted Laplacian exactly (integer weights)
    for several random orientations of each random graph."""
    _check_sizes(n_max, count)
    rng = random.Random(seed)
    report = SuiteReport("incidence-factorization", True, count)

    def instances():
        for i in range(count):
            wg = _random_weighted(rng, n_max)
            # each orientation's (tail, head) pairs, edge by edge, flattened
            ends = [[x for u, v, _ in wg.edges for x in ((u, v) if rng.random() < 0.5 else (v, u))]
                    for _ in range(_ORIENTATIONS_PER_GRAPH)]
            yield wg, ends, i

    max_dev = 0.0
    for run in _runs(instances(), _ORIENTATIONS_PER_GRAPH):
        stacked = {}
        for n, (graphs, ends, _) in _by_order(run).items():
            h = _incidence_stack(graphs, ends)
            product = h @ h.swapaxes(2, 3)  # one n x n product per orientation
            lap = _laplacian_stack(graphs)[:, None]
            stacked[n] = iter(np.abs(product - lap).max(axis=(2, 3), initial=0.0).tolist())
        for wg, _, i in run:
            devs = next(stacked[wg.n])
            max_dev = _worst(max, max_dev, *devs)
            for dev in devs:
                if not dev < 1e-9:  # a NaN product fails too
                    report.record_failure(f"instance {i}: factorization deviation {dev:g}")
    report.details["max_deviation"] = max_dev
    return report


SUITES = dict(zip(SUITE_NAMES, (
    forest_theorem_suite,
    balance_equivalence_suite,
    cospectrality_suite,
    transmission_shift_suite,
    incidence_factorization_suite,
), strict=True))


def run_suite(name: str, n_max: int | None = None, seed: int = 1) -> SuiteReport:
    """Run one named suite at its default sizes, with n_max, when given,
    bounding the vertex count instead."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    # Looked up by name, so a rebound suite (a test double, a timer) runs.
    suite = globals()[SUITES[name].__name__]
    return suite(seed=seed) if n_max is None else suite(n_max=n_max, seed=seed)


# The suites that run_all(_fork=True) hands to a child process. In one
# process at seed 1530816428 they took 39-42 ms together and the other two
# 45-47 ms (best of 7, 2 shared cores, Python 3.11.7, numpy 2.4.6).
_CHILD_SUITES = ("balance-equivalence", "cospectrality", "transmission-shift")


class _Child:
    """A forked process that runs _CHILD_SUITES and sends their reports
    back, pickled, through a pipe."""

    def __init__(self, pid: int, pipe):
        self.pid, self.pipe = pid, pipe
        self.reports = None

    def report(self, name: str) -> SuiteReport | None:
        """The child's report of suite name, or None if the child failed.
        The first call waits for the child to exit."""
        if self.reports is None:
            data = self.pipe.read()
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            self.reports = {}
            if os.waitstatus_to_exitcode(status) == 0:
                try:
                    self.reports = dict(zip(_CHILD_SUITES, pickle.loads(data), strict=True))
                except Exception:  # short or unreadable: the caller runs the suites
                    pass
        return self.reports.get(name)

    def close(self) -> None:
        """Close the pipe, and kill and reap the child if it still runs."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _start_child(n_max, seed) -> _Child | None:
    """A child process that runs _CHILD_SUITES, or None where it could not
    run on a CPU of its own or no process can be forked."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        return None
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that a fork in a process with threads may
            # deadlock the child. With numpy's wheels the only other thread
            # is OpenBLAS's pool, which OpenBLAS stops before a fork
            # (pthread_atfork), and sdlap holds no lock across this call.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pickle.dump([run_suite(name, n_max, seed) for name in _CHILD_SUITES], pipe)
            code = 0
        finally:
            # never return to the caller: no flush of buffers inherited
            # from the parent, no atexit handler, no traceback
            os._exit(code)
    os.close(write_end)
    return _Child(pid, open(read_end, "rb"))


def run_all(n_max: int | None = None, seed: int = 1, *,
            _fork: bool = False) -> list[SuiteReport]:
    """Every suite's report, in SUITE_NAMES order.

    With _fork=True, which only the process entry cli.run() passes, and
    where os.fork and os.sched_getaffinity exist and two CPUs or more are
    usable, a child process runs _CHILD_SUITES while this one runs the other
    two; at seed 1530816428 that took 53-55 ms against 83 ms in one process.
    The outcome is the same as in one process: if the child fails, this
    process runs its suites itself, and an exception is raised where one
    process would have raised first. Library callers and cli.main() stay in
    one process."""
    child = _start_child(n_max, seed) if _fork else None
    if child is None:
        return [run_suite(name, n_max, seed) for name in SUITES]
    try:
        own = {}
        for name in SUITES:
            if name not in _CHILD_SUITES:
                try:
                    own[name] = run_suite(name, n_max, seed)
                except Exception as exc:  # raised below, in SUITES order
                    own[name] = exc
                    break
        reports = []
        for name in SUITES:
            if name in _CHILD_SUITES:
                report = child.report(name)
                if report is None:
                    report = run_suite(name, n_max, seed)
            else:
                report = own[name]
                if isinstance(report, Exception):
                    raise report
            reports.append(report)
        return reports
    finally:
        child.close()
