"""Work budgets: the solver work of fixed scenarios, counted exactly and bounded.

Each count is deterministic: Newton and scan evaluations (the sum of the
solutions' n_evaluations), numpy.linalg eigh and eigvalsh calls (kernel
builds included, and any that bypass the kernel's memos), fock.gibbs_state
calls, and ED matvecs (the products inside Lanczos plus one per column of
each seeded start's block, whose product with H the start makes). Machine
drift cannot move them, so each is asserted against a budget: an upper
bound equal to the count measured when the budget was set. A change that
cuts work lowers its budget in the same change; a change that raises one
says why in CHANGES.md. Every mean-field scenario starts from empty kernel
memos. The cusp pattern's scan budget sits with its test,
test_fluct.py::test_solves_after_a_scan_repeat_no_newton_eigh.
"""

import collections

import numpy as np
import pytest

from srptsim import ed, fluct, fock, meanfield
from srptsim.constants import h

BUDGETS = {
    # criterion 4's 20 x 20 grid: solve_sweep per kT row, 20 L_R0 from 0.30 to 1.0 nH, kT / h 0 to 200 GHz
    "grid evaluations": 2990,
    "grid eigvalsh": 79,
    "grid eigh": 1367,
    # a lone kT = 0 solve at 0.6 nH
    "lone solve evaluations": 25,
    # the default fluct sweep, 46 L_R0 from 0.1 to 1.0 nH at kT = 0
    "fluct sweep evaluations": 263,
    "fluct spectrum_scan eigvalsh": 79,
    "fluct spectrum_scan eigh": 155,
    # the kT = 0 sweep at L_c + 2 pH k, k = 1..20
    "onset sweep evaluations": 140,
    # meanfield._critical_temperature over criterion 4's 20 columns
    "critical temperature gibbs_state": 144,
    # ed.scan on the reference circuit, L_R0 from 0.40 to 0.60 nH, default EdConfig seed
    "ed N=1 24/48 16 points matvecs": 2004,
    "ed N=2 24/48 4 points matvecs": 1248,
    "ed N=3 16/32 3 points matvecs": 788,
}

GRID_L = np.linspace(0.30e-9, 1.0e-9, 20)
GRID_KT = np.linspace(0.0, 200.0, 20) * h * 1e9
FLUCT_L = np.linspace(0.1e-9, 1.0e-9, 46)


def within(counts):
    """Assert every count of {budget name: count} within its budget, naming all that are not."""
    over = {name: f"{count} > {BUDGETS[name]}" for name, count in counts.items() if count > BUDGETS[name]}
    assert not over, over


def evaluations(sweep):
    return sum(s.n_evaluations for s in sweep)


@pytest.fixture
def work(monkeypatch):
    """run(scenario) -> (scenario(), Counter of the work it made, from empty kernel memos): eigh,
    eigvalsh, gibbs_state and matvecs (products inside ed._lanczos, plus start-block columns)."""
    counter = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(fock, "gibbs_state", counted("gibbs_state", fock.gibbs_state))

    class Counting:
        """The matrix, counting the products Lanczos takes with it."""

        def __init__(self, matrix):
            self.matrix, self.shape = matrix, matrix.shape

        def __matmul__(self, x):
            counter["matvecs"] += 1
            return self.matrix @ x

    lanczos, lowest = ed._lanczos, ed.lowest_eigenpairs

    def counting_lowest(matrix, k, seed=0, v0=None):
        counter["matvecs"] += 0 if v0 is None else v0.shape[1]
        return lowest(matrix, k, seed, v0)

    monkeypatch.setattr(ed, "_lanczos", lambda matrix, *args: lanczos(Counting(matrix), *args))
    monkeypatch.setattr(ed, "lowest_eigenpairs", counting_lowest)

    def run(scenario):
        fock._branch.cache_clear()
        counter.clear()
        return scenario(), collections.Counter(counter)

    return run


def test_criterion_4_grid_within_budget(reference, work):
    made, count = work(lambda: sum(evaluations(meanfield.solve_sweep(reference, GRID_L, float(kT)))
                                   for kT in GRID_KT))
    within({"grid evaluations": made, "grid eigvalsh": count["eigvalsh"], "grid eigh": count["eigh"]})


def test_lone_solve_within_budget(reference, work):
    solution, _ = work(lambda: meanfield.solve(reference.replace(L_R0=0.6e-9), 0.0))
    within({"lone solve evaluations": solution.n_evaluations})


def test_default_fluct_sweep_within_budget(reference, work):
    made, _ = work(lambda: evaluations(meanfield.solve_sweep(reference, FLUCT_L, 0.0)))
    # a renormalize that diagonalized again would show here as an extra eigh
    _, count = work(lambda: fluct.spectrum_scan(reference, FLUCT_L))
    within({"fluct sweep evaluations": made, "fluct spectrum_scan eigvalsh": count["eigvalsh"],
            "fluct spectrum_scan eigh": count["eigh"]})


def test_onset_sweep_within_budget(reference, work):
    onset = meanfield.critical_inductance_at_zero_T(reference) + 2e-12 * np.arange(1, 21)
    made, _ = work(lambda: evaluations(meanfield.solve_sweep(reference, onset, 0.0)))
    within({"onset sweep evaluations": made})


def test_critical_temperature_within_budget(reference, work):
    _, count = work(lambda: [meanfield._critical_temperature(fock.branch(reference), 1.0 / x + 1.0 / reference.L_g)
                             for x in GRID_L])
    within({"critical temperature gibbs_state": count["gibbs_state"]})


@pytest.mark.parametrize("n, top, total, points", [(1, 24, 48, 16), (2, 24, 48, 4), (3, 16, 32, 3)])
def test_ed_sweep_within_budget(reference, work, n, top, total, points):
    config = ed.EdConfig(n_atoms=n, per_mode_cutoff=top, total_cutoff=total)
    _, count = work(lambda: ed.scan(reference.replace(N=n), config, np.linspace(0.40e-9, 0.60e-9, points)))
    within({f"ed N={n} {top}/{total} {points} points matvecs": count["matvecs"]})
