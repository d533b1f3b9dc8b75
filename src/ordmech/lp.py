"""Small linear-programming layer.  No audit uses it: it serves
``audit.sample_consistent_metric`` and the tests' HiGHS oracles.

Every such LP has the form

    minimize c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0

and is solved by scipy's HiGHS interface.  The result reports an explicit
infeasible / unbounded verdict instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    fun: float | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
             maximize: bool = False) -> LPResult:
    """Solve the LP, all variables nonnegative.  ``maximize`` flips the objective."""
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=float)
    sign = -1.0 if maximize else 1.0
    res = linprog(sign * c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status == 0:
        return LPResult("optimal", np.asarray(res.x), sign * float(res.fun))
    if res.status == 2:
        return LPResult("infeasible", None, None)
    if res.status == 3:
        return LPResult("unbounded", None, None)
    raise SolverError(f"LP solver failure: {res.message}")
