"""User populations.

Figure 5 (Frontier) shows failure/cancellation counts dominated by a few
users, while Figure 8 (Andes) shows lower, more uniform failure rates.
Both are emergent properties of the per-user parameters drawn here:

- activity follows a Zipf-like law (a few users submit most jobs),
- failure proneness is Beta-distributed with per-system shape (Frontier's
  is long-tailed, Andes' is concentrated near small values),
- walltime request accuracy is a per-user multiplier distribution
  (chronic over-requesters exist on both machines, but Andes users
  cluster tighter — Figure 9 vs Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.errors import ConfigError

__all__ = ["User", "UserPopulation"]

_DOMAINS = ("ast", "bio", "chm", "cli", "eng", "fus", "mat", "nph", "phy", "csc")


@dataclass(frozen=True)
class User:
    """One synthetic user and their behavioural parameters."""

    name: str
    account: str
    #: relative submission intensity (sums to 1 across the population)
    activity: float
    #: base probability a job fails (exit != 0)
    failure_rate: float
    #: base probability a job is cancelled
    cancel_rate: float
    #: median walltime request / true runtime multiplier (>= 1)
    overrequest: float
    #: spread of the per-job overrequest draw (lognormal sigma)
    overrequest_sigma: float
    #: preference weight for many-step (srun-heavy) job classes
    mtask_affinity: float


class UserPopulation:
    """A fixed population of users with sampling helpers."""

    def __init__(self, users: list[User]) -> None:
        if not users:
            raise ConfigError("population needs at least one user")
        self.users = users
        w = np.array([u.activity for u in users], dtype=float)
        if (w <= 0).any():
            raise ConfigError("user activities must be positive")
        self._weights = w / w.sum()

    def __len__(self) -> int:
        return len(self.users)

    def sample(self, rng: np.random.Generator, n: int) -> list[User]:
        """Draw ``n`` users proportional to activity."""
        idx = rng.choice(len(self.users), size=n, p=self._weights)
        return [self.users[i] for i in idx]

    @classmethod
    def generate(cls, rng: np.random.Generator, n_users: int,
                 failure_alpha: float, failure_beta: float,
                 cancel_scale: float,
                 overrequest_median: float, overrequest_spread: float,
                 zipf_s: float = 1.3) -> "UserPopulation":
        """Draw a population.

        Parameters
        ----------
        failure_alpha, failure_beta:
            Beta-distribution shape for per-user failure rates.  Frontier
            uses a long-tailed shape (small alpha), Andes a concentrated
            one (alpha ~ beta larger).
        cancel_scale:
            Mean of the exponential cancel-rate draw.
        overrequest_median, overrequest_spread:
            Lognormal location/scale of the per-user median overrequest
            multiplier.
        zipf_s:
            Zipf exponent for activity (higher = more concentrated).
        """
        if n_users < 1:
            raise ConfigError("n_users must be >= 1")
        ranks = np.arange(1, n_users + 1, dtype=float)
        activity = ranks ** (-zipf_s)
        rng.shuffle(activity)
        fail = rng.beta(failure_alpha, failure_beta, size=n_users)
        cancel = np.minimum(0.6, rng.exponential(cancel_scale, size=n_users))
        over = overrequest_median * rng.lognormal(
            0.0, overrequest_spread, size=n_users)
        over = np.maximum(1.0, over)
        sigma = rng.uniform(0.2, 0.8, size=n_users)
        mtask = rng.beta(1.2, 4.0, size=n_users)
        users = []
        for i in range(n_users):
            domain = _DOMAINS[int(rng.integers(0, len(_DOMAINS)))]
            users.append(User(
                name=f"user{i:04d}",
                account=f"{domain}{int(rng.integers(1, 40)):03d}",
                activity=float(activity[i]),
                failure_rate=float(np.clip(fail[i], 0.0, 0.85)),
                cancel_rate=float(cancel[i]),
                overrequest=float(over[i]),
                overrequest_sigma=float(sigma[i]),
                mtask_affinity=float(mtask[i]),
            ))
        return cls(users)
