"""Virtual-agent imitation (the second Section 6 alternative).

Section 6 of the paper sketches three ways to keep imitation dynamics from
losing strategies forever.  The second one adds a *virtual agent* to every
strategy: when a player samples "another player", every strategy is sampled
with probability proportional to its player count *plus one*, so no strategy
ever becomes invisible.  The price is a base load of one on every strategy's
resources, which slightly perturbs the latencies the analysis reasons about;
the paper notes the convergence-time analysis survives as long as the number
of virtual agents ``|P|`` is small compared to ``n``.

:class:`VirtualAgentImitationProtocol` implements this variant on top of the
ordinary game (the virtual agents are *not* added to the congestion — they
only change the sampling distribution, which is the part that restores
innovativeness; adding them to the congestion as well can be emulated by
shifting the latency functions).  With it, the dynamics can rediscover unused
strategies and — combined with a zero ``nu`` threshold — converge to Nash
equilibria in the long run, which :mod:`repro.experiments.exp_virtual_agents`
verifies experimentally against the plain protocol and the exploration-based
hybrid.
"""

from __future__ import annotations

from .imitation import DEFAULT_LAMBDA, ImitationProtocol

__all__ = ["VirtualAgentImitationProtocol"]


class VirtualAgentImitationProtocol(ImitationProtocol):
    """Imitation with one virtual agent per strategy in the sampling step.

    Parameters
    ----------
    lambda_, use_nu_threshold, nu_override, elasticity_override:
        As for :class:`~repro.core.imitation.ImitationProtocol`.
    virtual_agents_per_strategy:
        Number of virtual agents placed on every strategy (default 1).  The
        sampling probability of strategy ``Q`` becomes
        ``(x_Q + v) / (n + v * |P|)``.
    """

    name = "imitation-virtual-agents"

    def __init__(
        self,
        lambda_: float = DEFAULT_LAMBDA,
        *,
        use_nu_threshold: bool = False,
        nu_override: float | None = None,
        elasticity_override: float | None = None,
        virtual_agents_per_strategy: int = 1,
    ):
        super().__init__(
            lambda_,
            use_nu_threshold=use_nu_threshold,
            nu_override=nu_override,
            elasticity_override=elasticity_override,
        )
        if virtual_agents_per_strategy < 1:
            raise ValueError("need at least one virtual agent per strategy")
        self.virtual_agents_per_strategy = int(virtual_agents_per_strategy)

    def describe(self) -> str:
        return (f"imitation-virtual-agents(lambda={self.lambda_:g}, "
                f"v={self.virtual_agents_per_strategy})")
