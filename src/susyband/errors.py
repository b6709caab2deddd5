"""Exception types shared across the package."""


class EllipticDomainError(ValueError):
    """Elliptic parameter outside its admissible range (includes the m -> 1 divergence)."""


class PeriodMismatchError(ValueError):
    """Two potentials were expected to share a period but do not."""


class StiffIntegrationError(RuntimeError):
    """Adaptive step size underflowed; carries the location of the failure."""

    def __init__(self, message: str, x: float):
        super().__init__(f"{message} (at x = {x:.6g})")
        self.x = x


class BandEnergyError(ValueError):
    """Real Bloch solutions requested at an energy inside an allowed band.

    The Floquet multipliers are a unit-modulus complex pair there, so no
    real quasi-periodic seed exists.
    """


class SingularSeedError(ValueError):
    """A nodeless seed was required but the solution vanishes inside the window."""

    def __init__(self, message: str, nodes=()):
        locs = ", ".join(f"{x:.6g}" for x in nodes)
        super().__init__(f"{message}: nodes at [{locs}]" if locs else message)
        self.nodes = tuple(nodes)


class SingularTransformError(ValueError):
    """The transform denominator (seed or Wronskian) vanishes inside the window."""

    def __init__(self, message: str, zeros=()):
        locs = ", ".join(f"{x:.6g}" for x in zeros)
        super().__init__(f"{message}: zeros at [{locs}]" if locs else message)
        self.zeros = tuple(zeros)


class SeedConsistencyError(ValueError):
    """Seed fails its Riccati residual gate, so it does not solve the stated equation."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual = {residual:.3e})")
        self.residual = residual


class WindowOverflowError(ValueError):
    """A seed's multiplier extension |beta|^cells overflows over the working window."""

    def __init__(self, periods: int, multiplier: float):
        super().__init__(
            f"seed amplitude overflows over a window of {periods} periods "
            f"(multiplier beta = {multiplier:.6g}); use fewer periods"
        )
        self.periods = periods
        self.multiplier = multiplier


class ConfluentTransformError(ValueError):
    """Second-order transform requested with equal factorization energies."""
