from .data import ObservationSet, gen_data
from .model import ForwardModel, SolveCounters, SolverError
from .presets import adv1d, assemble

__all__ = [
    "ForwardModel", "SolveCounters", "SolverError", "ObservationSet",
    "gen_data", "assemble", "adv1d", "adv2d", "elast2d",
]


def __getattr__(name: str):
    # the FEM builders load on first use, as in assemble
    if name in ("adv2d", "elast2d"):
        from . import fem

        return getattr(fem, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
