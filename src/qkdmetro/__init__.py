"""QKD feasibility planner for shared metro optical networks."""

__version__ = "0.1.0"

__all__ = ["__version__"]
