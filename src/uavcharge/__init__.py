"""uavcharge: deterministic simulator and optimization library for a
three-tier UAV charging network (towers -> charging drones -> MBS drones).
"""

# cli is not imported here: ``python -m uavcharge.cli`` imports the package
# first, and a cli already in sys.modules makes runpy warn.
from . import core, matching, metrics, powerctl, simengine

__version__ = "0.1.0"

__all__ = ["cli", "core", "matching", "metrics", "powerctl", "simengine", "__version__"]
