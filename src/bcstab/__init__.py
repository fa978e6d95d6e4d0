"""Stability region of the two-user broadcast channel with bursty arrivals.

Closed-form success probabilities and stability regions for the generic,
interference-as-noise, and superposition/successive-decoding schemes under
fixed or queue-adaptive power, verified against a slotted Monte Carlo queue
simulator.
"""

from . import channel, region, sim
from .channel import *  # noqa: F401,F403
from .region import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403

__all__ = [*channel.__all__, *region.__all__, *sim.__all__]
__version__ = "0.1.0"
