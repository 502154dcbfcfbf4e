"""Detection and classification of connector click events in industrial audio,
plus the seeded soundscape synthesis needed to test it without hardware."""

from . import audio_io, detector, evaluation, soundscape, spectral
from .audio_io import *  # noqa: F401,F403 - each module's __all__ is its public API
from .detector import *  # noqa: F401,F403
from .evaluation import *  # noqa: F401,F403
from .soundscape import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *audio_io.__all__,
    *spectral.__all__,
    *detector.__all__,
    *soundscape.__all__,
    *evaluation.__all__,
    "__version__",
]
