"""Linear-subpacketization coded caching: placement, delivery, verification.

A shared library of N files serves K cache-equipped users over a broadcast
link.  Each file is split into K subpackets and every user stores the same
cyclic window of i of them, so one cache holds i/K of the library.  The
delivery schedule answers any demand with XOR codewords that each user can
decode instantly from its own cache, using far fewer transmissions than
uncoded unicast while keeping the subpacketization linear in K.

The public names are those each module lists in its ``__all__``.
"""

from . import delivery, errors, model, multiaccess, verify
from .delivery import *  # noqa: F403
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .multiaccess import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (delivery, errors, model, multiaccess, verify)
    for name in module.__all__
) + ["__version__"]
