"""The protocol fingerprint two parties compare before any OT runs.

Two parties on different versions of a tweak layout, a digit width or
a lane rule exchange frames of the right sizes and compute wrong
shares: no :class:`~repro.errors.ProtocolError`, just a broken
correlation.  :data:`PROTOCOL` names the version both must speak: a
version integer plus a digest of the declared protocol constants.  A
correlation service sends it as its first control message
(``{"op": "hello", "protocol": PROTOCOL}`` on ``prov/ctl``, nothing
else in it, so that every version parses it; the wire-shaping
settings of :data:`repro.runtime.service.HELLO_CONFIG` follow in a
``config`` message) and :class:`repro.ot.reconnect.ReconnectingChannel`
in its HELLO; a mismatch is a ``ProtocolError`` naming both values
before any base OT runs.

Bump :data:`VERSION` when a wire format changes in a way the digested
constants do not show.
"""

from __future__ import annotations

import hashlib
import json

from repro.crypto.group import DEFAULT_GROUP
from repro.errors import ProtocolError
from repro.mpc.compare import DIGIT
from repro.mpc.relu import _MUX_TWEAK
from repro.mpc.triples import _PAD_STRIDE
from repro.mpc.truncation import _B2A_TWEAK, _CARRY_TWEAK
from repro.ot.base_ot import BOOTSTRAP_TWEAK, KAPPA
from repro.ot.channel import lanes_bytes
from repro.spcot.mpcot import _TREE_TWEAK_STRIDE
from repro.spcot.protocol import _KEY_TREE_PRG, _LEVEL_TWEAK_STRIDE, _MASK_TWEAK_OFFSET

#: Wire version of the protocol stack.
VERSION = 5

#: Every declared constant a pad or a frame size depends on (every
#: module-level tweak, stride and offset of ``repro``, which
#: ``tests/test_control_decoders.py`` checks).  The lane
#: rule is the byte length of a 9-lane frame at each width: the 1-bit
#: count header and the 1 / 2 / 4 / 8-byte lane steps.  The key tree
#: (kind, arity, master-key digest) masks every m-ary SPCOT level sum.
CONSTANTS = {
    "DIGIT": DIGIT,
    "_PAD_STRIDE": int(_PAD_STRIDE),
    "_LEVEL_TWEAK_STRIDE": _LEVEL_TWEAK_STRIDE,
    "_MASK_TWEAK_OFFSET": _MASK_TWEAK_OFFSET,
    "_TREE_TWEAK_STRIDE": _TREE_TWEAK_STRIDE,
    "_CARRY_TWEAK": _CARRY_TWEAK,
    "_B2A_TWEAK": _B2A_TWEAK,
    "_MUX_TWEAK": _MUX_TWEAK,
    "KAPPA": KAPPA,
    "BOOTSTRAP_TWEAK": BOOTSTRAP_TWEAK,
    "group": [DEFAULT_GROUP.name, "sec1-compressed"],
    "key_tree": [
        _KEY_TREE_PRG.name,
        _KEY_TREE_PRG.arity,
        hashlib.sha256(_KEY_TREE_PRG.master_key).hexdigest()[:16],
    ],
    "lanes": [lanes_bytes(9, bits) for bits in range(1, 65)],
}

PROTOCOL = "%d:%s" % (
    VERSION,
    hashlib.sha256(json.dumps(CONSTANTS, sort_keys=True).encode()).hexdigest()[:16],
)


def check_peer_protocol(peer: str) -> None:
    """Refuse a peer whose fingerprint is not :data:`PROTOCOL`."""
    if peer != PROTOCOL:
        raise ProtocolError(f"peer speaks protocol {peer!r}, this party {PROTOCOL!r}")
