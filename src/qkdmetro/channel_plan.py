"""Wavelength grids and quantum/classical channel assignments.

Supports the CWDM 18-channel grid (1270..1610 nm, 20 nm spacing) and the
three-wavelength GPON plan (1310 up / 1490 down / 1550 video, the video
channel being reused for the quantum signal).
"""

from collections import namedtuple

from .errors import NoChannel, NoQuantumChannel

ROLES = frozenset(
    {"quantum", "classical_downstream", "classical_upstream", "video", "unused"}
)

# ITU G.694.2 nominal passband is the center +/- 6.5 nm.
CWDM_WIDTH_NM = 13.0


class WavelengthChannel(namedtuple(
        "WavelengthChannel", ("center_nm", "width_nm", "role"), defaults=("unused",))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 1200.0 <= self.center_nm <= 1700.0:
            raise ValueError(f"center {self.center_nm} nm outside 1200-1700 nm")
        if self.width_nm <= 0:
            raise ValueError("channel width must be positive")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        return self


ChannelPlan = namedtuple("ChannelPlan", ("grid_kind", "channels"))


def cwdm_grid():
    """The 18-channel CWDM grid, 1270 + 20k nm, all roles unused."""
    channels = tuple(
        WavelengthChannel(1270.0 + 20.0 * k, CWDM_WIDTH_NM) for k in range(18)
    )
    return ChannelPlan("cwdm", channels)


def gpon_plan():
    """GPON plan: 1310 upstream, 1490 downstream, 1550 (video) as quantum."""
    channels = (
        WavelengthChannel(1310.0, 40.0, "classical_upstream"),
        WavelengthChannel(1490.0, 20.0, "classical_downstream"),
        WavelengthChannel(1550.0, 10.0, "quantum"),
    )
    return ChannelPlan("gpon", channels)


def assign_role(plan, center_nm, role):
    """New plan with the channel centered at center_nm given the role."""
    hit = False
    channels = []
    for ch in plan.channels:
        if ch.center_nm == center_nm:
            channels.append(WavelengthChannel(ch.center_nm, ch.width_nm, role))
            hit = True
        else:
            channels.append(ch)
    if not hit:
        raise NoChannel(f"no channel centered at {center_nm} nm")
    return ChannelPlan(plan.grid_kind, tuple(channels))


def quantum_channel(plan):
    q = [ch for ch in plan.channels if ch.role == "quantum"]
    if len(q) != 1:
        raise NoQuantumChannel(f"plan has {len(q)} quantum channels, expected 1")
    return q[0]

