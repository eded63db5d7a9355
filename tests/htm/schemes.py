"""Spelling a named scheme under another conflict resolution."""

from repro.htm.policy import NAMED_SCHEMES


def at_resolution(scheme: str, resolution: str) -> str:
    """The name that runs named ``scheme`` under ``resolution``.

    A named scheme is its (vm, cd, ``stall``) point; any other
    resolution is spelled as the composed ``vm+cd+resolution`` name.
    """
    if resolution == "stall":
        return scheme
    row = NAMED_SCHEMES[scheme]
    return f"{row.vm}+{row.cd}+{resolution}"
