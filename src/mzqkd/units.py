"""Unit conversions between human-facing units and the internal SI system.

Everything inside the package is SI: meters, seconds, 1/meters.  Command-line
and config-file inputs use the units customary for fiber links (km, nm,
ps/(km*nm), ns) and are converted exactly once at the boundary, by the check
of each value against its domain row (``core.check_domain``), which returns
the SI value it checked: ``config.RunConfig.in_si`` for the settings, the CLI
for its fiber lengths.
"""

C0 = 299792458.0  # vacuum speed of light, m/s


def km_to_m(value_km: float) -> float:
    return value_km * 1e3


def nm_to_m(value_nm: float) -> float:
    return value_nm * 1e-9


def ns_to_s(value_ns: float) -> float:
    return value_ns * 1e-9


def dispersion_to_si(value_ps_per_km_nm: float) -> float:
    """ps/(km*nm) -> s/m^2.  17 ps/(km*nm) becomes 17e-6 s/m^2."""
    return value_ps_per_km_nm * 1e-12 / (1e3 * 1e-9)
