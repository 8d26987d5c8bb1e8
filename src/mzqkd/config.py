"""Run configuration: flat INI files in human units, merged with CLI flags.

A config file holds ``key = value`` entries grouped into the sections below.
Command-line flags override file values; file values override defaults.
Every value with a domain row is converted to SI exactly once, by the one
pass :func:`RunConfig.in_si`, which checks it in its own unit and returns the
SI value it checked; :func:`RunConfig.link_params`, :func:`RunConfig.mz_config`
and :func:`RunConfig.resolved_edge_times` build their records from that pass.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields
from typing import Optional

from .core import CONVENTIONS, LinkParams, MzConfig, check_domain
from .design import DETECTOR_PROFILES, RATE_MODES
from .errors import ConfigError
from .units import dispersion_to_si, km_to_m, nm_to_m, ns_to_s

ENV_CONFIG_PATH = "MZQKD_CONFIG"


def _setting(section: str, default, cast=float, *, key: Optional[str] = None,
             flag: Optional[str] = None, domain: Optional[tuple] = None, **argparse_kwargs):
    """A RunConfig field that is also file key ``section.key`` and flag ``flag``.

    ``key`` defaults to the field name and ``flag`` to ``--field-name``;
    ``argparse_kwargs`` (``choices``, ``help``) go to the flag, and a file
    value must lie in the same ``choices``.  ``domain`` is the field's row of
    ``core.DOMAIN`` and its conversion to SI (None: already SI).
    """
    return field(default=default, metadata={
        "section": section, "cast": cast, "key": key, "flag": flag, "domain": domain,
        "argparse": argparse_kwargs})


@dataclass
class RunConfig:
    """All tunables of one command invocation, in human units."""

    length_km: float = _setting("link", 50.0, domain=("fiber_length", km_to_m))
    lambda0_nm: float = _setting("link", 1550.0, domain=("lambda0", nm_to_m))
    delta_lambda_nm: float = _setting("link", 0.31, domain=("delta_lambda", nm_to_m))
    dispersion_ps_per_km_nm: float = _setting(
        "link", 17.0, flag="--dispersion", domain=("dispersion", dispersion_to_si),
        help="dispersion coefficient, ps/(km*nm)")
    group_index: float = _setting("link", 1.4682, domain=("group_index", None))
    leg_length_m: float = _setting("link", 1.0, domain=("leg_length", None))
    t_fiber: float = _setting("link", 1.0, domain=("t_fiber", None))
    t_leg: float = _setting("link", 1.0, domain=("t_leg", None))
    convention: str = _setting("link", "first_principles", str, choices=CONVENTIONS)

    delta_d_m: float = _setting("interferometer", 0.25, domain=("shifter", None))
    delta_m_m: float = _setting("interferometer", 0.25, domain=("shifter", None))
    delta_c_m: float = _setting("interferometer", 0.0, domain=("shifter", None))
    t_rising_ns: Optional[float] = _setting("interferometer", None,
                                            domain=("edge_time", ns_to_s))
    t_falling_ns: Optional[float] = _setting("interferometer", None,
                                             domain=("edge_time", ns_to_s))
    detector_profile: Optional[str] = _setting("interferometer", None, str)

    rho: float = _setting("design", 3.0, domain=("rho", None))
    mode: str = _setting("design", "linear", str, choices=RATE_MODES)
    safety_factor: float = _setting("design", 1.0, domain=("safety_factor", None))

    # per-command default when unset
    out_format: Optional[str] = _setting(
        "output", None, str, key="format", flag="--format",
        choices=("text", "csv", "json", "svg-plot"))
    out_path: Optional[str] = _setting(
        "output", None, str, key="path", flag="--output",
        help="output file; stdout when omitted")
    normalize: str = _setting("output", "absolute", str, choices=("absolute", "peak"))

    def in_si(self, section: str) -> dict:
        """The set fields of ``section`` that have a domain row, by name: each
        checked in its row in its own unit, and in SI."""
        return {name: check_domain(row, value, f"{section}: {name}", to_si)
                for name, row, to_si in _DOMAIN_FIELDS[section]
                if (value := getattr(self, name)) is not None}

    def resolved_edge_times(self) -> tuple[float, float]:
        """Detector edge times in s, set values beating the profile; checks the section first."""
        si = self.in_si("interferometer")
        profile = (0.0, 0.0)
        if self.detector_profile is not None:
            try:
                profile = DETECTOR_PROFILES[self.detector_profile]
            except KeyError:
                raise ConfigError(
                    f"interferometer.detector_profile: unknown profile "
                    f"{self.detector_profile!r}; choose from {sorted(DETECTOR_PROFILES)}")
        return si.get("t_rising_ns", profile[0]), si.get("t_falling_ns", profile[1])

    def link_params(self) -> LinkParams:
        # the link rows are LinkParams' field names
        si = self.in_si("link")
        try:
            return LinkParams(**{row: si[name] for name, row, _ in _DOMAIN_FIELDS["link"]},
                              convention=self.convention)
        except ConfigError as exc:
            raise ConfigError(f"link: {exc}") from exc

    def mz_config(self) -> MzConfig:
        si = self.in_si("interferometer")
        return MzConfig(delta_d=si["delta_d_m"], delta_m=si["delta_m_m"],
                        delta_c=si["delta_c_m"])


# The fields of each section that have a domain row: (name, row, conversion to SI).
_DOMAIN_FIELDS = {section: [(f.name, *f.metadata["domain"]) for f in fields(RunConfig)
                            if f.metadata["section"] == section and f.metadata["domain"]]
                  for section in ("link", "interferometer", "design")}


def load_config_file(path: str) -> RunConfig:
    """Parse one UTF-8 INI file, values taken literally, into a RunConfig.

    A file that does not parse, and unknown keys and values, raise ConfigError.
    """
    # no header names the empty section, so [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    schema: dict[str, dict] = {}
    for f in fields(RunConfig):
        schema.setdefault(f.metadata["section"], {})[f.metadata["key"] or f.name] = f
    config = RunConfig()
    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"{section}: unknown config section "
                              f"(expected one of {sorted(schema)})")
        for key, raw in parser.items(section):
            f = schema[section].get(key)
            if f is None:
                raise ConfigError(f"{section}.{key}: unknown config key")
            cast = f.metadata["cast"]
            try:
                value = cast(raw)
            except ValueError:
                raise ConfigError(
                    f"{section}.{key}: could not parse {raw!r} as {cast.__name__}")
            choices = f.metadata["argparse"].get("choices")
            if choices is not None and value not in choices:
                raise ConfigError(f"{section}.{key}: must be one of {choices}, "
                                  f"got {value!r}")
            setattr(config, f.name, value)
    return config


def default_config_path() -> Optional[str]:
    return os.environ.get(ENV_CONFIG_PATH) or None


def apply_overrides(config: RunConfig, args) -> RunConfig:
    """Apply the flags of a parsed namespace, by field name (absent or None: not given)."""
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    return config
