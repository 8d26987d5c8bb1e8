"""Run configuration: flat INI files in human units, merged with CLI flags.

A config file holds ``key = value`` entries grouped into the sections below.
Command-line flags override file values; file values override defaults.
Every value is converted to SI exactly once, by :func:`RunConfig.link_params`,
:func:`RunConfig.mz_config` or :func:`RunConfig.resolved_edge_times`.
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

    def _check_section(self, section: str) -> None:
        """Check the set fields of ``section`` in their domain rows, in their own units."""
        for name, row, to_si in _DOMAIN_FIELDS[section]:
            value = getattr(self, name)
            if value is not None:
                try:
                    check_domain(row, value, name, to_si)
                except ValueError as exc:
                    raise ConfigError(f"{section}: {exc}") from exc

    def resolved_edge_times(self) -> tuple[float, float]:
        """Detector edge times in s, set values beating the profile; checks the section first."""
        self._check_section("interferometer")
        profile = (0.0, 0.0)
        if self.detector_profile is not None:
            try:
                profile = DETECTOR_PROFILES[self.detector_profile]
            except KeyError:
                raise ConfigError(
                    f"interferometer.detector_profile: unknown profile "
                    f"{self.detector_profile!r}; choose from {sorted(DETECTOR_PROFILES)}")
        rising = ns_to_s(self.t_rising_ns) if self.t_rising_ns is not None else profile[0]
        falling = ns_to_s(self.t_falling_ns) if self.t_falling_ns is not None else profile[1]
        return rising, falling

    def link_params(self) -> LinkParams:
        self._check_section("link")
        try:
            return LinkParams(
                lambda0=nm_to_m(self.lambda0_nm),
                delta_lambda=nm_to_m(self.delta_lambda_nm),
                dispersion=dispersion_to_si(self.dispersion_ps_per_km_nm),
                group_index=self.group_index,
                fiber_length=km_to_m(self.length_km),
                leg_length=self.leg_length_m,
                t_fiber=self.t_fiber,
                t_leg=self.t_leg,
                convention=self.convention,
            )
        except ValueError as exc:
            raise ConfigError(f"link: {exc}") from exc

    def mz_config(self) -> MzConfig:
        try:
            return MzConfig(
                delta_d=self.delta_d_m,
                delta_m=self.delta_m_m,
                delta_c=self.delta_c_m,
            )
        except ValueError as exc:
            raise ConfigError(f"interferometer: {exc}") from exc

    def validate_design(self) -> None:
        self._check_section("design")


# The fields of each section that have a domain row: (name, row, conversion to SI).
_DOMAIN_FIELDS = {section: [(f.name, *f.metadata["domain"]) for f in fields(RunConfig)
                            if f.metadata["section"] == section and f.metadata["domain"]]
                  for section in ("link", "interferometer", "design")}


def load_config_file(path: str) -> RunConfig:
    """Parse one INI file into a RunConfig, rejecting unknown keys and values."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
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
