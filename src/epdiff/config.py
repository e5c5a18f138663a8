"""Experiment configuration: the option table, scheme labels, config files,
and flag merging.

Each option is declared once, in ``OPTIONS``; the CLI flags, the config-file
keys, the per-command defaults and the commands that read it all come from
it.  Config files are plain ``key = value`` text (``#`` starts a comment)
whose keys are the long flags with dashes replaced by underscores.  Flags win
over file values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import ConfigError
from .profiles import FrontKind, default_spec
from .steppers import BootstrapKind, FixedCount, SchemeConfig, SchemeKind

__all__ = [
    "OPTIONS", "SchemeSelection", "ExperimentConfig", "parse_scheme_label", "read_config_file"
]

COMMANDS = ("run", "conserve", "convergence", "reversibility", "bench")


@dataclass(frozen=True)
class SchemeSelection:
    """One requested scheme variant: kind plus corrector and label."""

    label: str
    kind: SchemeKind
    corrector: FixedCount | None

    def build(self, dt: float, bootstrap: BootstrapKind) -> SchemeConfig:
        return SchemeConfig(
            kind=self.kind, dt=dt, corrector=self.corrector, bootstrap=bootstrap
        )


def parse_scheme_label(label: str) -> SchemeSelection:
    """Parse one scheme label: scheme1 | scheme1-fixed=N | scheme2 | scheme3 | rk4.
    Every label but ``scheme1-fixed=N`` carries the corrector ``None``."""
    label = label.strip()
    if label.startswith("scheme1-fixed="):
        try:
            corrector = FixedCount(int(label.split("=", 1)[1]))
        except ValueError:
            raise ConfigError(f"bad corrector count in scheme label {label!r}") from None
        return SchemeSelection(label, SchemeKind.SCHEME1_PC, corrector)
    # Every other label is the value of its scheme kind.
    try:
        kind = SchemeKind(label)
    except ValueError:
        raise ConfigError(f"unknown scheme {label!r}") from None
    return SchemeSelection(label, kind, None)


# Parsers of option text.  Each raises ValueError with a phrase that
# build_config completes into a ConfigError naming the key and the value.


def _number(kind: type, low: float, high: float = math.inf) -> Callable[[str], float]:
    """Parser of a ``kind`` (int or float) strictly between ``low`` and ``high``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not low < value < high:  # inf and nan fail here too
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"must be {noun} in ({low:g}, {high:g})")
        return value

    return parse


def _one_of(*choices: str, convert: Callable = str) -> Callable[[str], object]:
    """Parser of one of ``choices``, in any case."""

    def parse(text: str):
        if text.lower() not in choices:
            raise ValueError("must be one of " + " | ".join(choices))
        return convert(text.lower())

    return parse


_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}
_bool = _one_of(*_BOOLEANS, convert=_BOOLEANS.get)
_positive = _number(float, 0.0)


def _listed(item: Callable[[str], object]) -> Callable[[str], tuple]:
    """Parser of a non-empty comma list of ``item`` values."""

    def parse(text: str) -> tuple:
        values = tuple(item(part) for part in text.split(",") if part.strip())
        if not values:
            raise ValueError("lists nothing")
        return values

    return parse


def _grid(text: str) -> tuple[int, int]:
    """Parser of one grid, ``K`` or ``KxJ``, at least 3x3."""
    parts = text.lower().split("x")
    try:
        k, j = map(int, parts * 2 if len(parts) == 1 else parts)
    except ValueError:
        raise ValueError("must be K or KxJ") from None
    if k < 3 or j < 3:
        raise ValueError("must be at least 3x3")
    return k, j


def _path(text: str) -> Path:
    if not text:
        raise ValueError("is empty")
    return Path(text)


@dataclass(frozen=True)
class Option:
    """One experiment option: config key, flag ``--key`` (``_`` as ``-``), parser
    of its text, help string, default text (``None``: unset) or a dict of
    default texts keyed by command, and the commands that read it (the others
    reject it when given).  Defaults are parsed like given values."""

    key: str
    parse: Callable[[str], object]
    default: str | None | dict[str, str]
    help: str
    commands: tuple[str, ...] = COMMANDS

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")

    @property
    def switch(self) -> bool:
        """Whether the flag takes no value (``store_true``)."""
        return self.parse is _bool


def _by_command(default: str, **special: str) -> dict[str, str]:
    return {command: special.get(command, default) for command in COMMANDS}


# Commands that step at a chosen dt; convergence steps at dt = dx.
_STEPPED = ("run", "conserve", "reversibility", "bench")

# In --help order.
OPTIONS = {opt.key: opt for opt in (
    Option("scheme", _listed(str.strip), _by_command(
        "scheme2",
        conserve="scheme1,scheme1-fixed=5,scheme2,scheme3,rk4",
        bench="scheme1-fixed=3,scheme2,scheme3",
    ), "comma list of scheme1 | scheme1-fixed=N | scheme2 | scheme3 | rk4 "
       "(default depends on the command)"),
    Option("grid", _listed(_grid), {
        "run": "160x160", "conserve": "20x20", "convergence": "32,64,128",
        "reversibility": "200x200", "bench": "100,200,300",
    }, "grid size K or KxJ; commands taking several grids accept a comma list"),
    Option("alpha", _positive, None,
           "smoothing length scale (default 1 for sine, else the sigma of the default front)"),
    Option("dt", _positive, None, "explicit time step (exclusive with the rules below)", _STEPPED),
    Option("dt_dx2", _bool, "false", "set dt = dx^2", _STEPPED),
    Option("dt_dx_ratio", _positive, None, "set dt = RATIO*dx", _STEPPED),
    Option("t_final", _positive, _by_command("0.4", conserve="50", convergence="0.375"),
           "final time of each run", ("run", "conserve", "convergence", "reversibility")),
    Option("profile", _one_of("sine", *(kind.value for kind in FrontKind)),
           _by_command("plate", conserve="sine"), "sine | plate | parallel | star"),
    Option("sigma", _positive, None, "wave-front cross-section width"),
    Option("amplitude", _positive, _by_command("1", convergence="0.5"),
           "wave-front peak speed (default 1; convergence defaults to 0.5 to stay "
           "well inside the dt = dx stability margin)"),
    Option("gaussian_cross_section", _bool, "false",
           "use exp(-(d/sigma)^2) instead of exp(-d/sigma)"),
    Option("out", _path, "out", "output directory (default ./out)"),
    Option("snapshot_every", _number(int, -1), "0", "snapshot cadence in steps (0 = none)",
           ("run", "conserve")),
    Option("seed", _number(int, -math.inf), "0",
           "seed recorded in summary.json for randomized checks"),
    Option("reference_grid", _grid, "256", "reference grid for convergence", ("convergence",)),
    Option("bootstrap", _one_of(*(kind.value for kind in BootstrapKind), convert=BootstrapKind),
           "rk4", "first-step method for two-level schemes: rk4 | scheme1"),
    Option("bench_steps", _number(int, 0), "20", "timed steps per bench rep", ("bench",)),
    Option("bench_reps", _number(int, 0), "3", "bench repetitions (median taken)", ("bench",)),
)}


def read_config_file(path) -> dict[str, str]:
    """Parse a key = value config file into a string dict."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


@dataclass
class ExperimentConfig:
    """Fully resolved configuration for one harness command."""

    command: str
    schemes: tuple[SchemeSelection, ...]
    alpha: float
    dt: float | None  # at most one of dt, dt_dx2 and dt_dx_ratio is set
    dt_dx2: bool
    dt_dx_ratio: float | None
    t_final: float
    profile: str
    sigma: float | None
    amplitude: float
    gaussian_cross_section: bool
    out_dir: Path
    snapshot_every: int
    seed: int
    grids: tuple[tuple[int, int], ...]
    reference_grid: tuple[int, int]
    bootstrap: BootstrapKind
    bench_steps: int
    bench_reps: int

    @property
    def K(self) -> int:
        return self.grids[0][0]

    @property
    def J(self) -> int:
        return self.grids[0][1]

    def resolve_dt(self, dx: float) -> float:
        if self.dt is not None:
            return self.dt
        if self.dt_dx2:
            return dx * dx
        if self.dt_dx_ratio is not None:
            return self.dt_dx_ratio * dx
        # Command defaults: the conservation benchmark uses dt = dx^2, the
        # wave-front commands dt = dx/4.
        if self.command == "conserve":
            return dx * dx
        return 0.25 * dx


def build_config(command: str, flags: dict[str, object]) -> ExperimentConfig:
    """Resolve every option from the flags, else the config file named by
    ``flags["config"]``, else the command's default.  A given option that the
    command does not read is a ConfigError; the unread ones keep their defaults."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    given: dict[str, object] = {}
    if flags.get("config"):
        given.update(read_config_file(flags["config"]))
    given.update(
        (key, value)
        for key, value in flags.items()
        if key != "config" and value is not None and value is not False
    )
    for key in given:
        if key not in OPTIONS or command not in OPTIONS[key].commands:
            raise ConfigError(f"{command} takes no option {key!r}")
    values: dict[str, object] = {}
    for key, opt in OPTIONS.items():
        default = opt.default[command] if isinstance(opt.default, dict) else opt.default
        text = given.get(key, default)
        try:
            values[key] = None if text is None else opt.parse(str(text))
        except ValueError as exc:
            raise ConfigError(f"{key} {exc}, got {text!r}") from None

    rules = [rule for rule in ("dt", "dt_dx2", "dt_dx_ratio")
             if values[rule] is not None and values[rule] is not False]
    if len(rules) > 1:
        raise ConfigError(f"give at most one time-step rule, got {', '.join(rules)}")
    labels = values.pop("scheme")
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(f"scheme {label!r} is selected more than once")
    schemes = tuple(parse_scheme_label(label) for label in labels)
    front = given.keys() & {"sigma", "amplitude", "gaussian_cross_section"}
    if values["profile"] == "sine" and front:
        raise ConfigError(f"the sine profile takes no {', '.join(sorted(front))}")
    if "bootstrap" in given and all(sel.kind is SchemeKind.RK4 for sel in schemes):
        raise ConfigError("the rk4 scheme takes no bootstrap")
    if command in ("run", "conserve", "reversibility") and len(values["grid"]) > 1:
        raise ConfigError(f"{command} takes one grid, got {len(values['grid'])}")
    for k, j in values["grid"]:
        if values["grid"].count((k, j)) > 1:
            raise ConfigError(f"grid {k}x{j} is selected more than once")
    if values["alpha"] is None:  # 1 for sine, else the sigma of the default front
        profile = values["profile"]
        values["alpha"] = 1.0 if profile == "sine" else default_spec(FrontKind(profile)).sigma
    return ExperimentConfig(
        command=command,
        schemes=schemes,
        grids=values.pop("grid"),
        out_dir=values.pop("out"),
        **values,
    )
