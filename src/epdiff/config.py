"""Experiment configuration: scheme labels, config files, and flag merging.

Config files are plain ``key = value`` text (``#`` starts a comment); keys
use the same names as the long CLI flags with dashes replaced by
underscores.  Command-line flags win over file values.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .profiles import FrontKind
from .steppers import (
    DEFAULT_CORRECTOR,
    BootstrapKind,
    CorrectorMode,
    FixedCount,
    SchemeConfig,
    SchemeKind,
    Tolerance,
)

__all__ = ["SchemeSelection", "ExperimentConfig", "parse_scheme_label", "read_config_file"]

COMMANDS = ("run", "conserve", "convergence", "reversibility", "bench")

_KNOWN_KEYS = {
    "scheme",
    "grid",
    "alpha",
    "dt",
    "dt_dx2",
    "dt_dx_ratio",
    "t_final",
    "profile",
    "sigma",
    "amplitude",
    "gaussian_cross_section",
    "out",
    "snapshot_every",
    "seed",
    "full_scale",
    "reference_grid",
    "corrector_rtol",
    "corrector_max_iter",
    "bootstrap",
    "bench_steps",
    "bench_reps",
}


@dataclass(frozen=True)
class SchemeSelection:
    """One requested scheme variant: kind plus corrector mode and label."""

    label: str
    kind: SchemeKind
    corrector: CorrectorMode

    def build(self, dt: float, bootstrap: BootstrapKind) -> SchemeConfig:
        return SchemeConfig(
            kind=self.kind, dt=dt, corrector=self.corrector, bootstrap=bootstrap
        )


def parse_scheme_label(
    label: str,
    rtol: float = DEFAULT_CORRECTOR.rtol,
    max_iter: int = DEFAULT_CORRECTOR.max_iter,
) -> SchemeSelection:
    """Parse one scheme label: scheme1 | scheme1-fixed=N | scheme2 | scheme3 | rk4."""
    label = label.strip()
    if label.startswith("scheme1-fixed="):
        try:
            count = int(label.split("=", 1)[1])
        except ValueError:
            raise ConfigError(f"bad corrector count in scheme label {label!r}") from None
        if count < 1:
            raise ConfigError(f"corrector count must be positive in {label!r}")
        return SchemeSelection(label, SchemeKind.SCHEME1_PC, FixedCount(count))
    # Every other label is the value of its scheme kind.
    try:
        kind = SchemeKind(label)
    except ValueError:
        raise ConfigError(f"unknown scheme {label!r}") from None
    return SchemeSelection(label, kind, Tolerance(rtol, max_iter))


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        if len(parts) == 1:
            k = j = int(parts[0])
        elif len(parts) == 2:
            k, j = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ConfigError(f"bad grid spec {text!r}, expected K or KxJ") from None
    if k < 3 or j < 3:
        raise ConfigError(f"grid {text!r} must be at least 3x3")
    return k, j


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
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


@dataclass
class ExperimentConfig:
    """Fully resolved configuration for one harness command."""

    command: str
    schemes: tuple[SchemeSelection, ...]
    K: int = 20
    J: int = 20
    alpha: float = 1.0
    dt: float | None = None  # explicit dt wins over the rules below
    dt_dx2: bool = False
    dt_dx_ratio: float | None = None
    t_final: float = 50.0
    profile: str = "sine"
    sigma: float | None = None
    amplitude: float = 1.0
    gaussian_cross_section: bool = False
    out_dir: Path = Path("out")
    snapshot_every: int = 0
    seed: int = 0
    full_scale: bool = False
    grids: tuple[tuple[int, int], ...] = ()
    reference_grid: tuple[int, int] = (256, 256)
    bootstrap: BootstrapKind = BootstrapKind.RK4
    bench_steps: int = 20
    bench_reps: int = 3

    def resolve_dt(self, dx: float) -> float:
        if self.dt is not None:
            if self.dt <= 0:
                raise ConfigError("dt must be positive")
            return self.dt
        if self.dt_dx2:
            return dx * dx
        if self.dt_dx_ratio is not None:
            if self.dt_dx_ratio <= 0:
                raise ConfigError("dt/dx ratio must be positive")
            return self.dt_dx_ratio * dx
        # Command defaults: the conservation benchmark uses dt = dx^2, the
        # wave-front commands dt = dx/4.
        if self.command == "conserve":
            return dx * dx
        return 0.25 * dx


def build_config(command: str, flags: dict[str, object]) -> ExperimentConfig:
    """Merge config-file values and CLI flags into an ExperimentConfig."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")

    merged: dict[str, object] = {}
    config_path = flags.get("config")
    if config_path:
        merged.update(read_config_file(config_path))
    for key, value in flags.items():
        if key == "config" or value is None or value is False:
            continue
        merged[key] = value

    def get(key, default=None):
        return merged.get(key, default)

    def as_bool(key) -> bool:
        v = get(key, False)
        if isinstance(v, bool):
            return v
        return str(v).strip().lower() in ("1", "true", "yes", "on")

    def as_int(key, default):
        v = get(key)
        if v is None:
            return default
        try:
            return int(str(v))
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {v!r}") from None

    def as_float(key, default):
        v = get(key)
        if v is None:
            return default
        try:
            return float(str(v))
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {v!r}") from None

    scheme_text = str(get("scheme") or _default_schemes(command))
    rtol = as_float("corrector_rtol", DEFAULT_CORRECTOR.rtol)
    if not 0.0 < rtol < 1.0:
        raise ConfigError("corrector rtol must lie in (0, 1)")
    max_iter = as_int("corrector_max_iter", DEFAULT_CORRECTOR.max_iter)
    if max_iter < 1:
        raise ConfigError("corrector max_iter must be positive")
    schemes = tuple(
        parse_scheme_label(label, rtol, max_iter)
        for label in scheme_text.split(",")
        if label.strip()
    )
    if not schemes:
        raise ConfigError("no scheme selected")

    grid_text = str(get("grid") or _default_grid(command))
    grid_list = tuple(_parse_grid(g) for g in grid_text.split(",") if g.strip())
    if not grid_list:
        raise ConfigError("no grid given")

    profile = str(get("profile") or _default_profile(command)).lower()
    if profile != "sine":
        try:
            FrontKind(profile)
        except ValueError:
            raise ConfigError(f"unknown profile {profile!r}") from None

    bootstrap_text = str(get("bootstrap") or "rk4").lower()
    try:
        bootstrap = BootstrapKind(bootstrap_text)
    except ValueError:
        raise ConfigError(f"unknown bootstrap {bootstrap_text!r}") from None

    alpha = as_float("alpha", _default_alpha(profile))
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    t_final = as_float("t_final", _default_t_final(command))
    if t_final <= 0:
        raise ConfigError("t-final must be positive")
    snapshot_every = as_int("snapshot_every", 0)
    if snapshot_every < 0:
        raise ConfigError("snapshot cadence must be >= 0")
    bench_steps = as_int("bench_steps", 20)
    bench_reps = as_int("bench_reps", 3)
    for key, value in (("bench_steps", bench_steps), ("bench_reps", bench_reps)):
        if value < 1:
            raise ConfigError(f"{key} must be at least 1, got {value}")

    cfg = ExperimentConfig(
        command=command,
        schemes=schemes,
        K=grid_list[0][0],
        J=grid_list[0][1],
        alpha=alpha,
        dt=as_float("dt", None),
        dt_dx2=as_bool("dt_dx2"),
        dt_dx_ratio=as_float("dt_dx_ratio", None),
        t_final=t_final,
        profile=profile,
        sigma=as_float("sigma", None),
        amplitude=as_float("amplitude", 1.0 if command != "convergence" else 0.5),
        gaussian_cross_section=as_bool("gaussian_cross_section"),
        out_dir=Path(str(get("out") or "out")),
        snapshot_every=snapshot_every,
        seed=as_int("seed", 0),
        full_scale=as_bool("full_scale"),
        grids=grid_list,
        reference_grid=_parse_grid(str(get("reference_grid") or "256")),
        bootstrap=bootstrap,
        bench_steps=bench_steps,
        bench_reps=bench_reps,
    )
    if cfg.amplitude <= 0:
        raise ConfigError("amplitude must be positive")
    if cfg.sigma is not None and cfg.sigma <= 0:
        raise ConfigError("sigma must be positive")
    return cfg


def _default_schemes(command: str) -> str:
    if command == "conserve":
        return "scheme1,scheme1-fixed=5,scheme2,scheme3,rk4"
    if command == "bench":
        return "scheme1-fixed=3,scheme2,scheme3"
    return "scheme2"


def _default_grid(command: str) -> str:
    if command == "conserve":
        return "20x20"
    if command == "convergence":
        return "32,64,128"
    if command == "bench":
        return "100,200,300"
    if command == "reversibility":
        return "200x200"
    return "160x160"


def _default_profile(command: str) -> str:
    if command == "conserve":
        return "sine"
    return "plate"


def _default_alpha(profile: str) -> float:
    if profile == "sine":
        return 1.0
    # alpha = sigma for the default wave-front widths.
    return 0.05 if profile == "star" else 0.1


def _default_t_final(command: str) -> float:
    if command == "conserve":
        return 50.0
    if command == "convergence":
        return 0.375
    return 0.4
