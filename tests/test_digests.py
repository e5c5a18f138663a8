"""The standing bit-for-bit check: sha256 digests of what the kernels, short
``integrate`` runs and one small ``epdiff run`` produce, against the ones
recorded in ``digests.json``.

A group is one kernel on every input, one (profile, label, bootstrap) run,
or the output files of the ``epdiff run``; a failure names the groups
that moved.  The bits rest on numpy's pocketfft and its reduction order,
so the check runs only on the numpy version and the platform that made
the digests.  A change that moves numbers on purpose regenerates the file
with ``PYTHONPATH=src python tests/test_digests.py`` and names the groups
that moved.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

import epdiff.grid as grid_module
from epdiff import (
    BootstrapKind,
    FieldPair,
    FrontKind,
    GridSpec,
    ScalarField,
    default_spec,
    integrate,
    sine_profile,
    wavefront_profile,
)
from epdiff.cli import main
from epdiff.config import parse_scheme_label
from epdiff.core import _corrector_norms, _gamma_arrays, _two_level_energy
from epdiff.grid import _apply_q_arr, _solve_q_checked, _solve_q_stack_arr
from conftest import d1x, d1y, d2

RECORD = Path(__file__).with_name("digests.json")

# 128^2 splits a (2, J, K) stack across two threads; 127x129, one point
# fewer, does not.
GRIDS = [(3, 3), (5, 7), (20, 20), (33, 17), (127, 129), (128, 128)]
ALPHAS = [1.0, 0.1]
LABELS = ["scheme1", "scheme1-fixed=3", "scheme2", "scheme3", "rk4"]
STEPS = 6


def _platform() -> str:
    return f"{sys.platform}-{platform.machine()}"


def _feed(h, *arrays):
    for x in arrays:
        x = np.asarray(x, dtype=np.float64)
        h.update(repr(x.shape).encode())
        h.update(x.tobytes())


def _inputs(g: GridSpec, lead: tuple, rng):
    """A random stack with -0.0 entries, a y-constant stack, and a random
    stack whose last layer is zero, as u2 of the sine benchmark is."""
    a = rng.standard_normal(lead + g.shape)
    a[..., 0, 0] = a[..., -1, 1] = -0.0
    y_constant = np.repeat(rng.standard_normal(lead + (1, g.K)), g.J, axis=-2)
    zero_layer = rng.standard_normal(lead + g.shape)
    zero_layer.reshape((-1,) + g.shape)[-1] = 0.0
    return [a, y_constant, zero_layer]


def kernel_digests() -> dict:
    groups = {}

    def feed(name, *arrays):
        _feed(groups.setdefault(name, hashlib.sha256()), *arrays)

    rng = np.random.default_rng(2022)
    for k, j in GRIDS:
        for alpha in ALPHAS:
            g = GridSpec(k, j, alpha)
            for lead in [(), (2,)]:
                inputs = _inputs(g, lead, rng)
                # A split plan has no stencil methods, since no package path
                # runs a stencil on a split stack.
                stencils = not lead or k * j < grid_module._SPLIT_POINTS
                for a in inputs:
                    if stencils:
                        f = FieldPair.from_arrays(g, *a) if lead else ScalarField(g, a)
                        feed("stencils", d1x(f).values, d1y(f).values, d2(f).values)
                    feed("apply_q", _apply_q_arr(a, g))
                    feed("solve", _solve_q_stack_arr(a, g))
                    u, rel = _solve_q_checked(a, g)
                    feed("solve_checked", u, rel)
                if not lead:
                    continue
                for m in inputs:
                    for v in inputs + [np.zeros_like(m)]:
                        feed("bracket", _gamma_arrays(m, v, g))
                a, b, c = inputs
                for x, y in [(a, b), (b, c), (c, a), (a, a)]:
                    feed("corrector_norms", _corrector_norms(x, y, g))
                pairs = [FieldPair.from_arrays(g, *x) for x in (a, b, c, a)]
                feed("two_level_energy", _two_level_energy(*pairs),
                     _two_level_energy(*reversed(pairs)))
    return {name: h.hexdigest() for name, h in groups.items()}


def run_digests() -> dict:
    """One group per (profile, label, bootstrap): the rows but their wall
    clock, the snapshots and the final (u, m) of a six-step run."""
    sine = GridSpec(20, 20, 1.0)
    plate = GridSpec(32, 32, default_spec(FrontKind.PLATE).sigma)
    profiles = {
        "sine20": (sine_profile(sine), sine.dx**2),
        "plate32": (wavefront_profile(default_spec(FrontKind.PLATE), plate), plate.dx / 4),
    }
    groups = {}
    for profile, (initial, dt) in profiles.items():
        for label in LABELS:
            for bootstrap in BootstrapKind:
                if label == "rk4" and bootstrap is not BootstrapKind.RK4:
                    continue
                cfg = parse_scheme_label(label).build(dt, bootstrap)
                rec = integrate(initial, cfg, initial.t + STEPS * dt, snapshot_every=2)
                h = hashlib.sha256()
                rows = [
                    (r.step, r.t, r.energy, r.momentum_x, r.momentum_y, r.corrector_iters)
                    for r in rec.series
                ]
                _feed(h, rows)
                for t, u in rec.snapshots:
                    _feed(h, t, u.values)
                final = rec.states_tail[-1]
                _feed(h, final.u.values, final.m.values)
                groups[f"{profile}/{label}/{bootstrap.value}"] = h.hexdigest()
    return groups


def cli_digest(out: Path) -> str:
    """The files of a small ``epdiff run`` with snapshots: every file but
    the wall-clock column of each ``invariants.csv``."""
    code = main([
        "run", "--grid", "24x16", "--scheme", "scheme1,scheme2,scheme3,rk4",
        "--dt-dx-ratio", "0.25", "--t-final", str(5 * 0.25 * 2 / 24),
        "--snapshot-every", "2", "--out", str(out),
    ])
    assert code == 0
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        if path.name == "invariants.csv":
            for line in path.read_text().splitlines():
                h.update(line.rsplit(",", 1)[0].encode() + b"\n")
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def all_digests(out: Path) -> dict:
    return {
        **{f"kernel/{k}": v for k, v in kernel_digests().items()},
        **{f"integrate/{k}": v for k, v in run_digests().items()},
        "cli/run": cli_digest(out),
    }


def test_outputs_keep_their_recorded_bits(tmp_path):
    record = json.loads(RECORD.read_text())
    made_on = (record["numpy"], record["platform"])
    if made_on != (np.__version__, _platform()):
        pytest.skip(
            f"digests made with numpy {made_on[0]} on {made_on[1]}; the bits rest "
            "on numpy's FFT and reduction order"
        )
    found = all_digests(tmp_path / "run")
    assert sorted(found) == sorted(record["digests"])
    moved = sorted(name for name, digest in record["digests"].items() if found[name] != digest)
    assert not moved, f"groups whose bits moved: {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = all_digests(Path(tmp) / "run")
    record = {"numpy": np.__version__, "platform": _platform(), "digests": digests}
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
