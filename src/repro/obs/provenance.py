"""Run provenance: config hashing and the run manifest.

A :class:`RunManifest` pins down everything needed to reproduce a
traced run — the configuration hash, seed, package version, git
revision, Python/NumPy versions, and wall time — and serialises to
``manifest.json`` next to the trace.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # import would cycle (sim.engine -> obs) at runtime
    from repro.sim.config import SimConfig

__all__ = [
    "config_hash",
    "git_revision",
    "tree_revision",
    "short_revision",
    "RunManifest",
    "build_manifest",
]


def _canonical(value: Any) -> Any:
    """Deterministic, JSON-friendly view of a config field."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return repr(value)  # keeps inf/nan and full precision stable
    # Model objects (signal models, radio profiles) hash by repr.
    return repr(value)


def config_hash(config: SimConfig) -> str:
    """Stable SHA-256 over the config's canonical field values.

    Two configs hash equal iff every field (including nested dataclass
    fields such as the radio profile) compares equal canonically.
    """
    payload = json.dumps(_canonical(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _git(repo_dir: str | Path, *args: str) -> bytes | None:
    """``git <args>`` run in ``repo_dir``: its stdout, or ``None`` on failure."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=str(repo_dir),
            capture_output=True,
            timeout=30,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def git_revision(repo_dir: str | Path | None = None) -> str | None:
    """The current git commit hash, or ``None`` outside a checkout."""
    if repo_dir is None:
        repo_dir = Path(__file__).resolve().parent
    out = _git(repo_dir, "rev-parse", "HEAD")
    rev = out.decode().strip() if out is not None else ""
    return rev or None


def tree_revision(repo_dir: str | Path | None = None) -> str | None:
    """:func:`git_revision`, marked when the working tree differs from it.

    The tree is dirty when tracked files differ from ``HEAD`` or when
    files that are neither tracked nor ignored exist. It then reads
    ``<rev>+dirty:<h>``, where ``h`` is the first 12 hex digits of a
    SHA-256 over ``git diff HEAD`` followed by each untracked file's path
    and contents (with no untracked files, of ``git diff HEAD`` alone), so
    two different uncommitted changes on one commit stamp different
    revisions.
    """
    if repo_dir is None:
        repo_dir = Path(__file__).resolve().parent
    rev = git_revision(repo_dir)
    top = _git(repo_dir, "rev-parse", "--show-toplevel")
    if rev is None or top is None:
        return rev
    root = Path(top.decode().strip())
    diff = _git(root, "diff", "HEAD")
    untracked = _git(root, "ls-files", "--others", "--exclude-standard", "-z")
    if diff is None or untracked is None:
        return rev
    names = sorted(name for name in untracked.split(b"\0") if name)
    if not diff and not names:
        return rev
    digest = hashlib.sha256(diff)
    for name in names:
        digest.update(b"\0" + name + b"\0")
        try:
            digest.update((root / os.fsdecode(name)).read_bytes())
        except OSError:
            pass
    return f"{rev}+dirty:{digest.hexdigest()[:12]}"


def short_revision(rev: str | None) -> str:
    """A revision for display: 12 hex digits, any dirty mark kept."""
    if rev is None:
        return "unknown"
    head, sep, dirty = rev.partition("+")
    return head[:12] + sep + dirty


@dataclass
class RunManifest:
    """Reproducibility record of one traced run."""

    #: SHA-256 of the canonical config (see :func:`config_hash`).
    config_hash: str
    seed: int
    n_users: int
    n_slots: int
    package_version: str
    git_rev: str | None
    python_version: str
    numpy_version: str
    platform: str
    #: Unix timestamp at manifest creation.
    created_at: float
    #: Wall-clock duration of the run, seconds (None until recorded).
    wall_time_s: float | None = None
    #: Kernel dispatch backend the run resolved to
    #: (``numpy``/``numba``/``python``; see :mod:`repro.kernels`).
    kernel_backend: str | None = None
    #: Numba version when importable (backends other than numba still
    #: record it — it documents what *could* have run).
    numba_version: str | None = None
    #: Per-kernel JIT compile times, seconds (empty off the numba
    #: backend or before any kernel was compiled).
    kernel_compile_times_s: dict[str, float] = field(default_factory=dict)
    #: SLO rules a live telemetry plane guarded the run with, and what
    #: a firing rule did (``warn``/``abort``) — empty/None when no live
    #: plane with a watchdog was ambient.  Knowing which online
    #: constraints a result was produced under is provenance: an
    #: ``action="abort"`` run that completed *proves* the rules held.
    live_slo_rules: tuple[str, ...] = ()
    live_slo_action: str | None = None
    #: Free-form extras (experiment id, scale, trace event count, ...).
    extra: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


def build_manifest(config: SimConfig, **extra: Any) -> RunManifest:
    """Assemble a :class:`RunManifest` for ``config``.

    Keyword arguments land in :attr:`RunManifest.extra` verbatim.  The
    kernel-backend fields are captured automatically from the ambient
    :func:`repro.kernels.backend_info`, and the SLO rules of an
    ambient live telemetry plane (if one is installed via
    :func:`~repro.obs.instrument.use_instrumentation`) are recorded the
    same way, so every manifest documents both which compiled path and
    which online constraints produced the run.
    """
    from repro import __version__
    from repro.kernels import backend_info, use_backend
    from repro.obs.instrument import current_instrumentation

    slo_rules: tuple[str, ...] = ()
    slo_action = None
    ambient = current_instrumentation()
    live = ambient.live if ambient is not None else None
    if live is not None and live.watchdog is not None:
        watchdog_spec = live.watchdog.spec()
        slo_rules = tuple(watchdog_spec["rules"])
        slo_action = watchdog_spec["action"]

    if config.kernel_backend is not None:
        # Resolve under the config's backend (handles the numba-missing
        # fallback) rather than trusting the requested name.
        with use_backend(config.kernel_backend):
            kinfo = backend_info()
    else:
        kinfo = backend_info()
    return RunManifest(
        config_hash=config_hash(config),
        seed=config.seed,
        n_users=config.n_users,
        n_slots=config.n_slots,
        package_version=__version__,
        git_rev=git_revision(),
        python_version=sys.version.split()[0],
        numpy_version=np.__version__,
        platform=platform.platform(),
        created_at=time.time(),
        kernel_backend=kinfo["resolved"],
        numba_version=kinfo["numba_version"],
        kernel_compile_times_s=dict(kinfo["compile_times_s"]),
        live_slo_rules=slo_rules,
        live_slo_action=slo_action,
        extra=dict(extra),
    )
