"""Where the benchmark runs: checkout root, ``repro`` import, scratch space."""

from __future__ import annotations

import contextlib
import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Iterator

#: the checkout the benchmark lives in (``perfbench/``'s parent)
ROOT = Path(__file__).resolve().parent.parent
#: scratch space for cache directories; inside the checkout because the
#: benchmark contract forbids writing outside it (listed in ``.gitignore``)
SCRATCH = ROOT / ".perfbench_tmp"


def ensure_repro() -> None:
    """Make ``repro`` importable, from ``src/`` when it is not installed."""
    try:
        importlib.import_module("repro")
        return
    except ImportError:
        pass
    sys.path.insert(0, str(ROOT / "src"))
    try:
        importlib.import_module("repro")
    except ImportError:
        raise SystemExit(
            f"perfbench: cannot import 'repro' (looked in sys.path and "
            f"{ROOT / 'src'}); run from a checkout of the repository"
        ) from None


def load_spec() -> dict:
    """``BENCHMARK.json``: the registry of workload and metric names."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under :data:`SCRATCH`, removed on exit either way."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only succeeds once the last user is gone
