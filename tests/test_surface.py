"""The public surface: the names the package exports, the names the
benchmark's tracer wraps, the modules an import loads, and the demos
that show the package in use."""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adreject
from adreject import bench

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    missing = [name for name in adreject.__all__ if not hasattr(adreject, name)]
    assert missing == []
    assert len(set(adreject.__all__)) == len(adreject.__all__)


def test_every_traced_binding_resolves():
    missing = [
        f"{mod_name}.{name}"
        for mod_name, names in _load_spans().WRAPS.items()
        for name in names
        if not callable(getattr(importlib.import_module(mod_name), name, None))
    ]
    assert missing == []


def test_every_benchmark_only_import_is_traced():
    # An import kept only for the tracer must name a binding it wraps, so
    # the names that wait on a benchmark change are listed in WRAPS alone.
    marker = re.compile(r"^\s*(\w+),\s*# noqa: F401 -- perfbench/spans\.py")
    wraps = _load_spans().WRAPS
    kept = [
        (f"adreject.{path.stem}", m.group(1))
        for path in sorted((ROOT / "src" / "adreject").glob("*.py"))
        for m in map(marker.match, path.read_text().splitlines())
        if m
    ]
    assert [(mod, name) for mod, name in kept if name not in wraps.get(mod, ())] == []


def test_research_loop_fits_each_rejector_inside_run_trial(monkeypatch):
    # The tracer reads rejector fits under ``adreject.bench.run_trial`` as
    # ``bench.fits_per_fold``, so the loop must go through that binding:
    # one call per (dataset, kind, fold), and every fit inside one.
    real_trial, real_fit = bench.run_trial, bench.fit
    signature = inspect.signature(real_trial)
    cells, fit_depths, depth = [], [], [0]

    def counted_trial(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        cells.append((bound["dataset"].name, bound["detector_name"], bound["fold"]))
        depth[0] += 1
        try:
            return real_trial(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_fit(*args, **kwargs):
        fit_depths.append(depth[0])
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(bench, "run_trial", counted_trial)
    monkeypatch.setattr(bench, "fit", counted_fit)
    rng = np.random.default_rng(3)
    labels = np.r_[np.zeros(108, int), np.ones(12, int)]
    datasets = [
        bench.Dataset(name=name, X=rng.normal(size=(120, 2)) + 3.0 * labels[:, None],
                      labels=labels, gamma=0.1)
        for name in ("a", "b")
    ]
    results = bench.run_benchmark(datasets, detector_kinds=("hbos", "knn"), T=8.0,
                                  n_folds=3)
    expected = [(d, k, f) for d in ("a", "b") for k in ("hbos", "knn") for f in range(3)]
    assert sorted(cells) == expected
    assert fit_depths == [1] * len(expected)
    assert len(results) == len(expected) * len(bench.METHODS)


_IMPORT_PROBE = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
import numpy as np
import adreject, adreject.cli
from adreject import DetectorSpec, fit_detector

MODULES = ("scipy.stats", "scipy.spatial", "multiprocessing", "concurrent.futures.process")

def loaded():
    return {name: name in sys.modules for name in MODULES}

steps = {"import": loaded()}
X = np.random.default_rng(0).normal(size=(50, 3))
for kind in ("iforest", "hbos"):
    fit_detector(DetectorSpec(kind=kind), X).score(X)
steps["iforest+hbos"] = loaded()
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    data, model = Path(tmp, "x.csv"), Path(tmp, "model.json")
    rows = "".join(",".join(map(repr, row)) + "\\n" for row in X.tolist())
    data.write_text("a,b,c\\n" + rows)
    codes = [adreject.cli.main(["fit", "--train", str(data), "--gamma", "0.1",
                                "--detector", "iforest", "--model-out", str(model)]),
             adreject.cli.main(["predict", "--model", str(model), "--test", str(data)])]
steps["cli"] = {"codes": codes, **loaded()}
fit_detector(DetectorSpec(kind="knn"), X).score(X)
steps["knn"] = loaded()
print(json.dumps(steps))
"""


def test_imports_load_no_stats_and_spatial_only_for_a_kd_tree():
    # Nor the process pool: only the research loop's fold fits use it.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    none = {"scipy.stats": False, "scipy.spatial": False, "multiprocessing": False,
            "concurrent.futures.process": False}
    assert steps["import"] == none
    assert steps["iforest+hbos"] == none
    assert steps["cli"] == {"codes": [0, 0], **none}
    assert steps["knn"] == {**none, "scipy.spatial": True}


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        cwd=tmp_path, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
