"""Transform, propagator, derivative, and norm checks against closed forms."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pickle
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import modwave
from modwave import (
    FrequencyField,
    PhysicalField,
    SpectralGrid,
    forward_transform,
    free_propagate,
    inverse_transform,
    norms,
)
from modwave.spectral import _from_wave, _propagator, _to_wave, _xt_weights


@pytest.fixture
def grid():
    return SpectralGrid(1024, 80.0)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.num_points) + 1j * rng.standard_normal(grid.num_points)
    return PhysicalField(grid, vals)


def test_grid_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        SpectralGrid(1000, 80.0)


def test_grid_rejects_bad_box():
    with pytest.raises(ValueError, match="box_length"):
        SpectralGrid(64, -1.0)


def test_grid_spacings(grid):
    assert grid.dx == pytest.approx(80.0 / 1024)
    assert grid.dxi == pytest.approx(2.0 * np.pi / 80.0)
    # FFT order: x = 0 and xi = 0 first, and the nodes are the increasing
    # grids (k - N/2) * spacing rotated by N/2, bit for bit
    assert grid.x[0] == grid.frequencies[0] == 0.0
    k = np.arange(grid.num_points) - grid.num_points // 2
    assert np.array_equal(np.fft.fftshift(grid.x), k * grid.dx)
    assert np.array_equal(np.fft.fftshift(grid.frequencies), k * grid.dxi)


def test_grid_nodes_are_built_once_and_read_only(grid):
    assert grid.x is grid.x
    assert grid.frequencies is grid.frequencies
    for nodes in (grid.x, grid.frequencies):
        with pytest.raises(ValueError, match="read-only"):
            nodes[1] = 0.0
    # pool workers receive grids by pickle: the copy is the same grid, and
    # its nodes are rebuilt, equal and again read-only
    copy = pickle.loads(pickle.dumps(grid))
    assert copy == grid
    assert hash(copy) == hash(grid)
    assert np.array_equal(copy.frequencies, grid.frequencies)
    assert not copy.frequencies.flags.writeable


def _naming_lines(pattern, owners):
    """The package's source lines, outside the owner modules, that match pattern."""
    sources = sorted(Path(modwave.__file__).parent.glob("*.py"))
    assert set(owners) <= {path.name for path in sources}
    return [f"{path.name}:{n}" for path in sources if path.name not in owners
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)]


def test_only_spectral_knows_the_array_layout():
    # every other module works on arrays in the one layout the grid defines
    assert _naming_lines(r"fftshift|ifftshift|native_frequencies", {"spectral.py"}) == []


def test_only_spectral_steps_into_the_wave():
    # every step into and out of the wave goes through _to_wave / _from_wave,
    # and every step onto the rays through _on_rays
    assert _naming_lines(r"\b_i?fft\(", {"spectral.py"}) == []


def test_only_verify_spectral_chains_the_field_functions_into_the_wave():
    # production enters the wave through _to_wave; only verify-spectral, which
    # checks the public field functions themselves, chains them there
    lines, first = inspect.getsourcelines(
        importlib.import_module("modwave.campaigns").run_verify_spectral)
    pattern = r"inverse_transform\(free_propagate\("
    allowed = [f"campaigns.py:{n}" for n, line in enumerate(lines, first)
               if re.search(pattern, line)]
    assert allowed
    assert _naming_lines(pattern, {"spectral.py"}) == allowed


def test_only_the_references_call_numpy_fft():
    # outside spectral, numpy's own transforms sit only in the two independent
    # references, Strang's drift and the oracle's raw double integral
    pattern, allowed = r"\bnp\.fft\b", []
    for module, name in (("evolve", "_strang"), ("trilinear", "_oracle_raw")):
        lines, first = inspect.getsourcelines(
            getattr(importlib.import_module(f"modwave.{module}"), name))
        allowed += [f"{module}.py:{n}" for n, line in enumerate(lines, first)
                    if re.search(pattern, line)]
    assert _naming_lines(pattern, {"spectral.py"}) == allowed


def test_only_spectral_and_the_drive_know_the_head_table():
    # the half-width propagator rows are spectral's layout, tabulated by the
    # drive alone; every other caller hands the kernels full rows U(s)
    pattern = r"\b(_mirrored|_propagator_head|_head_width)\b"
    assert _naming_lines(pattern, {"spectral.py", "fixedpoint.py"}) == []


def test_every_all_entry_exists():
    # nothing runs `import *`, so a stale __all__ entry would go unnoticed
    names = [info.name for info in pkgutil.iter_modules(modwave.__path__)]
    assert "fixedpoint" in names
    stale = [f"{name}.{entry}" for name in names
             for module in [importlib.import_module(f"modwave.{name}")]
             for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert stale == []


def _production_reads(tree):
    """Names loaded and attributes read in tree, outside annotations."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    skip = {id(sub) for ann in annotations for sub in ast.walk(ann)}
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
             and isinstance(node.ctx, ast.Load) and id(node) not in skip}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and isinstance(node.ctx, ast.Load) and id(node) not in skip})


def test_every_public_name_has_a_production_reader():
    # a public name only tests read is surface to keep for nothing; the
    # package __init__ imports only to re-export, so it reads nothing
    sources = [path for path in Path(modwave.__file__).parent.glob("*.py")
               if path.name != "__init__.py"]
    read = set().union(*(_production_reads(ast.parse(path.read_text())) for path in sources))
    unread = [f"{path.stem}.{entry}" for path in sorted(sources)
              for entry in getattr(importlib.import_module(f"modwave.{path.stem}"), "__all__", ())
              if entry not in read]
    assert unread == []


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # a name re-exported through __all__ counts as read
    read |= {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
             for elt in node.value.elts}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


BENCHMARKS = Path(__file__).parents[1] / "benchmarks"


def test_no_unused_imports():
    # no linter runs, so an import a change leaves behind would go unnoticed;
    # the package __init__ imports only to re-export
    sources = [*Path(modwave.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py"),
               *BENCHMARKS.glob("*.py")]
    sources = [path for path in sources if path.name != "__init__.py"]
    assert {"campaigns.py", "test_spectral.py", "record_bench.py"} <= {p.name for p in sources}
    assert [line for path in sorted(sources) for line in _unused_imports(path)] == []


def test_bench_imports_exist():
    # the suite never runs the bench harness, so a rename in modwave would
    # otherwise first break the next bench record
    tree = ast.parse((BENCHMARKS / "record_bench.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.partition(".")[0] == "modwave" for alias in node.names]
    assert {"modwave", "modwave.spectral", "modwave.trilinear"} <= {m for m, _ in imported}
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_same_results_ignores_only_the_run_record(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # it imports record_bench by name
    same = importlib.import_module("same_results")
    outs = [tmp_path / "parent", tmp_path / "change"]
    for out, stamp in zip(outs, ("a", "b")):
        out.mkdir()
        (out / "results.json").write_text(json.dumps(
            {"checks": [1.0], "timestamp": stamp, "timings": {"wall_s": stamp},
             "provenance": {"git_sha": stamp}}))
        (out / "run_series.csv").write_text("t,value\n1,2\n")
    assert same._differences(outs, [0, 0]) == []
    assert same._differences(outs, [0, 1]) == ["exit codes 0 and 1"]
    (outs[1] / "run_series.csv").write_text("t,value\n1,2.0\n")
    assert same._differences(outs, [0, 0]) == ["run_series.csv"]
    (outs[1] / "results.json").write_text(json.dumps({"checks": [1.5]}))
    assert same._differences(outs, [0, 0]) == ["results.json", "run_series.csv"]


def _record_bench():
    spec = importlib.util.spec_from_file_location("record_bench", BENCHMARKS / "record_bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_counts_set_one_worker(monkeypatch, capsys):
    # --counts wraps the functions it counts in its own process, which pool
    # workers never see, so it must run the campaign serially
    bench = _record_bench()
    monkeypatch.setenv("MODWAVE_THREADS", "0")  # restored after the test
    monkeypatch.setattr(bench, "work_counts", lambda campaign: os.environ["MODWAVE_THREADS"])
    monkeypatch.setattr(sys, "argv", ["record_bench.py", "--counts", "construct"])
    assert bench.main() == 0
    assert json.loads(capsys.readouterr().out) == "1"


def test_bench_runs_start_without_openblas_threads(monkeypatch, tmp_path):
    # a value set in the calling shell would override what each checkout sets
    # itself, so every run starts without it, and the record says so
    bench = _record_bench()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")  # restored after the test
    seen = []

    def observed(result):
        def run(*args):
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
            return result
        return run

    monkeypatch.setattr(bench, "_git_sha", lambda root: "sha")
    monkeypatch.setattr(bench, "_perfbench_run", lambda root, label: None)
    monkeypatch.setattr(bench, "_campaign_run", observed(dict.fromkeys(bench.E2E + bench.CPU_SPLIT, 1.0)))
    monkeypatch.setattr(bench, "_suite_run", observed((1.0, "1 passed")))
    monkeypatch.setattr(bench, "_in_checkout", observed({}))
    record = bench.record({"change": tmp_path}, 1)
    assert len(seen) == len(bench.CAMPAIGNS) + 2 + len(bench.COUNTED)
    assert set(seen) == {None}
    assert record["provenance"]["unset_in_runs"] == {"OPENBLAS_NUM_THREADS": "4"}


def test_bench_pairs_count_the_second_checkouts_wins():
    # repeat by repeat, a lower sample of the second checkout is a win; a tie
    # counts for neither side, and the counts nest as the samples do
    second_lower = _record_bench()._second_lower
    first = {"layers_s": {"a": [3.0, 2.0, 5.0], "b": [1.0, 1.0, 1.0]}, "suite": [4.0, 4.0, 4.0]}
    second = {"layers_s": {"a": [2.0, 2.0, 6.0], "b": [0.5, 0.9, 0.1]}, "suite": [5.0, 4.0, 6.0]}
    assert second_lower(first, second) == {"layers_s": {"a": 1, "b": 3}, "suite": 0}
    assert second_lower(second, first) == {"layers_s": {"a": 1, "b": 0}, "suite": 2}
    with pytest.raises(ValueError):  # the samples pair by repeat
        second_lower([1.0, 2.0], [1.0])


def test_bench_record_pairs_two_checkouts(monkeypatch, tmp_path):
    # two checkouts, whose samples the stubs make differ: the second reads
    # lower on every campaign metric and layer, and ties on the suite
    bench = _record_bench()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # record unsets it; restored after the test
    monkeypatch.setattr(bench, "_git_sha", lambda root: "sha")
    monkeypatch.setattr(bench, "_perfbench_run", lambda root, label: label)
    monkeypatch.setattr(bench, "_campaign_run", lambda run, campaign, cfg: dict.fromkeys(
        bench.E2E + bench.CPU_SPLIT, 2.0 if run == "parent" else 1.0))
    monkeypatch.setattr(bench, "_suite_run", lambda root: (1.0, "1 passed"))
    monkeypatch.setattr(bench, "_in_checkout", lambda root, *args: (
        {"layer": {"median": 2.0 if root.name == "parent" else 1.0}} if "--layers" in args
        else {}))
    checkouts = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    pairs = bench.record(checkouts, 3)["pairs"]
    assert (pairs["first"], pairs["second"]) == ("parent", "change")
    lower = pairs["second_lower"]
    assert lower["campaigns_default_config"] == {
        c: dict.fromkeys(bench.E2E + bench.CPU_SPLIT, 3) for c in bench.CAMPAIGNS}
    assert lower["tier1_suite_wall_s"] == 0
    assert lower["layers_s"] == {"layer": 3}
    assert "pairs" not in bench.record({"change": tmp_path / "change"}, 1)


def test_bench_summary_records_quartiles():
    summary = _record_bench()._summary
    samples = [3.0, 1.0, 2.0, 5.0, 4.0]
    assert summary(samples) == {"median": 3.0, "min": 1.0, "q1": 1.5, "q3": 4.5,
                                "samples": samples}
    assert summary([2.0]) == {"median": 2.0, "min": 2.0, "samples": [2.0]}  # no spread


def test_field_rejects_wrong_length(grid):
    with pytest.raises(ValueError, match="length"):
        PhysicalField(grid, np.zeros(7))


def test_field_rejects_non_finite(grid):
    vals = np.zeros(grid.num_points, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        PhysicalField(grid, vals)
    with pytest.raises(ValueError, match="finite"):
        free_propagate(FrequencyField(grid, np.zeros(grid.num_points, complex)), np.inf)


def test_gaussian_transform_closed_form(grid):
    # hat of e^{-x^2/2} is sqrt(2 pi) e^{-xi^2/2}
    x = grid.x
    F = forward_transform(PhysicalField(grid, np.exp(-0.5 * x * x) + 0.0j))
    xi = grid.frequencies
    exact = np.sqrt(2.0 * np.pi) * np.exp(-0.5 * xi * xi)
    assert np.max(np.abs(F.values - exact)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 8, 64, 4096])
def test_propagator_mirrored_half_matches_dense_phase(n):
    # only the columns 0..N/2 are evaluated; the mirrored rest must hold the
    # very values the phase gives there
    g = SpectralGrid(n, 200.0)
    xi = g.frequencies
    for t in (0.0, 0.37, -3.0, 1e5, np.geomspace(1e-3, 1e5, 33), [-1e5, -7.5, 0.0, 2.0]):
        dense = np.exp(-0.5j * np.asarray(t, dtype=float)[..., None] * xi * xi)
        got = _propagator(g, t)
        assert got.shape == dense.shape
        assert np.array_equal(got, dense)


@pytest.mark.parametrize("s", [0.7, [0.3, 1.0, 4.0, 25.0]])
def test_wave_pair_is_the_free_flow(grid, s):
    # _to_wave is U(s) in x-space, on one row or a 4-row block, bit for bit
    # the field route; _from_wave steps back
    times = np.atleast_1d(s)
    rows = [forward_transform(random_field(grid, seed=k)).values for k in range(times.size)]
    a = np.stack(rows) if np.ndim(s) else rows[0]
    prop = _propagator(grid, s)
    wave = _to_wave(a, prop, grid)
    ref = [inverse_transform(free_propagate(FrequencyField(grid, row), t)).values
           for row, t in zip(rows, times)]
    assert np.array_equal(np.atleast_2d(wave), ref)
    back = _from_wave(wave, prop, grid)
    assert np.max(np.abs(back - a)) <= 1e-14 * np.max(np.abs(a))


def test_propagator_inverse(grid):
    F = forward_transform(random_field(grid, seed=6))
    back = free_propagate(free_propagate(F, 4.0), -4.0)
    assert np.max(np.abs(back.values - F.values)) <= 1e-12 * np.max(np.abs(F.values))


def test_norms_gaussian_closed_form(grid):
    # e^{-(xi-a)^2 + i b xi}: ||.||_L2 = (pi/2)^{1/4}, its derivative norms
    # (pi/2)^{1/4} sqrt(1+b^2) and, for H2, (pi/2)^{1/4} sqrt(b^4+7b^2+5).
    # They go through Plancherel, exact for the trigonometric interpolant, so
    # only the Gaussian's tails beyond the grid are left out.
    xi = grid.frequencies
    root = (np.pi / 2.0) ** 0.25
    for a, b in [(0.0, 0.0), (1.5, 0.0), (0.0, 6.0), (-2.0, -9.0)]:
        n = norms(FrequencyField(grid, np.exp(-((xi - a) ** 2) + 1j * b * xi)))
        # the peak at xi = a is within dxi/2 of a node
        assert np.exp(-(grid.dxi**2) / 4.0) <= n.linf <= 1.0, (a, b)
        assert n.l2 == pytest.approx(root, rel=1e-10), (a, b)
        assert n.dxi_l2 == pytest.approx(root * np.sqrt(1.0 + b**2), rel=1e-12), (a, b)
        assert n.h2 == pytest.approx(root * np.sqrt(b**4 + 7.0 * b**2 + 5.0), rel=1e-12), (a, b)


def test_xt_weight_formula(grid):
    xi = grid.frequencies
    F = FrequencyField(grid, np.exp(-(xi**2)))
    b = norms(F)
    t, alpha = 10.0, 0.1
    expected = t**alpha * (b.linf + b.l2 + b.dxi_l2 / (1.0 + np.log(t)))
    assert _xt_weights(t, F.values, alpha, grid) == pytest.approx(expected, rel=1e-14)
