"""Command-line entry point: exit codes, results schema, and determinism."""

import json
import os
import platform
import shutil
import subprocess

import numpy as np

from modwave import parse_config
from modwave.cli import CHECKOUT, _git_sha, main
from modwave.config import _KEYS

SMALL_SPECTRAL = "num_points = 512\nbox_length = 100\n"
SMALL_CONSTRUCT = (
    "num_points = 256\n"
    "box_length = 100\n"
    "time_grid_points = 33\n"
    "bandwidth = 0.4\n"
)


def _not_json(token):
    raise ValueError(f"{token} is not JSON")  # json.loads alone reads Infinity and NaN


def run_cli(tmp_path, campaign, config_text, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    code = main([campaign, "--config", str(cfg), "--out", str(out), *extra])
    results = out / "results.json"
    payload = None
    if results.exists():
        payload = json.loads(results.read_text(), parse_constant=_not_json)
    return code, payload, out


def test_verify_spectral_passes(tmp_path, capsys):
    code, payload, _ = run_cli(tmp_path, "verify-spectral", SMALL_SPECTRAL)
    assert code == 0
    assert payload["passed"] is True
    assert payload["schema_version"] == 3
    assert payload["campaign"] == "verify-spectral"
    names = {c["name"] for c in payload["checks"]}
    assert {"roundtrip_error", "plancherel_error"} <= names
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("PASS verify-spectral:roundtrip_error") for line in lines)


def test_results_carry_provenance(tmp_path):
    _, payload, _ = run_cli(tmp_path, "verify-spectral", SMALL_SPECTRAL)
    prov = payload["provenance"]
    assert prov["python"] == platform.python_version()
    assert prov["numpy"] == np.__version__
    # the variable, which modwave sets on import
    assert prov["openblas_num_threads_env"] == os.environ["OPENBLAS_NUM_THREADS"]
    assert "blas_threads" not in prov
    if not (CHECKOUT / ".git").exists():
        assert prov["git_sha"] == "unavailable"
    elif shutil.which("git"):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            assert prov["git_sha"] == head.stdout.strip()


def test_provenance_names_the_c_library(tmp_path, monkeypatch):
    _, payload, _ = run_cli(tmp_path / "here", "verify-spectral", SMALL_SPECTRAL)
    lib, version = platform.libc_ver()
    expected = f"glibc {version}" if lib == "glibc" else "unknown"
    assert payload["provenance"]["libc"] == expected

    def no_such_name(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "confstr", no_such_name)  # as on a C library other than glibc
    _, payload, _ = run_cli(tmp_path / "elsewhere", "verify-spectral", SMALL_SPECTRAL)
    assert payload["provenance"]["libc"] == "unknown"


def test_git_sha_read_from_checkout_files(tmp_path):
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    assert _git_sha(tmp_path) == "unavailable"  # no HEAD
    assert _git_sha(tmp_path / "elsewhere") == "unavailable"  # no .git
    detached, packed, loose = ("1" * 40, "2" * 40, "3" * 40)
    (git / "HEAD").write_text(detached + "\n")
    assert _git_sha(tmp_path) == detached
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert _git_sha(tmp_path) == "unavailable"  # a branch with no commit
    (git / "packed-refs").write_text(
        f"# pack-refs with: peeled fully-peeled sorted\n{'4' * 40} refs/heads/other\n"
        f"{packed} refs/heads/main\n")
    assert _git_sha(tmp_path) == packed
    (git / "refs" / "heads" / "main").write_text(loose + "\n")
    assert _git_sha(tmp_path) == loose


def test_construct_zero_data(tmp_path):
    code, payload, _ = run_cli(tmp_path, "construct", SMALL_CONSTRUCT + "eps0 = 0.0\n")
    assert code == 0
    assert payload["passed"] is True
    assert payload["params"]["eps0"] == 0.0


def test_construct_small_passes(tmp_path):
    code, payload, _ = run_cli(tmp_path, "construct", SMALL_CONSTRUCT)
    assert code == 0
    names = {c["name"] for c in payload["checks"]}
    assert any("converged" in n for n in names)
    assert [sorted(part) for part in payload["timings"]["parts"]] == [["cpu_s", "wall_s"]] * 2
    # the drive tails, unbounded on this box, are spelled as the CSVs spell them
    assert [payload["extras"][f"picard_report_{tag}"]["tail_estimate"]
            for tag in ("defocusing", "focusing")] == ["inf", "inf"]


def test_nonconvergence_exits_one(tmp_path, capsys):
    text = SMALL_CONSTRUCT + "tol = 1e-30\nmax_iter = 1\n"
    code, payload, _ = run_cli(tmp_path, "construct", text)
    assert code == 1
    assert payload["passed"] is False
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "checks"


def test_bad_config_exits_two(tmp_path, capsys):
    code, payload, _ = run_cli(tmp_path, "verify-spectral", "unknown_key = 1\n")
    assert code == 2
    assert payload is None
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "unknown key" in err["reason"]


def test_non_finite_config_value_exits_two(tmp_path, capsys):
    code, payload, _ = run_cli(tmp_path, "construct", SMALL_CONSTRUCT + "tol = nan\n")
    assert code == 2
    assert payload is None
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "tol" in err["reason"]


def test_missing_config_file_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["verify-spectral", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


def test_seed_override_recorded(tmp_path):
    code, payload, _ = run_cli(tmp_path, "verify-spectral", SMALL_SPECTRAL,
                               extra=["--seed", "42"])
    assert code == 0
    assert payload["seed"] == 42


def test_determinism(tmp_path):
    _, a, _ = run_cli(tmp_path / "a", "verify-spectral", SMALL_SPECTRAL)
    _, b, _ = run_cli(tmp_path / "b", "verify-spectral", SMALL_SPECTRAL)
    for payload in (a, b):  # the run's clock readings
        payload.pop("timestamp")
        payload.pop("timings")
    assert a == b


def test_params_echo_every_key_and_parse_back(tmp_path):
    text = SMALL_SPECTRAL + "fit_t_min = 20\ntol = 1e-10\neps0_values = 0.1, 0.2\n"
    code, payload, _ = run_cli(tmp_path, "verify-spectral", text, extra=["--seed", "7"])
    assert code == 0
    params = payload["params"]
    assert list(params) == sorted(_KEYS)  # one entry per key, sorted by the writer
    assert (params["seed"], params["fit_t_min"], params["fit_t_max"]) == (7, 20.0, 1000.0)

    # written back as perfbench/run.py's write_config writes a config
    def fmt(value):
        return ", ".join(map(repr, value)) if isinstance(value, list) else repr(value)

    written = "".join(f"{k} = {v if isinstance(v, str) else fmt(v)}\n"
                      for k, v in params.items())
    assert parse_config(written) == parse_config(text + "seed = 7\n")


def test_defaults_used_without_config(tmp_path):
    out = tmp_path / "out"
    code = main(["verify-spectral", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["params"]["num_points"] == 4096


def test_unwritable_out_exits_two(tmp_path, capsys):
    # --out below a regular file cannot be created: a runtime error, not a traceback
    blocker = tmp_path / "f"
    blocker.touch()
    code = main(["verify-spectral", "--out", str(blocker / "sub")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "runtime"
    assert "NotADirectoryError" in err["reason"]


def test_undecodable_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe")
    code = main(["verify-spectral", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert str(cfg) in err["reason"]


def test_git_sha_read_in_a_linked_worktree(tmp_path):
    # a worktree's .git is a file naming its own git dir, which holds HEAD
    # and names through commondir the main git dir, which holds the refs
    main_git = tmp_path / "main" / ".git"
    own = main_git / "worktrees" / "wt"
    own.mkdir(parents=True)
    (own / "commondir").write_text("../..\n")
    checkout = tmp_path / "wt"
    checkout.mkdir()
    (checkout / ".git").write_text(f"gitdir: {own}\n")
    detached, packed, loose = ("5" * 40, "6" * 40, "7" * 40)
    (own / "HEAD").write_text(detached + "\n")
    assert _git_sha(checkout) == detached
    (own / "HEAD").write_text("ref: refs/heads/feature\n")
    assert _git_sha(checkout) == "unavailable"  # a branch with no commit
    (main_git / "packed-refs").write_text(f"{packed} refs/heads/feature\n")
    assert _git_sha(checkout) == packed
    (main_git / "refs" / "heads").mkdir(parents=True)
    (main_git / "refs" / "heads" / "feature").write_text(loose + "\n")
    assert _git_sha(checkout) == loose
