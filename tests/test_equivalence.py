import importlib.util
import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"
_spec = importlib.util.spec_from_file_location("equivalence", _TOOL)
equivalence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equivalence)

_REPORT = {
    "kind": "rode",
    "scalars": {"distance": 0.1234567890123, "mean_operator_norm": 0.99},
    "checks": [{"name": "mean_contraction", "lhs": 0.99, "rhs": 1.000000001, "holds": True}],
}
_CSV = "index,distance_to_mean,noise_integral\n0,0.25,3.5\n1,0.5,3.5\n"


def _tree(root: Path, report: dict, csv: str) -> Path:
    (root / "ensemble-s0").mkdir(parents=True)
    (root / "ensemble-s0" / "000-rode.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    (root / "ensemble-s0" / "000-rode_trajectories.csv").write_text(csv)
    (root / "exit_codes.txt").write_text("ensemble-s0/000-rode 0\n")
    return root


def test_equal_trees_compare_equal(tmp_path, capsys):
    a = _tree(tmp_path / "a", _REPORT, _CSV)
    b = tmp_path / "b"
    shutil.copytree(a, b)
    assert equivalence.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "3 of 3 files byte-equal, 0 moved, 0 in one tree only\n"


def test_one_ulp_in_one_scalar_is_named_with_its_drift(tmp_path, capsys):
    x = _REPORT["scalars"]["distance"]
    moved = json.loads(json.dumps(_REPORT))
    moved["scalars"]["distance"] = math.nextafter(x, 1.0)
    a = _tree(tmp_path / "a", _REPORT, _CSV)
    b = _tree(tmp_path / "b", moved, _CSV)
    assert equivalence.main(["compare", str(a), str(b)]) == 1
    ulp = math.ulp(x)
    assert capsys.readouterr().out == (
        "2 of 3 files byte-equal, 1 moved, 0 in one tree only\n"
        "largest drift per kind and scalar (relative, absolute, values moved):\n"
        f"  rode scalars.distance: {ulp / math.nextafter(x, 1.0):.3e} {ulp:.3e} 1\n"
    )


def test_csv_columns_and_other_differences_are_reported(tmp_path, capsys):
    report = json.loads(json.dumps(_REPORT))
    report["checks"][0]["holds"] = False
    a = _tree(tmp_path / "a", _REPORT, _CSV)
    b = _tree(tmp_path / "b", report, _CSV.replace("0,0.25,3.5", "0,0.25,3.75"))
    (b / "exit_codes.txt").write_text("ensemble-s0/000-rode 1\n")
    (b / "extra.json").write_text("{}")
    assert equivalence.compare(a, b) == 1
    out = capsys.readouterr().out
    assert out.startswith("0 of 3 files byte-equal, 3 moved, 1 in one tree only\n")
    assert f"  rode_trajectories csv:noise_integral: {0.25 / 3.75:.3e} 2.500e-01 1\n" in out
    assert "csv:distance_to_mean" not in out
    assert "ensemble-s0/000-rode.json: checks.mean_contraction.holds: True -> False" in out
    assert "exit_codes.txt: contents differ" in out
    assert f"extra.json: only in {b}" in out


def test_compare_refuses_a_missing_directory(tmp_path):
    with pytest.raises(SystemExit):
        equivalence.main(["compare", str(tmp_path), str(tmp_path / "missing")])


def _one_commit_repo(repo: Path):
    """A git repository at repo whose one commit holds src/marker.py; returns
    a function that runs git there and returns its output."""
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "marker.py").write_text("")

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args], check=True,
                              capture_output=True, text=True).stdout

    git("init", "-q")
    git("add", "-A")
    git("-c", "user.name=test", "-c", "user.email=test@example.com", "commit", "-qm", "one")
    return git


def test_base_removes_its_worktree_when_a_run_raises(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    git = _one_commit_repo(repo)
    before = git("worktree", "list")
    runs = []

    def raising(src, configs, out):
        runs.append(src)
        assert (src / "marker.py").is_file()  # the checked-out revision
        raise RuntimeError("run failed")

    monkeypatch.setattr(equivalence, "ROOT", repo)
    monkeypatch.setattr(equivalence, "_write_configs", lambda configs: None)
    monkeypatch.setattr(equivalence, "_run_tree", raising)
    with pytest.raises(RuntimeError, match="run failed"):
        equivalence.main(["base", "HEAD"])
    assert len(runs) == 1
    assert git("worktree", "list") == before
    assert not runs[0].parent.parent.exists()  # the temporary directory is gone too


def test_base_refuses_an_unknown_revision_in_one_line(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    git = _one_commit_repo(repo)
    before = git("worktree", "list")
    monkeypatch.setattr(equivalence, "ROOT", repo)
    monkeypatch.setattr(equivalence, "_run_tree", lambda *args: pytest.fail("a tree ran"))
    assert equivalence.main(["base", "no-such-rev"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "equivalence: unknown revision 'no-such-rev'\n"
    assert git("worktree", "list") == before
