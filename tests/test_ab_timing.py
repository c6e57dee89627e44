"""The script mode of ``ab_timing.py`` loads a checkout twice and builds the
benchmark's job groups in each copy, with ``w22`` bound to that copy, and
leaves ``sys.modules`` and ``sys.path`` as it found them."""

import inspect
import sys
from pathlib import Path

import pytest

import w22
from ab_timing import WORKLOADS, group_sizes, job_groups, load, main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def sides():
    modules, path = dict(sys.modules), list(sys.path)
    a, b = load(ROOT, "w22_a"), load(ROOT, "w22_b")
    return a, b, {p: job_groups(p) for p in (a, b)}, modules, path


def test_groups_line_up(sides):
    a, b, groups, *_ = sides
    assert group_sizes(groups[a]) == group_sizes(groups[b])
    assert {workload for workload, _, _ in groups[a]} == set(WORKLOADS)


def test_word_job_returns_its_own_sides_element(sides):
    a, b, groups, *_ = sides
    assert a.pbw.UEElement is not b.pbw.UEElement
    for p in (a, b):
        job = groups[p]["straighten", "word", 6][0]
        assert type(job.run()) is p.pbw.UEElement


def test_sweep_job_holds_its_own_sides_point(sides):
    a, b, groups, *_ = sides
    key = next(key for key in groups[b] if key[0] == "sweep")
    for p in (a, b):
        bound = inspect.getclosurevars(groups[p][key][0].run).nonlocals.values()
        points = [value for value in bound if type(value).__name__ == "HWParams"]
        assert points and all(type(point) is p.verma.HWParams for point in points)


def test_sys_modules_and_path_are_restored(sides):
    *_, modules, path = sides
    assert sys.modules["w22"] is modules["w22"] is w22
    assert [name for name, module in modules.items() if sys.modules.get(name) is not module] == []
    assert "oracles" not in sys.modules and "w22_a_workloads" not in sys.modules
    assert sys.path == path


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_fewer_than_two_pairs_is_a_usage_error(pairs, capsys):
    with pytest.raises(SystemExit) as exc:
        main([".", ".", "--pairs", pairs])
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
