"""Every file under ``results/`` must be what the experiment registry
writes today, byte for byte.

The files are produced by one command and by nothing else::

    PYTHONPATH=src python -m repro experiment --write results

so a render format that changes without regenerating, a hand-edited
file, an experiment without a committed file and a file without an
experiment each fail a test here.  Only a wall-clock block
(:data:`repro.experiments.WALLCLOCK`, rendered last; ``fig14`` has the
one there is) is exempt.  The two experiments that fine-tune through the
functional engines (~30 s and ~6 s) carry the ``exhaustive`` marker,
which tier-1 deselects and CI runs in its own step.
"""

import os

import pytest

from repro.cli import main
from repro.experiments import REGISTRY, pinned, write_results

RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "results")

REGENERATE = "PYTHONPATH=src python -m repro experiment --write results"

SLOW = ("table4", "ext_modelcomp")


def _read(path):
    with open(path) as handle:
        return handle.read()


def _assert_current(written_path):
    name = os.path.basename(written_path)
    assert pinned(_read(written_path)) == pinned(
        _read(os.path.join(RESULTS, name))), (
        f"results/{name} is not what the registry renders; if the "
        f"change is meant, regenerate with `{REGENERATE}` and commit")


@pytest.mark.parametrize("experiment_id", [
    pytest.param(experiment_id, id=module.RESULT_STEM,
                 marks=[pytest.mark.exhaustive]
                 if experiment_id in SLOW else [])
    for experiment_id, module in REGISTRY.items()])
def test_committed_result_file_is_current(experiment_id, tmp_path):
    paths = write_results(str(tmp_path), [experiment_id])
    _assert_current(paths[experiment_id])


def test_stale_result_is_reported_with_the_regenerate_command(tmp_path):
    stale = tmp_path / "table3_resources.txt"
    stale.write_text(_read(os.path.join(RESULTS, stale.name)) + "edited\n")
    with pytest.raises(AssertionError) as excinfo:
        _assert_current(str(stale))
    assert REGENERATE in str(excinfo.value)
    assert "results/table3_resources.txt" in str(excinfo.value)


def test_registry_stems_and_results_directory_are_one_set():
    stems = [module.RESULT_STEM for module in REGISTRY.values()]
    assert len(set(stems)) == len(stems)
    assert sorted(f"{stem}.txt" for stem in stems) == sorted(
        os.listdir(RESULTS)), (
        "an experiment without a committed result file, or a file no "
        f"experiment writes; `{REGENERATE}` writes exactly one per "
        "experiment")


def test_only_fig14_has_a_wallclock_block():
    exempt = [name for name in sorted(os.listdir(RESULTS))
              if pinned(_read(os.path.join(RESULTS, name)))
              != _read(os.path.join(RESULTS, name))]
    assert exempt == ["fig14_throughput.txt"]


def test_cli_experiment_write_one_id(tmp_path, capsys):
    assert main(["experiment", "fig9", "--write", str(tmp_path)]) == 0
    assert os.listdir(tmp_path) == ["fig09_ablation.txt"]
    assert "fig09_ablation.txt" in capsys.readouterr().out
    _assert_current(str(tmp_path / "fig09_ablation.txt"))


@pytest.mark.exhaustive
def test_cli_experiment_write_regenerates_results_directory(tmp_path):
    assert main(["experiment", "--write", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(RESULTS))
    for name in os.listdir(tmp_path):
        _assert_current(str(tmp_path / name))


def test_cli_experiment_without_id_or_write_is_a_usage_error(capsys):
    assert main(["experiment"]) == 2
    assert "--write" in capsys.readouterr().out
