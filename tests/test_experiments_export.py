"""Tests for the JSON export of experiment results."""

import json

import numpy as np
import pytest

from repro.experiments import REGISTRY
from repro.experiments.export import export_all, export_result, to_jsonable


def test_to_jsonable_handles_numpy_and_dataclasses():
    import dataclasses

    @dataclasses.dataclass
    class Sample:
        values: np.ndarray
        score: np.float64
        count: np.int32

    payload = to_jsonable(Sample(values=np.arange(3),
                                 score=np.float64(1.5),
                                 count=np.int32(7)))
    assert payload == {"values": [0, 1, 2], "score": 1.5, "count": 7}


def test_to_jsonable_flattens_tuple_keys():
    payload = to_jsonable({("gpt2", 6): 1.5})
    assert payload == {"gpt2/6": 1.5}


def test_export_result_roundtrips_through_json(tmp_path):
    """A sweep's functional half (Table III's estimator) is exported
    next to its fields."""
    result = REGISTRY["table3"].run()
    path = str(tmp_path / "table3.json")
    export_result(result, path)
    with open(path) as handle:
        data = json.load(handle)
    assert data["functional"]["adam"]["LUT"] == pytest.approx(33.66,
                                                              abs=0.05)
    assert data["figure"] == "table3"


def test_export_all_selected(tmp_path):
    paths = export_all(str(tmp_path), experiment_ids=["table3", "fig16"])
    assert set(paths) == {"table3", "fig16"}
    for path in paths.values():
        with open(path) as handle:
            assert json.load(handle)


def test_export_all_rejects_unknown(tmp_path):
    with pytest.raises(KeyError):
        export_all(str(tmp_path), experiment_ids=["fig99"])
