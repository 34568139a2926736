"""Shared pytest plumbing: the acceptance-criteria summary section, and
scene and params directories with one defect each."""

import numpy as np
import pytest

from stepseg.losses import ClassMap
from stepseg.network import save_params
from stepseg.synth import (
    LabelBudget,
    SceneSpec,
    gen_scene,
    sample_labels,
    write_class_map,
    write_selection,
)
from stepseg.tensor_ops import write_ftf
from stepseg.training import Dataset, init_params, save_dataset

# test_acceptance.py appends one line per criterion; printed after the run
# so the verdicts are visible even when every test passes.
ACCEPTANCE_LINES: list[str] = []

# defect in a 12x12, 3-band scene directory -> the error message naming it
BAD_SCENES = {
    "label_outside_field": "train_labels.lbl: label at row 100, col 3",
    "truth_header_mismatch": "truth.lbl: header is 8x8, data.ftf is 12x12",
    "val_header_mismatch": "val_labels.lbl: header is 12x13",
    "truncated_ftf": "data.ftf: 20 bytes, shorter than the 28-byte header",
    "zero_band_ftf": r"data.ftf: shape \(0, 12, 12\) has a zero dimension",
    "non_integer_label_header":
        "train_labels.lbl: width must be an integer, got 'x'",
    "negative_class_id": "train_labels.lbl: negative class id",
    "duplicate_label": "train_labels.lbl: duplicate labeled pixel",
    "nonfinite_ftf": "data.ftf: values must be finite, got nan",
    "truth_id_below_unlabeled": "truth.lbl: class ids must be >= -1, got -7",
    "label_class_beyond_int64": "train_labels.lbl: entry must be a 64-bit "
                                f"integer, got {10**29}$",
    "label_row_beyond_int64": "train_labels.lbl: entry must be a 64-bit "
                              f"integer, got {10**29}$",
    "truth_id_beyond_int64": "truth.lbl: entry must be a 64-bit integer, "
                             f"got {10**23}$",
}


@pytest.fixture(params=sorted(BAD_SCENES))
def bad_scene(request, tmp_path):
    """A scene directory with one defect, and the message that rejects it."""
    directory = tmp_path / "scene"
    data, truth = gen_scene(SceneSpec(seed=3, height=12, width=12,
                                      channels=3))
    train_sel, val_sel = sample_labels(truth, LabelBudget(20, 8, seed=3))
    save_dataset(directory, Dataset(data=data, truth=truth,
                                    train=train_sel, val=val_sel))
    if request.param == "label_outside_field":
        with open(directory / "train_labels.lbl", "a") as fh:
            fh.write("100 3 1\n")
    elif request.param == "truth_header_mismatch":
        write_class_map(directory / "truth.lbl",
                        ClassMap(values=truth.values[:8, :8]))
    elif request.param == "val_header_mismatch":
        write_selection(directory / "val_labels.lbl", val_sel, 12, 13)
    elif request.param == "non_integer_label_header":
        labels = directory / "train_labels.lbl"
        lines = labels.read_text().splitlines()
        labels.write_text("\n".join(["LBL1 12 x"] + lines[1:]) + "\n")
    elif request.param == "negative_class_id":
        (directory / "train_labels.lbl").write_text("LBL1 12 12\n1 2 -3\n")
    elif request.param == "duplicate_label":
        (directory / "train_labels.lbl").write_text(
            "LBL1 12 12\n1 2 0\n1 2 0\n")
    elif request.param == "label_class_beyond_int64":
        with open(directory / "train_labels.lbl", "a") as fh:
            fh.write(f"1 1 {10**29}\n")
    elif request.param == "label_row_beyond_int64":
        with open(directory / "train_labels.lbl", "a") as fh:
            fh.write(f"{10**29} 1 1\n")
    elif request.param in ("truth_id_below_unlabeled", "truth_id_beyond_int64"):
        lines = (directory / "truth.lbl").read_text().splitlines()
        row = lines[5].split()
        row[5] = "-7" if request.param == "truth_id_below_unlabeled" else str(10**23)
        lines[5] = " ".join(row)
        (directory / "truth.lbl").write_text("\n".join(lines) + "\n")
    elif request.param == "nonfinite_ftf":
        write_ftf(directory / "data.ftf", np.full_like(data, np.nan))
    elif request.param == "truncated_ftf":
        ftf = directory / "data.ftf"
        ftf.write_bytes(ftf.read_bytes()[:20])
    else:
        header = np.array([0, 12, 12], dtype="<u8").tobytes()
        (directory / "data.ftf").write_bytes(b"FTF1" + header)
    return directory, BAD_SCENES[request.param]


# defect in a saved 3-band, width-4, 2-class params directory -> the file at
# fault and the message after its path; each kernel file keeps its count
BAD_PARAMS = {
    "lift_3x3": ("lift.ftf",
                 "lift must have shape (4, 3, 1, 1), got (4, 3, 3, 3)"),
    "layer_2x2": ("layer_000.ftf",
                  "kernel spatial dims must be odd, got (2, 2)"),
    "project_3x3": ("project.ftf",
                    "project must have shape (2, 4, 1, 1), got (2, 4, 3, 3)"),
    "single_class": ("manifest.txt",
                     "num_classes must be an integer >= 2, got 1"),
}


@pytest.fixture(params=sorted(BAD_PARAMS))
def bad_params(request, tmp_path):
    """A params directory with one defect, and the error line that rejects
    it: the full path of the file at fault, then the message."""
    directory = tmp_path / "params"
    save_params(directory, init_params(bands=3, num_classes=2, width=4,
                                       steps=2, activation="tanh", h=1.0,
                                       seed=1))
    if request.param == "lift_3x3":
        write_ftf(directory / "lift.ftf", np.ones((12, 3, 3)))
    elif request.param == "layer_2x2":
        write_ftf(directory / "layer_000.ftf", np.ones((16, 2, 2)))
    elif request.param == "project_3x3":
        write_ftf(directory / "project.ftf", np.ones((8, 3, 3)))
    else:
        # with a project.ftf that matches num_classes=1
        write_ftf(directory / "project.ftf", np.ones((4, 1, 1)))
        manifest = directory / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("num_classes=2",
                                                         "num_classes=1"))
    name, message = BAD_PARAMS[request.param]
    return directory, f"{directory / name}: {message}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.line(line)
