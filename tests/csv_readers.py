"""Readers of the CSV files ``odekit.cli`` writes: the round-trip contract
for the trajectory, study, step-log and raster formats."""
import numpy as np


def read_trajectory_csv(text: str):
    lines = [ln for ln in text.strip().splitlines() if ln]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    data = np.array(rows)
    return data[:, 0], data[:, 1:]


def read_study_csv(text: str):
    lines = [ln for ln in text.strip().splitlines() if ln]
    out = []
    for ln in lines[1:]:
        h, a, r, o = ln.split(",")
        out.append((float(h), float(a), float(r), None if o == "-" else float(o)))
    return out


def read_step_log_csv(text: str):
    lines = [ln for ln in text.strip().splitlines() if ln]
    rows = [ln.split(",") for ln in lines[1:]]
    return [(float(t), float(h), float(e), bool(int(a))) for t, h, e, a in rows]


def read_raster_csv(text: str):
    lines = [ln for ln in text.strip().splitlines() if ln]
    rows = [ln.split(",") for ln in lines[1:]]
    return [(float(a), float(b), int(c)) for a, b, c in rows]
