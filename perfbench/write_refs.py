"""Regenerate the stored references of the benchmark's output checks.

    python3 perfbench/write_refs.py

Writes ``refs.json`` (first-epoch train loss of each training workload on
its fixed reference inputs) and ``ref_waveforms.npz`` (per workload, the
model's output on a fixed window: after that reference epoch for the
training workloads, untrained for eval_long). Regenerate only when a change
is meant to alter these outputs beyond float32 tolerance.
"""
from __future__ import annotations

import json

import bootstrap


def main() -> None:
    bootstrap.prepare()
    import numpy as np

    import workloads

    losses, waveforms = {}, {}
    for wl in workloads.WORKLOADS.values():
        if wl.kind == "train":
            loss, waveforms[wl.name] = wl.reference_run()
            losses[wl.name] = {"first_epoch_loss": loss}
        else:
            net = workloads.model.build_model(wl.model_config(), seed=wl.model_seed)
            waveforms[wl.name] = workloads.reference_prediction(net, wl.fs, wl.window_s)
    workloads.REFS_JSON.write_text(json.dumps(losses, indent=2) + "\n")
    np.savez(workloads.REF_WAVEFORMS_NPZ, **waveforms)


if __name__ == "__main__":
    main()
