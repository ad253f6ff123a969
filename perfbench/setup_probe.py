"""Time a fresh process's set-up for one workload and print it in seconds.

Set-up is: import airpfl, parse the generated config, place the
geometry and, for training workloads, synthesize the device tasks.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG SEED TASKS(0|1)

With --calibrate it instead times a fixed set of imports that does not
involve the program, so that the runner can scale probes to the
reference speed (see calibration.py):

    python3 perfbench/setup_probe.py --calibrate
"""

import time

_t0 = time.perf_counter()

import sys  # noqa: E402


def calibrate() -> None:
    import csv  # noqa: F401
    import decimal  # noqa: F401
    import email.mime.multipart  # noqa: F401
    import http.client  # noqa: F401
    import xml.dom.minidom  # noqa: F401

    import numpy  # noqa: F401


def main(src: str, config: str, seed: str, tasks: str) -> None:
    import json

    sys.path.insert(0, src)
    from airpfl import config_from_json, place_geometry, synth_clustered_tasks

    with open(config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    cfg = config_from_json(json.dumps(doc.get("system", doc)))
    place_geometry(cfg, int(seed))
    if tasks == "1":
        synth_clustered_tasks(cfg, samples_per_device=50, label_noise=0.1, task_seed=int(seed))


if __name__ == "__main__":
    if sys.argv[1:] == ["--calibrate"]:
        calibrate()
    else:
        main(*sys.argv[1:])
    print(repr(time.perf_counter() - _t0))
