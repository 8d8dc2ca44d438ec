"""Machine-speed probe: fixed work of the kind riskbench does, without riskbench.

The host this benchmark runs on is shared, and its speed drifts by 30% or
more over minutes.  `run.py` times this script six times a run, around the
setup samples, and scales the end-to-end times by
`CALIBRATION_REFERENCE_S / mean(probe times)`, so that a
run made in a slow minute and one made in a fast minute read alike.  The
probe imports no riskbench code: a change to riskbench cannot move it.
"""

import json
import re

import numpy as np
import scipy.stats  # noqa: F401  (the heavy import every riskbench command pays)

TOKEN = re.compile(r"[^\W_]+")
LINE = " ".join(f"{(i * 7919) % 1000 / 997:.6f}" for i in range(300))

table = {}
for i in range(1000):
    parts = (f"tok{i} " + LINE).split()
    table[parts[0]] = np.array([float(x) for x in parts[1:]])
counts: dict[str, int] = {}
for i in range(15000):
    for token in TOKEN.findall(f"risk {i % 97} delay item{i % 13} permit"):
        counts[token] = counts.get(token, 0) + 1
matrix = np.stack(list(table.values()))
unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
best = (unit[:200] @ unit.T).argmax(axis=1)
json.dumps({"counts": counts, "best": best.tolist()}, sort_keys=True)
