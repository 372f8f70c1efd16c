"""The cell-by-cell marching squares that rotation._marching_squares
vectorises, kept as the reference its output must equal polyline for
polyline."""
import math

import numpy as np


def marching_squares(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                     level: float) -> list[np.ndarray]:
    """Contours of z(x, y) on a rectangular grid by marching squares with
    linear interpolation; NaN cells are skipped.  Returns chained polylines
    as arrays of (x, y) vertices."""
    segs: list[tuple[tuple[float, float], tuple[float, float]]] = []
    n0, n1 = z.shape

    def interp(p1, p2, v1, v2):
        t = (level - v1) / (v2 - v1)
        return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))

    for i in range(n0 - 1):
        for k in range(n1 - 1):
            v = (z[i, k], z[i, k + 1], z[i + 1, k + 1], z[i + 1, k])
            if any(math.isnan(t) for t in v):
                continue
            corners = ((x[i], y[k]), (x[i], y[k + 1]),
                       (x[i + 1], y[k + 1]), (x[i + 1], y[k]))
            above = [t >= level for t in v]
            if all(above) or not any(above):
                continue
            pts = []
            for e in range(4):
                e2 = (e + 1) % 4
                if above[e] != above[e2]:
                    pts.append(interp(corners[e], corners[e2], v[e], v[e2]))
            if len(pts) == 2:
                segs.append((pts[0], pts[1]))
            elif len(pts) == 4:
                # saddle cell: split by the center value
                vc = sum(v) / 4.0
                if (vc >= level) == above[0]:
                    segs.append((pts[0], pts[3]))
                    segs.append((pts[1], pts[2]))
                else:
                    segs.append((pts[0], pts[1]))
                    segs.append((pts[2], pts[3]))

    # chain segments into polylines by shared endpoints
    def key(p):
        return (round(p[0], 12), round(p[1], 12))

    adj: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segs):
        adj.setdefault(key(a), []).append(idx)
        adj.setdefault(key(b), []).append(idx)

    used = [False] * len(segs)
    polylines = []
    for start in range(len(segs)):
        if used[start]:
            continue
        used[start] = True
        a, b = segs[start]
        chain = [a, b]
        for endpoint_idx in (0, 1):
            while True:
                tip = chain[-1] if endpoint_idx == 0 else chain[0]
                cands = [i for i in adj.get(key(tip), []) if not used[i]]
                if not cands:
                    break
                i = cands[0]
                used[i] = True
                pa, pb = segs[i]
                nxt = pb if key(pa) == key(tip) else pa
                if endpoint_idx == 0:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
        polylines.append(np.asarray(chain))
    return polylines
