#!/usr/bin/env python3
"""Determinism test of the repo benchmark.

    python3 perfbench/test_determinism.py

Builds perfbench (as run.py does), then runs every workload at a reduced
size (--small) three times: twice with one seed (once untraced, once
traced) and once with another seed. It asserts that

  * every virtual-time metric and every count, end-to-end and per-layer,
    is bit-identical between the two same-seed runs (tracing included);
  * the same seed generates the same inputs (equal input fingerprints);
  * a different seed changes the inputs (fingerprint and virtual metrics)
    while the program and its metric set stay the same;
  * every answer validated, and the printed metric names and units match
    BENCHMARK.json and perfbench/layer_map.json.

Exits non-zero on the first workload that breaks any of these.
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build step)

WORKLOADS = ["bfs-weak256", "bfs-kernel4", "serve-rw"]

# Host-clock metrics: everything else must repeat bit for bit.
HOST = re.compile(
    r"^(wall_s|setup_s|peak_rss_mb|graph\..*_s|bfs2d\.build_s|runtime\..*"
    r"|.*\.host_ms|engine\.wave_host_ms|dyn\.(ingest|compact|pin)_ms"
    r"|bench\..*|wall_share\..*)$")


def run_once(exe, workload, seed, trace, out):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--small",
           "--dump", str(out), "--out-dir", str(out.parent)]
    r = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=170)
    if r.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {r.returncode}:\n"
                             f"{r.stderr[-2000:]}")
    last = json.loads(r.stdout.strip().splitlines()[-1])
    dump = json.loads(out.read_text())
    return last, dump


def virtual(dump):
    out = {}
    for group in ("e2e", "layer"):
        for k, m in dump[group].items():
            if not HOST.match(k):
                out[k] = m["value"]
    return out


def check_catalog(last_e2e, last_layer):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, got in (("end_to_end", last_e2e), ("per_layer", last_layer)):
        want = {m["name"]: m["unit"] for m in bench[key]}
        have = {k: v["unit"] for k, v in got["metrics"].items()}
        assert want == have, f"{key}: BENCHMARK.json and perfbench differ: " \
            f"{sorted(set(want.items()) ^ set(have.items()))}"
    layer_map = json.loads((run.HERE / "layer_map.json").read_text())
    patterns = [re.compile(e["metrics"]) for e in layer_map["entries"]]
    for name in last_layer["metrics"]:
        assert any(p.fullmatch(name) for p in patterns), \
            f"per-layer metric {name} has no entry in layer_map.json"


def main():
    exe = run.build(run.build_dir())
    failures = 0
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
        tmp = Path(tmp)
        for w in WORKLOADS:
            try:
                a_last, a = run_once(exe, w, 11, 0, tmp / f"{w}-a.json")
                b_last, b = run_once(exe, w, 11, 1, tmp / f"{w}-b.json")
                _, c = run_once(exe, w, 12, 0, tmp / f"{w}-c.json")
                for d in (a, b, c):
                    assert d["failed"] == 0 and d["attempted"] > 0, \
                        f"validation failed: {d['failed']}/{d['attempted']}"
                va, vb, vc = virtual(a), virtual(b), virtual(c)
                diff = {k for k in va if va[k] != vb[k]}
                assert not diff, f"same seed, different virtual metrics: " \
                    f"{ {k: (va[k], vb[k]) for k in sorted(diff)} }"
                assert a["input_fingerprint"] == b["input_fingerprint"], \
                    "same seed, different inputs"
                assert a["input_fingerprint"] != c["input_fingerprint"], \
                    "another seed left the inputs unchanged"
                assert set(va) == set(vc), "another seed changed the metric set"
                assert any(va[k] != vc[k] for k in va), \
                    "another seed left every virtual metric unchanged"
                check_catalog(a_last, b_last)
                print(f"ok   {w}: {len(va)} virtual metrics bit-identical, "
                      f"inputs follow the seed")
            except AssertionError as e:
                failures += 1
                print(f"FAIL {w}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
