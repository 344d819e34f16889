"""Self-tests of the benchmark itself (`python3 perfbench/run.py --self-test`).

1. A corrupted catalog fails the output check.
2. Every metric name matches [A-Za-z0-9_.-]+, carries a unit, and
   BENCHMARK.json lists exactly the metrics the benchmark prints.
3. The traced replay's digest equals the untraced run's on tiny configs.
"""

import json
import os

import run as bench


def check(ok, what, failures):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def self_test():
    failures = []
    os.makedirs(bench.WORK, exist_ok=True)
    bench.build()
    tmp = bench.fresh_dir(os.path.join(bench.WORK, "selftest"))

    # 3 (evolve): CLI catalog vs replay catalog on a tiny quick evolve in
    # two shards; the CLI catalog then feeds the corruption test.
    cat = os.path.join(tmp, "cli-catalog.txt")
    p = bench.run([bench.BIN, "evolve", "--quick", "--seed", "5", "--programs", "40",
                   "--rounds", "2", "--shards", "2", "--progress", "none", "--catalog", cat])
    check(p.ok, "tiny evolve runs", failures)
    cli = [bench.read(cat)] if p.ok else None
    out = bench.fresh_dir(os.path.join(tmp, "replay-evolve"))
    r = bench.run([bench.REPLAY, "evolve", "--quick", "--seeds", "5", "--programs", "40",
                   "--rounds", "2", "--shards", "2", "--in-flight", "1", "--out", out])
    replayed = [bench.read(os.path.join(out, "catalog-0.txt"))] if r.ok else None
    check(r.ok and bench.outputs_match(cli, replayed),
          "replay catalog equals the untraced evolve catalog", failures)

    # 1: one flipped byte in a catalog fails the check.
    if cli and cli[0]:
        corrupt = bytearray(cli[0])
        corrupt[len(corrupt) // 2] ^= 0x01
        check(not bench.outputs_match([bytes(corrupt)], cli)
              and bench.outputs_match(list(cli), cli),
              "a corrupted catalog fails the output check", failures)
    else:
        check(False, "a corrupted catalog fails the output check (no catalog)", failures)

    # 3 (campaign): Table I + CSV on a tiny paper-config campaign.
    table = os.path.join(tmp, "table1.txt")
    csv = os.path.join(tmp, "records.csv")
    p = bench.run([bench.BIN, "campaign", "--programs", "4", "--seed", "9", "--csv", csv],
                  stdout=table)
    out = bench.fresh_dir(os.path.join(tmp, "replay-campaign"))
    r = bench.run([bench.REPLAY, "campaign", "--seed", "9", "--programs", "4", "--out", out])
    check(p.ok and r.ok and bench.outputs_match(
        [bench.read(table), bench.read(csv)],
        [bench.read(os.path.join(out, "table1.txt")),
         bench.read(os.path.join(out, "records.csv"))]),
        "replay Table I and CSV equal the untraced campaign's", failures)

    # 2: metric names and units, here and in BENCHMARK.json.
    names = bench.E2E + bench.PER_LAYER
    check(all(bench.NAME_RE.fullmatch(n) and u for n, u in names)
          and len({n for n, _ in names}) == len(names),
          "metric names match [A-Za-z0-9_.-]+, are unique and carry units", failures)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.E2E
          and [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.PER_LAYER,
          "BENCHMARK.json lists exactly the printed metrics", failures)
    r = bench.run([bench.REPLAY, "campaign", "--seed", "9", "--programs", "4", "--out", out],
                  stdout=os.path.join(tmp, "replay.json"))
    printed = json.loads(bench.read(os.path.join(tmp, "replay.json")))["metrics"]
    layer = dict(bench.PER_LAYER)
    check(all(layer.get(n) == m["unit"] for n, m in printed.items()),
          "every replay metric is a declared per-layer metric with its unit", failures)

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0
