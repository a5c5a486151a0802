"""The benchmark's workloads: seeded inputs, batched CLI calls, output checks.

Every batch is one ``netcoord.cli.main`` call on files the benchmark
writes from its seed.  Within a batch, the time from entering
``cli.main`` to the start of the first item is that batch's set-up
(argument and config parsing, game and network construction); an item
is one replication, or one wave in ``wave-build``.  Items are timed at
one outermost call each (``ItemClock``) and nothing finer.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import netcoord.cli
import netcoord.harness

REFERENCE_FILE = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 0

TWO_POINT = {"base": 0.1, "steps": [[0.5, 0.9]]}
THREE_POINT = {"base": 0.1, "steps": [[0.25, 0.5], [0.75, 0.9]]}
CUBE_GAME = {"base": 0.05, "steps": [[0.4, 0.3]]}
WAVE_ETA = 0.15


def derive_seed(workload: str, seed: int, index: int) -> int:
    """Config seed of batch ``index``: a 62-bit hash of (workload, seed, index)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 2


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


class ItemClock:
    """Rebinds ``module.attr`` to a wrapper that records call start and end."""

    def __init__(self, module, attr: str):
        self.module, self.attr = module, attr
        self.starts: list[float] = []
        self.ends: list[float] = []

    def __enter__(self) -> "ItemClock":
        fn = self._orig = getattr(self.module, self.attr)
        starts, ends = self.starts, self.ends

        def timed(*args, **kwargs):
            starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends.append(time.perf_counter())

        setattr(self.module, self.attr, timed)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.module, self.attr, self._orig)


class _ItemStarted(BaseException):
    """Raised where a set-up probe's first item would start."""


@dataclass
class Batch:
    argv: list[str]
    out: Path  # output directory (or file, for waves)
    items: int
    meta: dict


@dataclass
class BatchResult:
    wall_s: float
    setup_s: float | None
    post_setup_s: float
    item_s: list[float]
    attempted: int
    failed: int
    errors: list[str]


def call_cli(argv: list[str]) -> str | None:
    """Run ``netcoord.cli.main``; return None on success, else the failure."""
    try:
        with redirect_stdout(io.StringIO()):
            code = netcoord.cli.main(argv)
    except Exception:
        return traceback.format_exc()
    return None if code == 0 else f"netcoord {argv[0]} exited with code {code}"


class Workload:
    name = ""
    clock_module = netcoord.cli
    clock_attr = ""
    # True: an item is the clocked call.  False: an item runs from one
    # clocked call's start to the next one's (the last to the batch end).
    call_items = True

    def cycle(self, scale: str) -> int:
        """The timed loop stops only after a multiple of this many batches."""
        return 1

    def batch(self, seed: int, index: int, workdir: Path, scale: str, tag: str = "") -> Batch:
        raise NotImplementedError

    def trace_batches(self, seed: int, workdir: Path, scale: str, tag: str) -> list[Batch]:
        raise NotImplementedError

    def warmup_batch(self, seed: int, workdir: Path, scale: str) -> Batch:
        """A short untimed batch that runs before the traced run's two passes."""
        raise NotImplementedError

    def check(self, batch: Batch) -> list[str]:
        """One message per failed item."""
        raise NotImplementedError

    def digests(self, batch: Batch) -> dict[str, str]:
        raise NotImplementedError

    def reference_batch(self, workdir: Path, scale: str) -> Batch | None:
        return None

    def run_batch(self, batch: Batch) -> BatchResult:
        clock = ItemClock(self.clock_module, self.clock_attr)
        t0 = time.perf_counter()
        with clock:
            error = call_cli(batch.argv)
        t1 = time.perf_counter()
        starts = clock.starts
        if self.call_items:
            items = [e - s for s, e in zip(starts, clock.ends)]
        else:
            items = [b - a for a, b in zip(starts, starts[1:] + [t1])]
        errors = [error] if error else self.check(batch)
        failed = batch.items if error else min(batch.items, len(errors))
        return BatchResult(
            wall_s=t1 - t0,
            setup_s=(starts[0] - t0) if starts else None,
            post_setup_s=(t1 - starts[0]) if starts else 0.0,
            item_s=items,
            attempted=batch.items,
            failed=failed,
            errors=errors,
        )

    def setup_probe(self, batch: Batch) -> float:
        """Set-up time of one CLI call that is stopped where its first item would start."""
        orig = getattr(self.clock_module, self.clock_attr)

        def stop(*args, **kwargs):
            raise _ItemStarted(time.perf_counter())

        setattr(self.clock_module, self.clock_attr, stop)
        t0 = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                netcoord.cli.main(batch.argv)
        except _ItemStarted as started:
            return started.args[0] - t0
        finally:
            setattr(self.clock_module, self.clock_attr, orig)
        raise RuntimeError(f"netcoord {batch.argv[0]} started no item")

    def check_reference(self, workdir: Path, scale: str) -> tuple[int, list[str]]:
        """Run the reference batch; compare its output digests with the record."""
        batch = self.reference_batch(workdir, scale)
        if batch is None:
            return 0, []
        res = self.run_batch(batch)
        errors = list(res.errors)
        if not errors:
            want = load_reference()["digests"][self.name]
            got = self.digests(batch)
            errors += [f"reference digest mismatch: {k}" for k in want if got.get(k) != want[k]]
        return batch.items, errors


def _write_json(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return path


class SimulateWorkload(Workload):
    clock_module = netcoord.harness
    clock_attr = "run_replication"

    def __init__(self, name, game, network, tiny_network, probes, reps, trace_reps, reference_reps, record_check):
        self.name = name
        self.game, self.probes = game, probes
        self.network = {"full": network, "tiny": tiny_network}
        self.reps = {"full": reps, "tiny": 2}
        self.trace_reps = {"full": trace_reps, "tiny": 2}
        self.reference_reps = reference_reps
        self.record_check = record_check

    def _batch(self, config_seed: int, reps: int, workdir: Path, scale: str, stem: str) -> Batch:
        out = workdir / stem
        cfg = {
            "game": {"step_json": self.game},
            "network": self.network[scale],
            "replications": reps,
            "seed": config_seed,
            "eta": 0.05,
            "probes": list(self.probes),
            "output": str(out),
        }
        path = _write_json(workdir / f"{stem}.json", cfg)
        return Batch(["simulate", str(path)], out, reps, {})

    def batch(self, seed, index, workdir, scale, tag=""):
        return self._batch(derive_seed(self.name, seed, index), self.reps[scale], workdir, scale, f"{tag}b{index}")

    def trace_batches(self, seed, workdir, scale, tag):
        return [self._batch(derive_seed(self.name, seed, 0), self.trace_reps[scale], workdir, scale, f"{tag}b0")]

    def warmup_batch(self, seed, workdir, scale):
        return self._batch(derive_seed(self.name, seed, 0), 1, workdir, scale, "warmup")

    def reference_batch(self, workdir, scale):
        if scale != "full":
            return None
        return self._batch(derive_seed(self.name, DEFAULT_SEED, 0), self.reference_reps, workdir, scale, "ref")

    def check(self, batch):
        path = batch.out / "replications.jsonl"
        if not path.is_file():
            return [f"missing {path.name}"] * batch.items
        lines = path.read_text().splitlines()
        errors = []
        for line in lines:
            try:
                rec = json.loads(line)
                errors += [f"replication {rec['replication_id']}: {msg}" for msg in self.record_check(rec)]
            except (ValueError, KeyError, TypeError) as e:
                errors.append(f"unreadable replication record ({e!r})")
        if len(lines) != batch.items:
            errors += ["wrong number of replication records"] * abs(batch.items - len(lines))
        for name in ("aggregate.csv", "plot.csv"):
            if not (batch.out / name).is_file():
                errors.append(f"missing {name}")
        return errors

    def digests(self, batch):
        return {n: sha256_file(batch.out / n) for n in ("replications.jsonl", "aggregate.csv", "plot.csv")}


def _extremal_check(rec: dict) -> list[str]:
    av = rec["averages"]
    if not av["smallest"] <= av["largest"]:
        return [f"av_smallest {av['smallest']} > av_largest {av['largest']}"]
    return []


def _audit_check(rec: dict) -> list[str]:
    return [] if rec["bound_audit"]["satisfied"] is True else ["bound audit not satisfied"]


class LatticeAnalyzeWorkload(Workload):
    name = "lattice-analyze"
    clock_attr = "sample_shocks"
    call_items = False
    lattice = {"full": (300, 3), "tiny": (60, 3)}
    cubes = {"b": 3, "B": 30, "gamma": 0.2, "R": 2.0}

    def _batch(self, config_seed, reps, workdir, scale, stem):
        out = workdir / stem
        M, m = self.lattice[scale]
        cfg = {
            "game": {"step_json": CUBE_GAME},
            "network": {"lattice": {"M": M, "m": m}},
            "replications": reps,
            "seed": config_seed,
            "cubes": self.cubes,
            "output": str(out),
        }
        path = _write_json(workdir / f"{stem}.json", cfg)
        n_small = (M // self.cubes["b"]) ** 2
        return Batch(["lattice-analyze", str(path)], out, reps, {"n_small": n_small})

    def batch(self, seed, index, workdir, scale, tag=""):
        return self._batch(derive_seed(self.name, seed, index), 1, workdir, scale, f"{tag}b{index}")

    def trace_batches(self, seed, workdir, scale, tag):
        return [self._batch(derive_seed(self.name, seed, 0), 2, workdir, scale, f"{tag}b0")]

    def warmup_batch(self, seed, workdir, scale):
        return self._batch(derive_seed(self.name, seed, 0), 1, workdir, scale, "warmup")

    def reference_batch(self, workdir, scale):
        if scale != "full":
            return None
        return self._batch(derive_seed(self.name, DEFAULT_SEED, 0), 1, workdir, scale, "ref")

    def check(self, batch):
        errors = []
        for rep in range(batch.items):
            try:
                errors += self._check_rep(batch, rep)
            except (OSError, ValueError, KeyError) as e:
                errors.append(f"replication {rep}: unreadable output ({e})")
        return errors

    def _check_rep(self, batch: Batch, rep: int) -> list[str]:
        rows = list(csv.reader(io.StringIO((batch.out / f"cubes_{rep:04d}.csv").read_text())))
        if rows[0] != ["cube_x", "cube_y", "a_c", "beta_c", "bad", "extraordinary"]:
            return [f"replication {rep}: unexpected cube CSV header"]
        body = rows[1:]
        if len(body) != batch.meta["n_small"]:
            return [f"replication {rep}: {len(body)} cube rows, expected {batch.meta['n_small']}"]
        for row in body:
            in_range = 0.0 <= float(row[2]) <= 1.0 and 0.0 <= float(row[3]) <= 1.0
            if not (in_range and row[4] in ("0", "1") and row[5] in ("0", "1")):
                return [f"replication {rep}: cube row out of range: {row}"]
        found = json.loads((batch.out / f"goodset_{rep:04d}.json").read_text())
        if found["found"] and not all(found["conditions"].values()):
            return [f"replication {rep}: good set reported with a failed condition"]
        return []

    def digests(self, batch):
        out = {}
        for rep in range(batch.items):
            for name in (f"cubes_{rep:04d}.csv", f"goodset_{rep:04d}.json"):
                out[name] = sha256_file(batch.out / name)
        return out


class WaveWorkload(Workload):
    """Wave construction on a fixed panel of games, in a seed-chosen order.

    Wave cost swings from 0.3 s to 7 s between games of the same
    generator, so a seed-drawn handful of games per run would make
    throughput depend mostly on the draw.  The panel is the first four
    strictly dominant games of the criterion-6(iii) generator; each run
    builds whole panel cycles, and the seed permutes the order.
    """

    name = "wave-build"
    clock_attr = "build_delta_wave"

    def __init__(self):
        self.panel = load_reference()["wave_panel"]

    def _games(self, scale: str) -> list[int]:
        return list(range(len(self.panel))) if scale == "full" else [0]

    def cycle(self, scale: str) -> int:
        return len(self._games(scale))

    def order(self, seed: int, scale: str) -> list[int]:
        games = self._games(scale)
        random.Random(derive_seed(self.name, seed, 0)).shuffle(games)
        return games

    def _batch(self, game: int, workdir: Path, stem: str) -> Batch:
        path = _write_json(workdir / f"game{game}.json", self.panel[game]["game"])
        out = workdir / f"{stem}.json"
        argv = ["wave", str(path), "--eta", str(WAVE_ETA), "--out", str(out)]
        return Batch(argv, out, 1, {"game": game})

    def batch(self, seed, index, workdir, scale, tag=""):
        order = self.order(seed, scale)
        return self._batch(order[index % len(order)], workdir, f"{tag}b{index}")

    def trace_batches(self, seed, workdir, scale, tag):
        return [self._batch(g, workdir, f"{tag}b{i}") for i, g in enumerate(self.order(seed, scale))]

    def warmup_batch(self, seed, workdir, scale):
        return self._batch(0, workdir, "warmup")  # the panel's one fast game

    def check(self, batch):
        try:
            doc = json.loads(batch.out.read_text())
            v, res = doc["thresholds"], doc["residuals"]
        except (OSError, ValueError, KeyError) as e:
            return [f"unreadable wave output ({e!r})"]
        want = self.panel[batch.meta["game"]]["thresholds"]
        if any(b <= a for a, b in zip(v, v[1:])):
            return ["wave thresholds not strictly increasing"]
        if min(res) < -1e-9:
            return [f"wave residual {min(res)} below -1e-9"]
        if len(v) != len(want) or max(abs(a - b) for a, b in zip(v, want)) > 1e-9:
            return ["wave thresholds differ from the reference by more than 1e-9"]
        return []

    def digests(self, batch):
        return {"wave": sha256_file(batch.out)}


def workloads() -> dict[str, Workload]:
    ensemble = SimulateWorkload(
        "ensemble-complete",
        TWO_POINT,
        {"complete": {"n": 2000}},
        {"complete": {"n": 200}},
        ("extremal", "seeded-local"),
        reps=20,
        trace_reps=16,
        reference_reps=3,
        record_check=_extremal_check,
    )
    rupath = SimulateWorkload(
        "rupath-lattice",
        THREE_POINT,
        {"lattice": {"M": 120, "m": 2}},
        {"lattice": {"M": 40, "m": 2}},
        ("ru-path",),
        reps=2,
        trace_reps=3,
        reference_reps=2,
        record_check=_audit_check,
    )
    out = [ensemble, rupath, WaveWorkload(), LatticeAnalyzeWorkload()]
    return {w.name: w for w in out}
