"""The three benchmark workloads: input generators, calls and output checks.

Each workload turns the workload seed into a pool of inputs (``scan``
writes its configs into ``workdir``).  The closed
loop in ``run.py`` issues call ``k`` on ``pool[k % len(pool)]`` and checks
every output afterwards.  Calls go through module attributes
(``nlocal.maximize_lhs``), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from qnetfilter import cli, config, nlocal

import reference

GOLDENS_PATH = Path(__file__).with_name("goldens.json")
# The default seed and a held-out seed that no tuning used.
GOLDEN_SEEDS = (0, 1)

# Tolerances of tests/test_acceptance.py.
OPTIMUM_ATOL = 1e-6
ORACLE_ATOL = 1e-10
DISTRIBUTION_ATOL = 1e-12
CLOSED_FORM_ATOL = 1e-10
BOUND_SLACK = 1e-9


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


def _seeded(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


class Scan:
    """`qnetfilter scan` over 7x7 grids of trilocal grud chains."""

    # Why: the users' main job, b_lin/b_seq maps over parameters.  Loads cli,
    # config, states, channels, filtering, core and the bounds of nlocal;
    # bypasses the optimizer and the Born oracle.  The axes touch link 2 only.
    name = "scan"
    # More configs than a run makes calls, so the tail is set by many
    # distinct inputs rather than by repeats of the pool's few slowest.
    pool_size = 256
    # A 7x7 grid averages out more of the host's jitter per call than 5x5.
    steps = 7
    items_per_call = steps * steps

    def config(self, seed: int, index: int) -> dict:
        rng = _seeded(seed, index)
        pair = (0, 1) if rng.uniform() < 0.5 else (1, 0)
        return {
            "links": [
                {"family": "grud", "v": float(rng.uniform(0.0, 0.3)), "x": float(rng.uniform(0.1, 0.78))}
                for _ in range(3)
            ],
            "channels": [{"link": 2, "type": "bit_flip", "param": 0.0, "sides": "both"}],
            "filters": {
                "first": float(rng.uniform(0.5, 1.0)),
                "last": float(rng.uniform(0.5, 1.0)),
                "middle": [[float(rng.uniform(0.3, 1.0)) for _ in range(2)] for _ in range(2)],
            },
            "scan": {
                "axes": [
                    {"path": "channels.0.param", "min": 0.0, "max": float(rng.uniform(0.1, 0.5)), "steps": self.steps},
                    {
                        "path": f"filters.middle.{pair[0]}.{pair[1]}",
                        "min": float(rng.uniform(0.2, 0.5)),
                        "max": 1.0,
                        "steps": self.steps,
                    },
                ]
            },
        }

    def generate(self, seed: int, workdir: Path) -> list:
        pool = []
        for index in range(self.pool_size):
            cfg = self.config(seed, index)
            path = workdir / f"scan-{index}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            pool.append((cfg, str(path)))
        return pool

    def call(self, item) -> str:
        _, path = item
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["scan", "--config", path])
        if code != 0:
            raise RuntimeError(f"scan exited with {code}")
        return out.getvalue()

    def checker(self, seed: int, pool: list):
        golden = load_goldens()["scan"].get(str(seed))
        verified: dict[int, str] = {}

        def check(index: int, text: str) -> bool:
            if golden is not None:
                return hashlib.sha256(text.encode()).hexdigest() == golden[index]
            if index not in verified:
                if not reference.csv_matches(pool[index][0], text):
                    return False
                verified[index] = text
            return text == verified[index]

        return check


class Search:
    """Optimizer and Born oracle on random 2- and 3-link chains."""

    # Why: time goes to Nelder-Mead over _lhs_core and to the 64x64 Born
    # enumeration at n=3.  Loads nlocal's optimizer and oracle; core and
    # config are a few percent, cli is bypassed.
    name = "search"
    pool_size = 256
    items_per_call = 1
    settings_per_chain = 3
    # Chain cost varies by ~20% with the input; four restarts (plus the warm
    # start) fit ~130 chains in a 30 s run, so the seed barely moves the mean.
    restarts = 4
    families = ("grud", "werner", "pure_theta")

    def _link(self, rng: np.random.Generator, family: str) -> dict:
        if family == "explicit":
            g = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= float(np.real(np.trace(rho)))
            return {"family": "explicit", "matrix": [[[z.real, z.imag] for z in row] for row in rho]}
        if family == "grud":
            return {"family": "grud", "v": float(rng.uniform()), "x": float(rng.uniform(0.0, math.pi / 4))}
        if family == "werner":
            return {"family": "werner", "p": float(rng.uniform())}
        return {"family": "pure_theta", "theta": float(rng.uniform(0.05, math.pi / 4))}

    def chain(self, seed: int, index: int) -> tuple[dict, list[list]]:
        rng = _seeded(seed, index)
        # The chain length and the family of each link follow the pool index,
        # so every seed runs the same mix; the seed draws the parameters.
        # One chain in three has two links: a 3-link chain costs ~1.7x as
        # much, and with an even mix the median call fell between the two.
        n = 2 if index % 3 == 0 else 3
        kinds = ("explicit", self.families[index // 3 % 3], "explicit")[:n]
        cfg = {
            "links": [self._link(rng, family) for family in kinds],
            "filters": {
                "first": float(rng.uniform(0.2, 1.0)),
                "last": float(rng.uniform(0.2, 1.0)),
                "middle": [[float(rng.uniform(0.2, 1.0)) for _ in range(2)] for _ in range(n - 1)],
            },
        }
        settings = []
        for _ in range(self.settings_per_chain):
            vectors = rng.normal(size=(4, 3))
            settings.append(vectors / np.linalg.norm(vectors, axis=1, keepdims=True))
        return cfg, settings

    def generate(self, seed: int, workdir: Path) -> list:
        return [(index, *self.chain(seed, index)) for index in range(self.pool_size)]

    def call(self, item) -> tuple:
        index, cfg, settings = item
        spec = config.build_network(cfg)
        optimum, _ = nlocal.maximize_lhs(spec, seed=index, restarts=self.restarts)
        bound, _ = nlocal.b_seq(spec)
        oracles = []
        for vectors in settings:
            chosen = nlocal.MeasurementSettings(*vectors)
            oracle = nlocal.born_oracle(spec, chosen)
            oracles.append((oracle.lhs, nlocal.lhs_at_settings(spec, chosen), oracle.max_distribution_dev))
        return optimum, bound, tuple(oracles)

    def checker(self, seed: int, pool: list):
        first: dict[int, tuple] = {}

        def check(index: int, out: tuple) -> bool:
            optimum, bound, oracles = out
            ok = abs(optimum - bound) <= OPTIMUM_ATOL and all(
                abs(lhs - closed) <= ORACLE_ATOL and dev <= DISTRIBUTION_ATOL for lhs, closed, dev in oracles
            )
            return ok and first.setdefault(index, out) == out

        return check


class Conjecture:
    """Batches of the random filtered-bilocal search."""

    # Why: core and filtering at n=2 through from_bloch, random local
    # unitaries and the closed-form filter, plus rejected and annihilated
    # draws that scan never wastes.  Bypasses config and cli.
    name = "conjecture"
    # Batch cost varies by up to 1.3x with the batch seed; with more batches
    # than a run makes calls, the tail is not a repeat of the few slowest.
    pool_size = 256
    # 100 trials a batch average out the batch-to-batch cost spread.
    trials = 100
    items_per_call = trials

    def generate(self, seed: int, workdir: Path) -> list:
        # Spaced so that the batches of different workload seeds never overlap.
        return [seed * 1000 + index for index in range(self.pool_size)]

    def call(self, batch_seed: int) -> tuple:
        report = nlocal.conjecture_search(self.trials, seed=batch_seed)
        return report.trials, report.max_b_seq, report.max_b_lin, report.max_closed_form_dev

    def checker(self, seed: int, pool: list):
        golden = load_goldens()["conjecture"].get(str(seed))
        first: dict[int, tuple] = {}

        def check(index: int, out: tuple) -> bool:
            trials, max_b_seq, _, dev = out
            ok = trials == self.trials and dev <= CLOSED_FORM_ATOL and max_b_seq <= 1.0 + BOUND_SLACK
            if golden is not None:
                return ok and list(out) == golden[index]
            return ok and first.setdefault(index, out) == out

        return check


WORKLOADS = {cls.name: cls for cls in (Scan, Search, Conjecture)}
