"""The four benchmark workloads.

Each workload builds its inputs from the seed (`setup`), runs one operation
(`op`) and checks that operation's output outside the timed region (`check`).
Program functions are looked up through their modules at call time, so the
tracer's wrappers see every call. Every workload is closed-loop with one
client in one process: the next op starts when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import numpy as np

from . import inputs

FRANKLIN = "pandiagonal_franklin_type_p"
MOST_PERFECT = "most_perfect_type_p"


def _power(p: int, n: int) -> int:
    r = 0
    while p**r < n:
        r += 1
    if p**r != n:
        raise ValueError(f"{n} is not a power of {p}")
    return r


def _natural_square(ff, p: int, r: int, rng: random.Random):
    return ff.core.NaturalSquare(ff.core.Grid(inputs.most_perfect_entries(p, r, inputs.digit_offset(p, r, rng))))


def certificate_ok(cert: dict, entries, expected: str) -> bool:
    """The certificate has the expected classification and every failing witness re-sums on entries."""
    return cert.get("classification") == expected and all(
        inputs.witness_resums(entries, v) for v in cert["verdicts"]
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Construct:
    """generate_most_perfect over a fixed list of (p, r)."""

    name = "construct"
    points = ((2, 5), (3, 4), (11, 3))
    warm_points = ((2, 3), (3, 3))

    def setup(self, ff, seed: int, workdir: Path, warm: bool = False):
        rng = random.Random(seed)
        return [ff.construct.GeneratorConfig(p, r, rng.randrange(2**31))
                for p, r in (self.warm_points if warm else self.points)]

    def op(self, ff, state, i: int):
        return [ff.construct.generate_most_perfect(config) for config in state]

    def check(self, state, i: int, out) -> bool:
        return all(
            square.order == config.p**config.r and not inputs.most_perfect_defects(square.entries, config.p)
            for config, square in zip(state, out)
        )

    def digest(self, state, out) -> str:
        return _sha(b"".join(square.entries.tobytes() for square in out))

    def cells(self, state, i: int) -> int:
        return sum((config.p**config.r) ** 2 for config in state)

    def peak_indices(self, state) -> list[int]:
        return [0]

    def largest_order(self) -> int:
        return max(p**r for p, r in self.points)


class Certify:
    """theta(mp), verify_all(theta(mp)) and verify_all(mp) on prebuilt most-perfect squares."""

    name = "certify"
    points = ((3, 6), (5, 4), (7, 3))
    warm_points = ((2, 3), (3, 3))

    def setup(self, ff, seed: int, workdir: Path, warm: bool = False):
        rng = random.Random(seed)
        state = []
        for p, r in self.warm_points if warm else self.points:
            mp = _natural_square(ff, p, r, rng)
            state.append((ff.core.TypeParams.for_power(p, r), mp, inputs.theta_entries(mp.entries, p)))
        return state

    def op(self, ff, state, i: int):
        out = []
        for params, mp, _ in state:
            franklin = ff.involution.theta(mp, params)
            out.append((franklin, ff.properties.verify_all(franklin, params), ff.properties.verify_all(mp, params)))
        return out

    def check(self, state, i: int, out) -> bool:
        for (params, mp, expected), (franklin, f_report, mp_report) in zip(state, out):
            if not (franklin.entries == expected).all():
                return False
            mp_cert = mp_report.to_json_dict()
            if all(v["passed"] for v in mp_cert["verdicts"]):  # the Franklin check must take its fail path
                return False
            if not (certificate_ok(f_report.to_json_dict(), franklin.entries, FRANKLIN)
                    and certificate_ok(mp_cert, mp.entries, MOST_PERFECT)):
                return False
        return True

    def digest(self, state, out) -> str:
        reports = [[f.to_json_dict(), m.to_json_dict()] for _, f, m in out]
        return _sha(json.dumps(reports, sort_keys=True).encode() + b"".join(f.entries.tobytes() for f, _, _ in out))

    def cells(self, state, i: int) -> int:
        return sum(params.n**2 for params, _, _ in state)

    def peak_indices(self, state) -> list[int]:
        return [0]

    def largest_order(self) -> int:
        return max(p**r for p, r in self.points)


class Cli:
    """In-process `theta` then `verify --json --expect` on real files."""

    name = "cli"
    p, r = 3, 6
    warm_r = 3

    def setup(self, ff, seed: int, workdir: Path, warm: bool = False):
        r = self.warm_r if warm else self.r
        rng = random.Random(seed)
        entries = inputs.most_perfect_entries(self.p, r, inputs.digit_offset(self.p, r, rng))
        workdir.mkdir(parents=True, exist_ok=True)
        tag = "warm" if warm else "main"
        mp_path, f_path = workdir / f"mp-{tag}.json", workdir / f"f-{tag}.json"
        doc = {"schema": "franklin-forge/1", "order": len(entries), "p": self.p, "r": r,
               "entries": entries.tolist(), "metadata": {}}
        mp_path.write_text(json.dumps(doc), encoding="utf-8")
        return {"n": len(entries), "mp": str(mp_path), "f": str(f_path)}

    def op(self, ff, state, i: int):
        p = str(self.p)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            theta_rc = ff.cli.main(["theta", "--p", p, "--in", state["mp"], "--out", state["f"]])
            verify_rc = ff.cli.main(["verify", "--p", p, "--in", state["f"], "--json", "--expect", FRANKLIN])
        return theta_rc, verify_rc, stdout.getvalue()

    def check(self, state, i: int, out) -> bool:
        theta_rc, verify_rc, text = out
        if theta_rc != 0 or verify_rc != 0:
            return False
        cert = json.loads(text)
        entries = np.array(json.loads(Path(state["f"]).read_text(encoding="utf-8"))["entries"])
        return cert["order"] == state["n"] and cert["p"] == self.p and certificate_ok(cert, entries, FRANKLIN)

    def digest(self, state, out) -> str:
        return _sha(repr(out[:2]).encode() + out[2].encode() + Path(state["f"]).read_bytes())

    def cells(self, state, i: int) -> int:
        return state["n"] ** 2

    def peak_indices(self, state) -> list[int]:
        return [0]

    def largest_order(self) -> int:
        return self.p**self.r


class Patterns:
    """One op resolves one pattern spec with franklin_cells and sums its cells on theta(mp)."""

    name = "patterns"
    groups = ((2, 8), (5, 1), (3, 9))  # (p, k), n = k p^3: even p, valley band, peak band
    warm_groups = ((2, 1), (3, 1))

    def setup(self, ff, seed: int, workdir: Path, warm: bool = False):
        rng = random.Random(seed)
        specs = []
        for p, k in self.warm_groups if warm else self.groups:
            params = ff.core.TypeParams.for_franklin(p, k)
            r = _power(p, params.n)
            franklin = inputs.theta_entries(inputs.most_perfect_entries(p, r, inputs.digit_offset(p, r, rng)), p)
            n = len(franklin)
            specs.extend((spec, franklin, n * (n * n - 1) // 2) for spec in ff.patterns.enumerate_patterns(params))
        rng.shuffle(specs)
        return specs

    def op(self, ff, state, i: int):
        spec, franklin, _ = state[i % len(state)]
        rows, cols = zip(*ff.patterns.franklin_cells(spec))
        return int(franklin[rows, cols].sum())

    def check(self, state, i: int, out) -> bool:
        return out == state[i % len(state)][2]

    def digest(self, state, out) -> int:
        return out

    def cells(self, state, i: int) -> int:
        return state[i % len(state)][0].params.n

    def peak_indices(self, state) -> list[int]:
        """The up pattern with alpha 1 at frame offset 0 of each order, so the peak does not depend on the shuffle."""
        return sorted(
            i for i, (spec, _, _) in enumerate(state)
            if (spec.direction, spec.alpha, spec.frame_offset) == ("up", 1, 0)
        )

    def largest_order(self) -> int:
        return max(k * p**3 for p, k in self.groups)


WORKLOADS = {w.name: w for w in (Construct(), Certify(), Cli(), Patterns())}
