"""The benchmark's workloads: which CLI steps each one runs, and why.

Each workload is a fixed list of ``gibbsprep`` CLI invocations: sweeps that
take the benchmark seed as ``--master_seed`` and always run with one
worker, then a ``plotdata`` step that reads the sweeps' CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

ALGORITHMS = {"vqe-gibbs": "vqe", "qaoa-gibbs": "qaoa", "baseline": "baseline"}


@dataclass(frozen=True)
class Sweep:
    command: str  # a key of ALGORITHMS
    options: tuple[tuple[str, str], ...]

    @property
    def algorithm(self) -> str:
        return ALGORITHMS[self.command]

    def argv(self, seed: int, out: str) -> list[str]:
        argv = [self.command]
        for key, value in self.options:
            argv += [f"--{key}", value]
        return argv + ["--workers", "1", "--master_seed", str(seed), "--out", out]

    def raw_config(self, seed: int, out: str) -> dict:
        """The same settings as :meth:`argv`, as ``harness.build_config`` takes them."""
        return dict(
            self.options,
            algorithm=self.algorithm,
            workers="1",
            master_seed=str(seed),
            out=out,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweeps: tuple[Sweep, ...]
    panel: str

    def steps(self, seed: int, out: str) -> list[list[str]]:
        plot = ["plotdata", "--csv", f"{out}/results.csv", "--panel", self.panel,
                "--out", f"{out}/plot"]
        return [sweep.argv(seed, out) for sweep in self.sweeps] + [plot]


def _layered(command: str, n_data: str, beta_inv_list: str, restarts: str, layers: str):
    return Sweep(
        command,
        (
            ("model", "ising"),
            ("n_data", n_data),
            ("beta_inv_list", beta_inv_list),
            ("restarts", restarts),
            ("layer_budget", layers),
        ),
    )


# The paper's fig1 sweep (ADAPT-VQE growth at 3+1 qubits) is not a workload:
# its restarts take 3 to 14 growth steps depending on the seed, and in 40 s
# runs on a shared 2-core host the quartile spread of its wall time over ten
# seeds was 0.24 of the median, the widest of the three sweeps tried. The two
# layered workloads between them exercise both the value+gradient engine and
# the pool scan.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "layered-fig2",
            why=(
                "fig2 shape: qaoa then baseline, 4 layers on 10 qubits; value+gradient "
                "is ~89% of cell time and only the qaoa half runs the pool scan (~5%)"
            ),
            sweeps=(
                _layered("qaoa-gibbs", "5", "0.6,2.0", "1", "4"),
                _layered("baseline", "5", "0.6,2.0", "1", "4"),
            ),
            panel="fig2",
        ),
        Workload(
            "qaoa-wide",
            why=(
                "12 qubits, one qaoa layer: the scan rotates 342 words over 4096 amplitudes "
                "(~24% of cell time) and 342 12-qubit tables are cached (31.5 MB)"
            ),
            sweeps=(_layered("qaoa-gibbs", "6", "1.0,2.0", "3", "1"),),
            panel="fig2",
        ),
    )
}
